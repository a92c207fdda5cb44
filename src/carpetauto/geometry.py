"""Exact intersection oracle and exact projection for carpet attractors.

The oracle decides, for the companion attractor K (uniform ratios 1/n,
1/m over the same digit set), which of the nine offsets b in {-1,0,1}^2
satisfy K ∩ (K + b) ≠ ∅.  Descending one subdivision level maps the
question for offset b to the same question for the offset

    b' = (n*bx + d'1 - d1, m*by + d'2 - d2)

over digit pairs (d, d'); K ∩ (K + b) ≠ ∅ iff some such b' stays inside
{-1,0,1}^2 and itself survives.  The survivors therefore form the
greatest fixed point of this one-step filter on at most nine nodes, the
`automaton.infinite_core` of the offsets that every search shares.

Only the difference d' - d of a digit pair matters, and only few
differences can ever be read.  A move from b to b' reads the difference
b' - (n*bx, m*by), whose x part must be a digit difference e1 - d1 in
[-(n-1), n-1].  With bx = 0 that is b'x itself, in {-1, 0, 1}.  With
bx = 1 it is b'x - n, in {-n-1, -n, 1-n}, of which only 1-n is in range,
so b'x = 1; with bx = -1 likewise only b'x = -1 gives n-1.  The y part
is alike with m.  So a move exists only when b' agrees with b on every
nonzero component of b: `MOVES[b]` lists those b', 9 from (0, 0), 3 from
each of the four axis offsets and 1 from each of the four diagonal ones,
25 moves in all of the 81 (b, b') pairs.  The differences they read are
exactly the admissible ones, with x in {-1, 0, 1, n-1, 1-n} and y in
{-1, 0, 1, m-1, 1-m}, and `difference_index` stores only those, out of
its loop over the N^2 letter pairs.  The successors of each offset are
the moves whose difference occurs in the index, computed once before the
fixed point.  The topology automaton reads its transitions from the same
moves and the same index.  `offset_successors` and `chain_survivors`
keep the direct loop over digit pairs as an independent reference.

`raster_gap` is the other independent check: the cell gap between the
depth-k rasterizations of K and K + b, read from the grid's edge digits
alone.  For an axis offset it follows a far-edge minus near-edge cell
coordinate digit by digit, D_t = base*D_(t-1) + (a_t - b_t), and keeps
per level only the least positive value, 0 and the greatest negative
value, which `_edge_gap` shows to be exact.  A depth-k check thus takes
depth*|far|*|near| steps, not one per edge cell.

`project` maps a word to the corner of its depth-k cylinder.  The value
is exact: it is computed in integers scaled by the lcm D of each axis's
ratio denominators, and returned as one Fraction per coordinate.
`projector(spec, depth)` builds the per-letter integer tables once and
returns the map from a word to its scaled corner (Sx, Sy) over the
denominators (Dx^depth, Dy^depth); a caller that projects many words at
one depth calls it once, and `project` runs it for a single word.  The
map applies q whole periods of a word at once by a geometric sum, which
is an exact integer because every ratio is below 1 (see `projector`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .automaton import infinite_core
from .errors import InternalError

if TYPE_CHECKING:
    from .carpet import CarpetSpec
    from .words import PeriodicWord

OFFSETS = tuple((bx, by) for by in (-1, 0, 1) for bx in (-1, 0, 1))
RECT_CAP = 10**6  # the most rectangles `cylinder_rects` builds

# b -> the offsets b' that agree with b wherever b is nonzero: the only
# moves b -> b' whose difference b' - (n*bx, m*by) can be a digit
# difference (see the module docstring); 25 in all.
MOVES = {
    b: frozenset(v for v in OFFSETS if all(c == bc for c, bc in zip(v, b) if bc))
    for b in OFFSETS
}


def difference_index(spec) -> dict:
    """(e1 - d1, e2 - d2) -> the letter pairs (i, j) with d = d_i, e = d_j,
    for the admissible differences only, the ones a move of `MOVES` reads.

    Pairs are listed in (i, j) order.  Distinct digits make the pairs
    stored under (0, 0) exactly the diagonal (i, i).
    """
    xs = {-1, 0, 1, spec.n - 1, 1 - spec.n}
    ys = {-1, 0, 1, spec.m - 1, 1 - spec.m}
    index = {}
    for i, (d1, d2) in enumerate(spec.digits, start=1):
        for j, (e1, e2) in enumerate(spec.digits, start=1):
            if e1 - d1 in xs and e2 - d2 in ys:
                index.setdefault((e1 - d1, e2 - d2), []).append((i, j))
    return index


def offset_successors(spec, b):
    """All in-box offsets b' reachable from b in one subdivision step."""
    bx, by = b
    out = set()
    for d1, d2 in spec.digits:
        for e1, e2 in spec.digits:
            v = (spec.n * bx + e1 - d1, spec.m * by + e2 - d2)
            if -1 <= v[0] <= 1 and -1 <= v[1] <= 1:
                out.add(v)
    return out


class IntersectionOracle(NamedTuple):
    """Survivor set of the nine unit offsets for one digit set."""

    survivors: frozenset[tuple[int, int]]

    def intersects(self, b) -> bool:
        return tuple(b) in self.survivors


def build_oracle(spec: "CarpetSpec", index: dict | None = None) -> IntersectionOracle:
    """The `infinite_core` of the offset filter; exact for the companion.

    Only n, m and digits of `spec` are read, so a ratio-bearing carpet
    gives the oracle of its companion without building the companion.
    The successors of the nine offsets are read once, from the 25 moves
    of `MOVES` and the digit difference index (`index`, when the caller
    has built it already).
    """
    if index is None:
        index = difference_index(spec)
    successors = {
        b: {v for v in MOVES[b] if (v[0] - spec.n * b[0], v[1] - spec.m * b[1]) in index}
        for b in OFFSETS
    }
    alive = infinite_core(OFFSETS, successors.__getitem__)
    if (0, 0) not in alive or any((-b[0], -b[1]) not in alive for b in alive):
        raise InternalError("the surviving offsets must hold 0 and be closed under negation")
    return IntersectionOracle(frozenset(alive))


def chain_survivors(spec) -> frozenset:
    """Independent brute force: b survives iff a length-9 chain of
    digit-pair steps stays inside the box.  With at most nine offsets, a
    length-9 chain necessarily revisits a node, so depth 9 is exact.

    After round k, `alive` holds the offsets that start a chain of length k.
    """
    succ = {b: offset_successors(spec, b) for b in OFFSETS}
    alive = set(OFFSETS)
    for _ in range(len(OFFSETS)):
        alive = {b for b in OFFSETS if succ[b] & alive}
    return frozenset(alive)


def project(spec: "CarpetSpec", word: "PeriodicWord", depth: int):
    """Approximate π(word) by the corner of the depth-k cylinder.

    Returns ((x, y), err): the exact rational corner and a float error
    bound of (max ratio)^depth per coordinate, from `projector`.
    """
    corner, (dx, dy), err = projector(spec, depth)
    sx, sy = corner(word)
    return (Fraction(sx, dx), Fraction(sy, dy)), err


def projector(spec: "CarpetSpec", depth: int):
    """(corner, (Dx^depth, Dy^depth), err) for projecting words at one depth.

    corner(word) returns the integers (Sx, Sy) whose quotients by the
    denominators are the exact corner of the word's depth-k cylinder, and
    err is the float bound (max ratio)^depth per coordinate.  With D the
    lcm of an axis's ratio denominators, the cell widths a = r*D and left
    edges b = left*D are integers, and folding S <- S*D + W*b[d],
    W <- W*a[d] over the first `depth` letters gives the coordinate
    S / D^depth, the same rational as the sum of products.

    The fold is linear in (S, W): a period of p letters is the map
    S <- S*D^p + W*B, W <- W*A, with (B, A) its fold from (0, 1), and q
    periods are S <- S*D^(pq) + W*B*(D^(pq) - A^q)/(D^p - A), W <- W*A^q,
    the geometric sum of the terms D^(p(q-1-i))*A^i.  This is exact:
    n, m >= 2 makes every ratio below 1, so A < D^p, and D^p - A divides
    D^(pq) - A^q.  corner() folds the preperiod, the q whole periods at
    once and the leftover letters; it refuses a word with a letter
    outside the alphabet.  The tables are built here once.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    N = len(spec.digits)
    dx, ax, bx, fx = _scaled(spec.horizontal_ratios())
    dy, ay, by, fy = _scaled(spec.vertical_ratios())
    # table[letter] = (b_x, a_x, b_y, a_y) of the letter's digit
    table = [None] + [(bx[d1], ax[d1], by[d2], ay[d2]) for d1, d2 in spec.digits]

    def fold(letters, sx, wx, sy, wy):
        for letter in letters:
            lx, cx, ly, cy = table[letter]
            sx = sx * dx + wx * lx
            sy = sy * dy + wy * ly
            wx *= cx
            wy *= cy
        return sx, wx, sy, wy

    def corner(word: "PeriodicWord"):
        pre, per = word.preperiod, word.period
        letters = pre + per
        if min(letters) < 1 or max(letters) > N:
            raise ValueError(f"word {word} has letters outside the alphabet 1..{N}")
        sx, wx, sy, wy = fold(pre[:depth], 0, 1, 0, 1)
        q, r = divmod(max(depth - len(pre), 0), len(per))
        if q:
            p = len(per)
            px, pa, py, pb = fold(per, 0, 1, 0, 1)
            gx, gy = (dx**p) ** q, (dy**p) ** q
            sx = sx * gx + wx * px * (gx - pa**q) // (dx**p - pa)
            sy = sy * gy + wy * py * (gy - pb**q) // (dy**p - pb)
            wx *= pa**q
            wy *= pb**q
        return fold(per[:r], sx, wx, sy, wy)[::2]

    return corner, (dx**depth, dy**depth), max(fx, fy) ** depth


def _scaled(ratios):
    """(D, widths*D, left edges*D, float(max ratio)) for one axis's ratios,
    in integer arithmetic: the left edges are running sums of the widths,
    and max(widths) / D is the correctly rounded float of the max ratio."""
    D = math.lcm(*(r.denominator for r in ratios))
    widths = tuple(r.numerator * (D // r.denominator) for r in ratios)
    lefts = tuple(itertools.accumulate(widths[:-1], initial=0))
    return D, widths, lefts, max(widths) / D


def cylinder_rects(spec: "CarpetSpec", depth: int):
    """All depth-k cylinder rectangles as (x, y, w, h) Fractions, y-up.

    A depth beyond RECT_CAP.bit_length() is refused before any power is
    taken: with two or more digits it yields more than RECT_CAP rectangles.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > (deepest := RECT_CAP.bit_length()):
        raise ValueError(f"depth {depth} exceeds {deepest}, the deepest a cap of {RECT_CAP} allows")
    if len(spec.digits) ** depth > RECT_CAP:
        raise ValueError(f"{len(spec.digits)}^{depth} rectangles exceed cap {RECT_CAP}")
    hr = spec.horizontal_ratios()
    vr = spec.vertical_ratios()
    hleft = tuple(itertools.accumulate(hr[:-1], initial=Fraction(0)))
    vleft = tuple(itertools.accumulate(vr[:-1], initial=Fraction(0)))
    rects = [(Fraction(0), Fraction(0), Fraction(1), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for x, y, w, h in rects:
            for d1, d2 in spec.digits:
                nxt.append((x + w * hleft[d1], y + h * vleft[d2], w * hr[d1], h * vr[d2]))
        rects = nxt
    return rects


def render_svg(spec: "CarpetSpec", depth: int, size: int = 512) -> str:
    """SVG 1.1 document with one rectangle per depth-k cylinder."""
    if size < 1:
        raise ValueError("size must be positive")
    rects = cylinder_rects(spec, depth)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
    ]
    for x, y, w, h in rects:
        # carpet coordinates are y-up; SVG is y-down
        sx = float(x) * size
        sy = (1.0 - float(y) - float(h)) * size
        lines.append(
            f'<rect x="{sx:.4f}" y="{sy:.4f}" width="{float(w) * size:.4f}" '
            f'height="{float(h) * size:.4f}" fill="#1f4e79"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _edge_gap(spec, axis: int, depth: int) -> int:
    """Least cell-coordinate distance between one axis's far and near edges.

    The far edge of axis 0 is K's rightmost column, read through the
    digits with d1 = n - 1, and the near edge its leftmost, d1 = 0; for
    axis 1 they are the top and bottom rows.  A depth-k cell on an edge
    has the cross-axis coordinate sum_t c_t base^(k-t), over that edge's
    digits c_t, with base m for axis 0 and n for axis 1.  So a far cell
    minus a near cell is D_k, where D_0 = 0 and
    D_t = base*D_(t-1) + (a_t - b_t) for a far digit a_t and a near
    digit b_t, chosen independently at each level.

    Each |a_t - b_t| is below base, so r more levels move D_k by at most
    base^r - 1 from base^r*D_t.  A positive D_t therefore only leads to
    positive D_k, and with the same later digits a smaller positive D_t
    gives a smaller one; likewise for negative values, and 0 leads to the
    later digits' own sum.  The least |D_k| reachable from a level's values
    is thus reachable from three of them: the least positive, 0 (when
    reached) and the greatest negative.  Keeping only those costs
    depth*|far|*|near| steps, not the |far|^depth and |near|^depth edge
    cells.  Returns -1 when either edge is empty.

    Only the grid's edge digits are read, never the oracle's successors or
    survivors, so the raster check stays independent of the fixed point.
    """
    size, base = (spec.n, spec.m) if axis == 0 else (spec.m, spec.n)
    far = {d[1 - axis] for d in spec.digits if d[axis] == size - 1}
    near = {d[1 - axis] for d in spec.digits if d[axis] == 0}
    if not far or not near:
        return -1
    steps = {a - b for a in far for b in near}
    kept = {0}
    for _ in range(depth):
        reach = {base * x + s for x in kept for s in steps}
        kept = {
            min(side, key=abs)
            for side in ({v for v in reach if v < 0}, reach & {0}, {v for v in reach if v > 0})
            if side
        }
    return min(map(abs, kept))


def raster_gap(spec, b, depth: int = 9) -> int:
    """Cell gap between the depth-k rasterizations of K and K + b.

    Returns the minimal coordinate distance between facing boundary cells
    (<= 1 means the closed rasterizations touch), or -1 when one side of
    the boundary carries no cells at all (definite disjointness).
    Only meaningful for nonzero offsets; (0, 0) gives 0.  The gap of -b
    equals the gap of b: for an axis offset both face K's far edge on that
    axis with its near edge, and the least distance between two sets does
    not depend on their order.  A depth below 1, or an offset outside the
    nine unit offsets, raises ValueError.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if tuple(b) not in OFFSETS:
        raise ValueError(f"offset {tuple(b)} is not one of the nine unit offsets")
    bx, by = b
    if (bx, by) == (0, 0):
        return 0
    if bx != 0 and by != 0:
        corner_k = ((spec.n - 1) if bx > 0 else 0, (spec.m - 1) if by > 0 else 0)
        corner_t = ((spec.n - 1) if bx < 0 else 0, (spec.m - 1) if by < 0 else 0)
        if corner_k in spec.digits and corner_t in spec.digits:
            return 1
        return -1
    return _edge_gap(spec, 0 if bx else 1, depth)


def raster_overlap(spec, b, depth: int = 9) -> bool:
    """Depth-k rasterizations of K and K + b share or touch a cell."""
    gap = raster_gap(spec, b, depth)
    return gap >= 0 and gap <= 1

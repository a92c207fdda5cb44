"""Exact intersection oracle and exact projection for carpet attractors.

The oracle decides, for the companion attractor K (uniform ratios 1/n,
1/m over the same digit set), which of the nine offsets b in {-1,0,1}^2
satisfy K ∩ (K + b) ≠ ∅.  Descending one subdivision level maps the
question for offset b to the same question for the offset

    b' = (n*bx + d'1 - d1, m*by + d'2 - d2)

over digit pairs (d, d'); K ∩ (K + b) ≠ ∅ iff some such b' stays inside
{-1,0,1}^2 and itself survives.  The survivors therefore form the
greatest fixed point of this one-step filter on at most nine nodes.

Only the difference d' - d of a digit pair matters, so `difference_index`
groups the N^2 letter pairs by it once.  The successors of each of the
nine offsets are then the in-box b' whose difference b' - (n*bx, m*by)
occurs in the index: at most 81 lookups, computed once before the fixed
point.  The topology automaton reads its transitions from the same
index.  `offset_successors` and `chain_survivors` keep the direct loop
over digit pairs as an independent reference.

`project` maps a word to the corner of its depth-k cylinder.  The value
is exact: it is computed in integers scaled by the lcm of each axis's
ratio denominators, and returned as one Fraction per coordinate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .carpet import CarpetSpec
    from .words import PeriodicWord

OFFSETS = tuple((bx, by) for by in (-1, 0, 1) for bx in (-1, 0, 1))


def difference_index(spec) -> dict:
    """(e1 - d1, e2 - d2) -> the letter pairs (i, j) with d = d_i, e = d_j.

    Pairs are listed in (i, j) order.  Distinct digits make the pairs
    stored under (0, 0) exactly the diagonal (i, i).
    """
    index = {}
    for i, (d1, d2) in enumerate(spec.digits, start=1):
        for j, (e1, e2) in enumerate(spec.digits, start=1):
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


@dataclass(frozen=True)
class IntersectionOracle:
    """Survivor set of the nine unit offsets for one digit set."""

    n: int
    m: int
    digits: tuple[tuple[int, int], ...]
    survivors: frozenset[tuple[int, int]]

    def intersects(self, b) -> bool:
        return tuple(b) in self.survivors


def build_oracle(spec: "CarpetSpec", index: dict | None = None) -> IntersectionOracle:
    """Greatest fixed point of the offset filter; exact for the companion.

    The successors of the nine offsets are read once from the digit
    difference index (`index`, when the caller has built it already),
    so each round of the fixed point is nine set intersections.
    """
    if index is None:
        index = difference_index(spec)
    successors = {
        b: {v for v in OFFSETS if (v[0] - spec.n * b[0], v[1] - spec.m * b[1]) in index}
        for b in OFFSETS
    }
    alive = set(OFFSETS)
    while True:
        kept = {b for b in alive if successors[b] & alive}
        if kept == alive:
            break
        alive = kept
    assert (0, 0) in alive
    assert all((-b[0], -b[1]) in alive for b in alive)
    return IntersectionOracle(spec.n, spec.m, spec.digits, frozenset(alive))


def chain_survivors(spec, depth: int = 9) -> frozenset:
    """Independent brute force: b survives iff a length-`depth` chain of
    digit-pair steps stays inside the box.  With at most nine offsets, a
    length-9 chain necessarily revisits a node, so depth 9 is exact.

    After round k, `alive` holds the offsets that start a chain of length k.
    """
    succ = {b: offset_successors(spec, b) for b in OFFSETS}
    alive = set(OFFSETS)
    for _ in range(depth):
        alive = {b for b in OFFSETS if succ[b] & alive}
    return frozenset(alive)


def project(spec: "CarpetSpec", word: "PeriodicWord", depth: int):
    """Approximate π(word) by the corner of the depth-k cylinder.

    Returns ((x, y), err): the exact rational corner and a float error
    bound of (max ratio)^depth per coordinate.  The corner is computed in
    scaled integers.  With D the lcm of an axis's ratio denominators, the
    cell widths a = r*D and left edges b = left*D are integers, and folding
    S <- S*D + W*b[d], W <- W*a[d] over the first `depth` letters gives the
    coordinate S / D^depth, the same rational as the sum of products.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    N = len(spec.digits)
    letters = word.preperiod + word.period
    if min(letters) < 1 or max(letters) > N:
        raise ValueError(f"word {word} has letters outside the alphabet 1..{N}")
    dx, ax, bx, fx = _scaled(spec.horizontal_ratios())
    dy, ay, by, fy = _scaled(spec.vertical_ratios())
    sx = sy = 0
    wx = wy = 1
    for letter in word.prefix(depth):
        d1, d2 = spec.digits[letter - 1]
        sx = sx * dx + wx * bx[d1]
        sy = sy * dy + wy * by[d2]
        wx *= ax[d1]
        wy *= ay[d2]
    return (Fraction(sx, dx**depth), Fraction(sy, dy**depth)), max(fx, fy) ** depth


@functools.lru_cache(maxsize=64)
def _scaled(ratios):
    """(D, widths*D, left edges*D, float(max ratio)) for one axis's ratios."""
    D = math.lcm(*(r.denominator for r in ratios))
    widths = tuple(int(r * D) for r in ratios)
    lefts = tuple(int(x * D) for x in _cumulative(ratios))
    return D, widths, lefts, float(max(ratios))


def _cumulative(ratios):
    acc = Fraction(0)
    out = []
    for r in ratios:
        out.append(acc)
        acc += r
    return out


def cylinder_rects(spec: "CarpetSpec", depth: int, cap: int = 10**6):
    """All depth-k cylinder rectangles as (x, y, w, h) Fractions, y-up."""
    if depth < 1:
        raise ValueError("depth must be positive")
    if len(spec.digits) ** depth > cap:
        raise ValueError(f"{len(spec.digits)}^{depth} rectangles exceed cap {cap}")
    hr = spec.horizontal_ratios()
    vr = spec.vertical_ratios()
    hleft = _cumulative(hr)
    vleft = _cumulative(vr)
    rects = [(Fraction(0), Fraction(0), Fraction(1), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for x, y, w, h in rects:
            for d1, d2 in spec.digits:
                nxt.append((x + w * hleft[d1], y + h * vleft[d2], w * hr[d1], h * vr[d2]))
        rects = nxt
    return rects


def render_svg(spec: "CarpetSpec", depth: int, size: int = 512,
               fill: str = "#1f4e79", cap: int = 10**6) -> str:
    """SVG 1.1 document with one rectangle per depth-k cylinder."""
    rects = cylinder_rects(spec, depth, cap=cap)
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
            f'height="{float(h) * size:.4f}" fill="{fill}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def _edge_coords(spec, side: str, depth: int):
    """Cross-axis coordinates of depth-k cells on one boundary edge.

    For side "left"/"right" returns the occupied j-values of cells in the
    leftmost/rightmost column; for "bottom"/"top" the occupied i-values of
    cells in the bottom/top row.  Computed by the obvious recursion, so it
    is independent of the fixed-point oracle.
    """
    import numpy as np

    if side == "left":
        sel = [d2 for d1, d2 in spec.digits if d1 == 0]
        base = spec.m
    elif side == "right":
        sel = [d2 for d1, d2 in spec.digits if d1 == spec.n - 1]
        base = spec.m
    elif side == "bottom":
        sel = [d1 for d1, d2 in spec.digits if d2 == 0]
        base = spec.n
    elif side == "top":
        sel = [d1 for d1, d2 in spec.digits if d2 == spec.m - 1]
        base = spec.n
    else:
        raise ValueError(side)
    coords = np.array([0], dtype=np.int64)
    digits = np.array(sorted(sel), dtype=np.int64)
    for _ in range(depth):
        if digits.size == 0:
            return np.array([], dtype=np.int64)
        # already sorted and unique: coords are, and the digits are sorted and < base
        coords = (base * coords[:, None] + digits[None, :]).ravel()
    return coords


def _edge_gap(spec, a_side: str, b_side: str, depth: int) -> int:
    """Minimal cell-coordinate distance between two boundary edge sets."""
    import numpy as np

    a = _edge_coords(spec, a_side, depth)
    b = _edge_coords(spec, b_side, depth)
    if a.size == 0 or b.size == 0:
        return -1
    idx = np.searchsorted(b, a)
    best = None
    for shift in (-1, 0):
        k = np.clip(idx + shift, 0, b.size - 1)
        d = np.abs(a - b[k]).min()
        best = d if best is None else min(best, d)
    return int(best)


def raster_gap(spec, b, depth: int = 9) -> int:
    """Cell gap between the depth-k rasterizations of K and K + b.

    Returns the minimal coordinate distance between facing boundary cells
    (<= 1 means the closed rasterizations touch), or -1 when one side of
    the boundary carries no cells at all (definite disjointness).
    Only meaningful for nonzero offsets.
    """
    bx, by = b
    if (bx, by) == (0, 0):
        return 0
    if bx != 0 and by != 0:
        corner_k = ((spec.n - 1) if bx > 0 else 0, (spec.m - 1) if by > 0 else 0)
        corner_t = ((spec.n - 1) if bx < 0 else 0, (spec.m - 1) if by < 0 else 0)
        if corner_k in spec.digits and corner_t in spec.digits:
            return 1
        return -1
    if bx == 1:
        return _edge_gap(spec, "right", "left", depth)
    if bx == -1:
        return _edge_gap(spec, "left", "right", depth)
    if by == 1:
        return _edge_gap(spec, "top", "bottom", depth)
    return _edge_gap(spec, "bottom", "top", depth)


def raster_overlap(spec, b, depth: int = 9) -> bool:
    """Depth-k rasterizations of K and K + b share or touch a cell."""
    gap = raster_gap(spec, b, depth)
    return gap >= 0 and gap <= 1

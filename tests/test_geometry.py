import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from carpetauto.automaton import EXIT, ID, SigmaAutomaton, build_topology_automaton, random_word
from carpetauto.carpet import CarpetSpec
from carpetauto.geometry import (
    MOVES,
    OFFSETS,
    build_oracle,
    chain_survivors,
    difference_index,
    cylinder_rects,
    project,
    projector,
    raster_gap,
    raster_overlap,
    render_svg,
)
from carpetauto.words import PeriodicWord

from conftest import SQUARE_TOP_5


def full_square(k):
    return CarpetSpec(k, k, tuple((a, b) for a in range(k) for b in range(k)))


def test_full_grid_all_offsets_survive():
    oracle = build_oracle(full_square(3))
    assert oracle.survivors == frozenset(OFFSETS)


def test_totally_disconnected_set_keeps_only_zero():
    # two cells on the main diagonal of a 3x3 grid: the attractor is a
    # Cantor dust and no translate by a unit offset can touch it
    spec = CarpetSpec(3, 3, ((0, 0), (1, 1)))
    oracle = build_oracle(spec)
    assert oracle.survivors == frozenset({(0, 0)})


def test_corner_digits_keep_the_diagonal_alive():
    spec = CarpetSpec(3, 3, ((0, 0), (2, 2)))
    oracle = build_oracle(spec)
    assert (1, 1) in oracle.survivors and (-1, -1) in oracle.survivors
    assert (1, 0) not in oracle.survivors
    assert (0, 1) not in oracle.survivors


def test_survivors_closed_under_negation():
    oracle = build_oracle(SQUARE_TOP_5)
    assert all((-a, -b) in oracle.survivors for a, b in oracle.survivors)


def test_oracle_matches_chain_enumeration_and_rasterization():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        cells = [(a, b) for a in range(n) for b in range(m)]
        digits = tuple(rng.sample(cells, rng.randint(1, len(cells))))
        spec = CarpetSpec(n, m, digits)
        oracle = build_oracle(spec)
        assert oracle.survivors == chain_survivors(spec)
        for b in OFFSETS:
            if b != (0, 0):
                assert oracle.intersects(b) == raster_overlap(spec, b), (spec, b)


def test_oracle_matches_chain_enumeration_up_to_8x8():
    # both independent checks: the chain enumeration, which loops over
    # digit pairs directly, and the depth-9 raster of the edge digits
    rng = random.Random(8)
    sizes = set()
    for _ in range(300):
        n = rng.randint(2, 8)
        m = rng.randint(2, 8)
        cells = [(a, b) for a in range(n) for b in range(m)]
        spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(1, len(cells)))))
        survivors = build_oracle(spec).survivors
        assert survivors == chain_survivors(spec), spec
        for b in OFFSETS:
            if b != (0, 0):
                assert (b in survivors) == raster_overlap(spec, b), (spec, b)
        sizes.add(len(survivors))
    assert sizes == {1, 3, 5, 7, 9}  # every odd survivor count occurs


def reference_difference_index(spec):
    """The full grouping of all N^2 letter pairs, which `difference_index`
    made before it kept only the admissible differences."""
    index = {}
    for i, (d1, d2) in enumerate(spec.digits, start=1):
        for j, (e1, e2) in enumerate(spec.digits, start=1):
            index.setdefault((e1 - d1, e2 - d2), []).append((i, j))
    return index


def reference_survivors(spec, index):
    """The fixed point of `build_oracle` over all 81 (b, v) moves."""
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
    return frozenset(alive)


def reference_delta(spec):
    """The topology automaton's table built as before the move table: the
    full index, every surviving target looked up from every state."""
    index = reference_difference_index(spec)
    delta = {(ID, i, j): ID for i, j in index[(0, 0)]}
    targets = [v for v in reference_survivors(spec, index) if v != (0, 0)]
    reached = [ID]
    for s in reached:
        sx, sy = (0, 0) if s == ID else s
        for v in targets:
            pairs = index.get((v[0] - spec.n * sx, v[1] - spec.m * sy), ())
            for i, j in pairs:
                delta[(s, i, j)] = v
            if pairs and v not in reached:
                reached.append(v)
    return delta, frozenset({*reached, EXIT})


def random_small_carpet(rng):
    """A uniform carpet up to 9x9, with n or m equal to 2 a third of the time."""
    n, m = rng.randint(2, 9), rng.randint(2, 9)
    if rng.random() < 1 / 3:
        n, m = rng.choice(((2, m), (n, 2)))
    cells = [(a, b) for a in range(n) for b in range(m)]
    return CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(1, len(cells)))))


def admissible(spec, key):
    return key[0] in {-1, 0, 1, spec.n - 1, 1 - spec.n} and key[1] in {-1, 0, 1, spec.m - 1, 1 - spec.m}


def test_moves_hold_every_readable_difference():
    assert sum(map(len, MOVES.values())) == 25
    assert [len(MOVES[b]) for b in OFFSETS] == [1, 3, 1, 3, 9, 3, 1, 3, 1]
    for n in range(2, 13):
        for m in range(2, 13):
            for b in OFFSETS:
                for v in OFFSETS:
                    kx, ky = v[0] - n * b[0], v[1] - m * b[1]
                    in_range = abs(kx) <= n - 1 and abs(ky) <= m - 1
                    assert in_range == (v in MOVES[b]), (n, m, b, v)


def test_the_filtered_index_keeps_every_read_pair_and_the_same_automaton():
    rng = random.Random(20261020)
    seen = {"n2": 0, "m2": 0, "dropped": 0, "states": set()}
    for _ in range(1500):
        spec = random_small_carpet(rng)
        index = difference_index(spec)
        full = reference_difference_index(spec)
        for b in OFFSETS:
            for v in OFFSETS:
                key = (v[0] - spec.n * b[0], v[1] - spec.m * b[1])
                assert index.get(key, []) == full.get(key, []), (spec, b, v)
        assert all(admissible(spec, key) for key in index), spec
        assert all(full[key] == pairs for key, pairs in index.items())
        survivors = build_oracle(spec).survivors
        assert survivors == reference_survivors(spec, full), spec
        M = build_topology_automaton(spec)
        delta, states = reference_delta(spec)
        assert list(M.delta.items()) == list(delta.items()), spec
        assert M.states == states
        assert SigmaAutomaton(M.alphabet_size, M.states, M.delta) == M, spec
        seen["n2"] += spec.n == 2
        seen["m2"] += spec.m == 2
        seen["dropped"] += len(full) > len(index)
        seen["states"].add(len(states))
    assert min(seen["n2"], seen["m2"]) >= 300 and seen["dropped"] >= 1000, seen
    assert seen["states"] == {2, 4, 6, 8, 10}, seen  # Id, Exit and 0-8 offsets


def raster_cells(spec, depth):
    """Every depth-k cell (x, y) of the n^k by m^k grid, one per word of k digits."""
    cells = [(0, 0)]
    for _ in range(depth):
        cells = [(spec.n * x + d1, spec.m * y + d2) for x, y in cells for d1, d2 in spec.digits]
    return cells


def brute_raster_gaps(spec, depth):
    """raster_gap of every nonzero offset b, from the explicit cells of K.

    A cell c lies in K + b when c - shift lies in K, with shift = (b_x n^k,
    b_y m^k).  For an axis offset the gap is the least distance along the
    other axis between a cell of K and a cell of K + b in adjacent columns
    (b = ±e1) or rows (b = ±e2); for a diagonal one it is 1 when a cell of
    K and a cell of K + b meet at a corner.  Either is -1 when no such
    pair of cells exists.
    """
    cells = raster_cells(spec, depth)
    lines = [{}, {}]  # lines[axis][v]: the other coordinates of K's cells with c[axis] == v
    for c in cells:
        for axis in (0, 1):
            lines[axis].setdefault(c[axis], []).append(c[1 - axis])
    # (x, y) -> x R + y, one integer that tells apart any two cells whose
    # y differ by less than R
    R = 4 * spec.m**depth
    keys = np.array([x * R + y for x, y in cells])
    gaps = {}
    for b in OFFSETS:
        sx, sy = b[0] * spec.n**depth, b[1] * spec.m**depth
        if b[0] and b[1]:
            meet = any(np.isin(keys + ((dx - sx) * R + dy - sy), keys).any()
                       for dx in (-1, 1) for dy in (-1, 1))
            gaps[b] = 1 if meet else -1
        elif b != (0, 0):
            axis, s = (0, sx) if b[0] else (1, sy)
            facing = [(mine, lines[axis][v + step - s]) for v, mine in lines[axis].items()
                      for step in (-1, 1) if v + step - s in lines[axis]]
            gaps[b] = min((abs(u - w) for mine, other in facing for u in mine for w in other),
                          default=-1)
    return gaps


def test_raster_gap_matches_the_explicit_rasterization():
    rng = random.Random(9)
    values = set()
    for _ in range(200):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        cells = [(a, b) for a in range(n) for b in range(m)]
        spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(1, len(cells)))))
        for depth in (1, 2, 3, 4):
            for b, gap in brute_raster_gaps(spec, depth).items():
                assert raster_gap(spec, b, depth) == gap, (spec, b, depth)
                values.add(gap)
    assert {-1, 0, 1, 2} <= values


def array_edge_coords(spec, axis, far, depth):
    """Sorted cross-axis coordinates of the depth-k cells on one edge.

    The far edge of axis 0 is the rightmost column, its near edge the
    leftmost; for axis 1 the top and bottom rows.  Every coordinate is
    built, |edge digits|^depth of them.
    """
    size, base = (spec.n, spec.m) if axis == 0 else (spec.m, spec.n)
    end = size - 1 if far else 0
    coords = np.array([0], dtype=np.int64)
    digits = np.array(sorted(d[1 - axis] for d in spec.digits if d[axis] == end), dtype=np.int64)
    for _ in range(depth):
        if digits.size == 0:
            return np.array([], dtype=np.int64)
        # coords stay sorted and distinct: the digits are, and lie below base
        coords = (base * coords[:, None] + digits[None, :]).ravel()
    return coords


def array_edge_gap(spec, axis, depth):
    """Least |far - near| over all edge coordinates, by binary search of
    each far coordinate among the near ones; -1 when an edge is empty."""
    a = array_edge_coords(spec, axis, True, depth)
    b = array_edge_coords(spec, axis, False, depth)
    if a.size == 0 or b.size == 0:
        return -1
    idx = np.searchsorted(b, a)
    return int(min(np.abs(a - b[np.clip(idx + shift, 0, b.size - 1)]).min() for shift in (-1, 0)))


def test_raster_gap_matches_the_array_of_every_edge_cell():
    """The digit recursion against the coordinates of every edge cell, on
    1000 carpets up to 8x8 at depths 1-9, skipping only an edge of more
    than 2^18 cells."""
    rng = random.Random(10)
    compared = skipped = 0
    values = set()
    for _ in range(1000):
        n = rng.randint(2, 8)
        m = rng.randint(2, 8)
        cells = [(a, b) for a in range(n) for b in range(m)]
        spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(1, len(cells)))))
        for axis, b in ((0, (1, 0)), (1, (0, 1))):
            size = (n, m)[axis]
            widest = max(sum(d[axis] == end for d in spec.digits) for end in (0, size - 1))
            for depth in range(1, 10):
                if widest**depth > 2**18:
                    skipped += 1
                    continue
                gap = array_edge_gap(spec, axis, depth)
                assert raster_gap(spec, b, depth) == gap, (spec, axis, depth)
                assert raster_gap(spec, (-b[0], -b[1]), depth) == gap, (spec, axis, depth)
                values.add(min(gap, 2))
                compared += 1
    assert compared > 10_000 and skipped > 0
    assert values == {-1, 0, 1, 2}


def test_raster_gap_refuses_a_depth_below_one():
    # on #.#/.#./#.# depths 0 and -1 used to read as touching
    spec = CarpetSpec(3, 3, ((0, 0), (2, 0), (1, 1), (0, 2), (2, 2)))
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be positive"):
            raster_gap(spec, (1, 0), depth)
        with pytest.raises(ValueError, match="depth must be positive"):
            raster_overlap(spec, (1, 0), depth)


def test_raster_gap_refuses_an_offset_outside_the_nine():
    # on #.#/.#./#.# the offset (2, 0) used to give the gap of (1, 0)
    spec = CarpetSpec(3, 3, ((0, 0), (2, 0), (1, 1), (0, 2), (2, 2)))
    for b in ((2, 0), (0, -2), (1, 1, 0), (1,)):
        with pytest.raises(ValueError, match="not one of the nine unit offsets"):
            raster_gap(spec, b, 3)
        with pytest.raises(ValueError, match="not one of the nine unit offsets"):
            raster_overlap(spec, b, 3)
    assert raster_gap(spec, (0, 0), 3) == 0


def test_chain_survivors_leaves_no_garbage():
    spec = CarpetSpec(3, 3, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 2)))
    gc.collect()
    gc.disable()
    try:
        survivors = chain_survivors(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert survivors == build_oracle(spec).survivors


def test_project_exact_corner():
    spec = SQUARE_TOP_5
    # the word staying in the bottom-left cell projects to the origin
    (px, py), err = project(spec, PeriodicWord.constant(1), depth=12)
    assert (px, py) == (0, 0)
    assert err < 1e-5


def test_project_uses_exact_ratios():
    spec = CarpetSpec(
        2, 2, ((0, 0), (1, 1)),
        hratios=(Fraction(1, 3), Fraction(2, 3)),
        vratios=(Fraction(1, 2), Fraction(1, 2)),
    )
    # first letter 2 = cell (1,1): x starts at 1/3, y at 1/2
    (px, py), _ = project(spec, PeriodicWord.constant(2), depth=1)
    assert px == Fraction(1, 3)
    assert py == Fraction(1, 2)


def project_reference(spec, word, depth):
    """The sum of products in Fractions, as `project` computed it before."""
    hr = spec.horizontal_ratios()
    vr = spec.vertical_ratios()
    hleft = [sum(hr[:k], Fraction(0)) for k in range(len(hr))]
    vleft = [sum(vr[:k], Fraction(0)) for k in range(len(vr))]
    px = py = Fraction(0)
    wx = wy = Fraction(1)
    for k in range(1, depth + 1):
        d1, d2 = spec.digits[word.letter(k) - 1]
        px += wx * hleft[d1]
        py += wy * vleft[d2]
        wx *= hr[d1]
        wy *= vr[d2]
    rstar = max(max(hr), max(vr))
    return (px, py), float(rstar) ** depth


def random_ratios(rng, count):
    """`count` positive Fractions summing to 1, over mixed denominators."""
    parts = [Fraction(rng.randint(1, 9), rng.choice((2, 3, 5, 7, 11))) for _ in range(count)]
    total = sum(parts)
    return tuple(r / total for r in parts)


def test_project_matches_the_fraction_reference():
    rng = random.Random(11)
    ratio_bearing = 0
    for trial in range(40):
        n = rng.randint(2, 8)
        m = rng.randint(2, 8)
        cells = [(a, b) for a in range(n) for b in range(m)]
        digits = tuple(rng.sample(cells, rng.randint(1, len(cells))))
        if trial % 2:
            while True:
                hr, vr = random_ratios(rng, n), random_ratios(rng, m)
                if len({r.denominator for r in hr + vr}) > 1:
                    break
            spec = CarpetSpec(n, m, digits, hratios=hr, vratios=vr)
            ratio_bearing += 1
        else:
            spec = CarpetSpec(n, m, digits)
        for _ in range(5):
            word = random_word(rng, len(spec.digits))
            for depth in (1, rng.randint(2, 59), 60):
                assert project(spec, word, depth) == project_reference(spec, word, depth), (
                    spec, word, depth)
    assert ratio_bearing == 20


def reference_corner(spec):
    """The corner map as `projector` built it before the closed form:
    tables in Fraction arithmetic, then a letter-by-letter fold over the
    first `depth` letters, returned with the denominators and the error
    bound."""

    def scaled(ratios):
        D = math.lcm(*(r.denominator for r in ratios))
        lefts = [sum(ratios[:k], Fraction(0)) for k in range(len(ratios))]
        return D, [int(r * D) for r in ratios], [int(x * D) for x in lefts]

    dx, ax, bx = scaled(spec.horizontal_ratios())
    dy, ay, by = scaled(spec.vertical_ratios())
    rstar = float(max(spec.horizontal_ratios() + spec.vertical_ratios()))

    def corner(word, depth):
        sx = sy = 0
        wx = wy = 1
        for letter in word.prefix(depth):
            d1, d2 = spec.digits[letter - 1]
            sx = sx * dx + wx * bx[d1]
            sy = sy * dy + wy * by[d2]
            wx *= ax[d1]
            wy *= ay[d2]
        return (sx, sy), (dx**depth, dy**depth), rstar**depth

    return corner


def test_projector_matches_the_letter_by_letter_fold():
    """1000 seeded carpets up to 7x7, three in four with random ratios,
    at four depths from 1-3, 4-6, 7-20 and 21-33, on words with
    preperiods of 0-6 and periods of 1-5 letters; some depths end
    within the preperiod."""
    rng = random.Random(19)
    within = ratio_bearing = 0
    for trial in range(1000):
        n = rng.randint(2, 7)
        m = rng.randint(2, 7)
        cells = [(a, b) for a in range(n) for b in range(m)]
        digits = tuple(rng.sample(cells, rng.randint(1, len(cells))))
        if trial % 4:
            spec = CarpetSpec(n, m, digits, hratios=random_ratios(rng, n),
                              vratios=random_ratios(rng, m))
            ratio_bearing += 1
        else:
            spec = CarpetSpec(n, m, digits)
        N = len(spec.digits)
        reference = reference_corner(spec)
        for low, high in ((1, 3), (4, 6), (7, 20), (21, 33)):
            depth = rng.randint(low, high)
            corner, denominators, err = projector(spec, depth)
            for _ in range(3):
                word = PeriodicWord([rng.randint(1, N) for _ in range(rng.randint(0, 6))],
                                    [rng.randint(1, N) for _ in range(rng.randint(1, 5))])
                assert (corner(word), denominators, err) == reference(word, depth), (
                    spec, word, depth)
                within += depth <= len(word.preperiod)
    assert ratio_bearing == 750 and within > 1000


def test_project_rejects_letters_outside_the_alphabet():
    spec = CarpetSpec(3, 3, ((0, 0), (2, 0), (1, 1), (0, 2), (2, 2)))  # #.#/.#./#.#
    for word in (PeriodicWord.constant(9), PeriodicWord((2, 6), (1,))):
        with pytest.raises(ValueError, match=r"outside the alphabet 1\.\.5"):
            project(spec, word, 4)
    # a letter below 1 lies in no alphabet: the word itself refuses it
    with pytest.raises(ValueError, match="letter 0 below 1 in a word"):
        project(spec, PeriodicWord.constant(0), 4)


def test_cylinder_rects_partition_measure():
    spec = SQUARE_TOP_5
    rects = cylinder_rects(spec, 2)
    assert len(rects) == 25
    total = sum(w * h for _, _, w, h in rects)
    assert total == Fraction(25, 81)


def test_cylinder_rects_cap():
    with pytest.raises(ValueError):
        cylinder_rects(full_square(4), 12)


def test_render_svg_shape():
    svg = render_svg(SQUARE_TOP_5, depth=2, size=256)
    assert svg.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg
    assert svg.count("<rect") == 25 + 1  # cells plus background
    assert svg.rstrip().endswith("</svg>")

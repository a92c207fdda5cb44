import gc
import random
from fractions import Fraction

import numpy as np
import pytest

from carpetauto.automaton import random_word
from carpetauto.carpet import CarpetSpec
from carpetauto.geometry import (
    OFFSETS,
    build_oracle,
    chain_survivors,
    cylinder_rects,
    project,
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
    # a depth-9 raster of an 8x8 carpet is too large, so only the chain
    # enumeration, which loops over digit pairs directly, is compared
    rng = random.Random(8)
    sizes = set()
    for _ in range(300):
        n = rng.randint(2, 8)
        m = rng.randint(2, 8)
        cells = [(a, b) for a in range(n) for b in range(m)]
        spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(1, len(cells)))))
        survivors = build_oracle(spec).survivors
        assert survivors == chain_survivors(spec), spec
        sizes.add(len(survivors))
    assert sizes == {1, 3, 5, 7, 9}  # every odd survivor count occurs


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


def test_project_rejects_letters_outside_the_alphabet():
    spec = CarpetSpec(3, 3, ((0, 0), (2, 0), (1, 1), (0, 2), (2, 2)))  # #.#/.#./#.#
    for word in (PeriodicWord.constant(0), PeriodicWord.constant(9), PeriodicWord((2, 6), (1,))):
        with pytest.raises(ValueError, match=r"outside the alphabet 1\.\.5"):
            project(spec, word, 4)


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

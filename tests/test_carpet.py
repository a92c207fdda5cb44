import json
import random
from fractions import Fraction

import pytest

from carpetauto.carpet import (
    CarpetError,
    CarpetSpec,
    HBlock,
    check_conditions,
    digit_letter,
    h_blocks,
    parse_carpet,
    profile,
)
from carpetauto.geometry import build_oracle

from conftest import SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11, VSEP_11


def test_digits_are_canonically_ordered():
    spec = CarpetSpec(3, 3, ((1, 2), (0, 0), (2, 0)))
    assert spec.digits == ((0, 0), (2, 0), (1, 2))
    assert digit_letter(spec, (2, 0)) == 2


def test_validation_errors():
    with pytest.raises(CarpetError):
        CarpetSpec(1, 3, ((0, 0),))
    with pytest.raises(CarpetError):
        CarpetSpec(3, 3, ())
    with pytest.raises(CarpetError):
        CarpetSpec(3, 3, ((0, 0), (0, 0)))
    with pytest.raises(CarpetError):
        CarpetSpec(3, 3, ((3, 0),))
    with pytest.raises(CarpetError):
        CarpetSpec(2, 2, ((0, 0),), hratios=(Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(CarpetError):
        CarpetSpec(2, 2, ((0, 0),), hratios=(Fraction(1, 2),))


def test_companion_drops_ratios():
    spec = CarpetSpec(
        2, 2, ((0, 0), (1, 1)),
        hratios=(Fraction(1, 3), Fraction(2, 3)),
    )
    assert not spec.is_uniform()
    comp = spec.companion()
    assert comp.is_uniform()
    assert comp.digits == spec.digits
    assert spec.horizontal_ratios() == (Fraction(1, 3), Fraction(2, 3))
    assert comp.horizontal_ratios() == (Fraction(1, 2), Fraction(1, 2))


def test_fractal_square_flags():
    assert SQUARE_TOP_5.is_fractal_square()
    assert not VSEP_11.is_fractal_square()
    assert VSEP_11.is_uniform()


def test_grid_round_trip():
    grid = "..#\n#..\n#.#"
    spec = parse_carpet(grid)
    assert spec.to_grid() == grid
    assert parse_carpet(spec.to_json()) == spec


def test_json_ratios_round_trip():
    spec = CarpetSpec(
        2, 2, ((0, 0), (1, 1)),
        hratios=(Fraction(1, 3), Fraction(2, 3)),
        vratios=(Fraction(1, 4), Fraction(3, 4)),
    )
    again = parse_carpet(spec.to_json())
    assert again == spec


def test_json_digits_must_be_integers():
    base = {"n": 3, "m": 3}
    for digits in ([[0.7, 0], [1, 1.2], [True, 2]], [[0, 0], [1, "2"]], [[0, False]]):
        with pytest.raises(CarpetError, match="field 'digits': expected an integer"):
            parse_carpet(json.dumps({**base, "digits": digits}))
    assert parse_carpet(json.dumps({**base, "digits": [[1, 2], [0, 0]]})).digits == ((0, 0), (1, 2))


def test_constructor_refuses_digits_that_are_not_integers():
    # int() used to read the digit (0.7, 0) as (0, 0)
    for digits in (((0.7, 0), (2.2, 2.9)), ((0, 0), ("1", 2)), ((1, 1), (True, 0))):
        with pytest.raises(CarpetError, match="is not a pair of integers"):
            CarpetSpec(3, 3, digits)
    assert CarpetSpec(3, 3, ([1, 2], (0, 0))).digits == ((0, 0), (1, 2))


def test_parse_grid_errors():
    with pytest.raises(CarpetError):
        parse_carpet("#.\n#")
    with pytest.raises(CarpetError):
        parse_carpet("#x#")
    with pytest.raises(CarpetError):
        parse_carpet("{not json")


def reference_adjacency(spec):
    """Unordered letter pairs {i, j} whose first-order cylinders touch, by
    the loop over digit pairs: the digit offset d_j - d_i is a nonzero
    unit offset that the oracle of the companion affirms."""
    oracle = build_oracle(spec.companion())
    pairs = set()
    for i, di in enumerate(spec.digits, start=1):
        for j, dj in enumerate(spec.digits, start=1):
            off = (dj[0] - di[0], dj[1] - di[1])
            if j > i and max(map(abs, off)) <= 1 and oracle.intersects(off):
                pairs.add(frozenset((i, j)))
    return pairs


def reference_conditions(spec):
    """(cross intersection, vertical separation, top isolated, top letter)
    read from the digit-pair adjacency."""
    adjacency = reference_adjacency(spec)
    offsets = []
    for pair in adjacency:
        i, j = sorted(pair)
        (a1, a2), (b1, b2) = spec.digits[i - 1], spec.digits[j - 1]
        offsets.append((b1 - a1, b2 - a2))
    top = [i for i, d in enumerate(spec.digits, start=1) if d[1] == spec.m - 1]
    isolated = len(top) == 1 and not any(top[0] in p for p in adjacency)
    return (
        all(dx == 0 or dy == 0 for dx, dy in offsets),
        all(dy == 0 for _, dy in offsets),
        isolated,
        top[0] if isolated else None,
    )


def test_adjacency_of_plus_shape():
    spec = parse_carpet(".#.\n###\n.#.")
    pairs = reference_adjacency(spec)
    center = digit_letter(spec, (1, 1))
    # the center touches all four arms; arms touch only the center
    assert len(pairs) == 4
    assert all(center in p for p in pairs)
    rep = check_conditions(spec)
    assert rep.cross_intersection and not rep.vertical_separation
    assert not rep.top_isolated and rep.top_letter is None


def random_ratios(rng, count):
    weights = [rng.randint(1, 4) for _ in range(count)]
    return tuple(Fraction(w, sum(weights)) for w in weights)


def test_conditions_match_the_digit_pair_adjacency_on_random_carpets():
    rng = random.Random(20261018)
    kinds = {"ratios": 0, "notCross": 0}
    for _ in range(300):
        n, m = rng.randint(2, 8), rng.randint(2, 8)
        cells = [(a, b) for a in range(n) for b in range(m)]
        digits = tuple(rng.sample(cells, rng.randint(1, len(cells))))
        spec = CarpetSpec(n, m, digits)
        if rng.random() < 1 / 3:
            kinds["ratios"] += 1
            spec = CarpetSpec(n, m, digits, random_ratios(rng, n), random_ratios(rng, m))
        rep = check_conditions(spec)
        got = (rep.cross_intersection, rep.vertical_separation, rep.top_isolated, rep.top_letter)
        assert got == reference_conditions(spec), spec
        kinds["notCross"] += not rep.cross_intersection
    assert min(kinds.values()) >= 50, kinds


def test_conditions_on_fixtures():
    rep = check_conditions(SQUARE_TOP_5)
    assert rep.top_isolated and rep.cross_intersection
    assert not rep.vertical_separation
    assert rep.top_letter == digit_letter(SQUARE_TOP_5, (1, 2))

    rep = check_conditions(SQUARE_VSEP_5)
    assert rep.vertical_separation and rep.cross_intersection

    rep = check_conditions(TOP_ISOLATED_11)
    assert rep.top_isolated and not rep.vertical_separation

    rep = check_conditions(VSEP_11)
    assert rep.vertical_separation and not rep.top_isolated


def test_corner_contact_breaks_cross_intersection():
    spec = parse_carpet("#.#\n###\n#.#")
    assert not check_conditions(spec).cross_intersection


def test_h_blocks_kinds_and_sizes():
    blocks = h_blocks(TOP_ISOLATED_11)
    by_row = {}
    for b in blocks:
        by_row.setdefault(b.row, []).append(b)
    assert [b.kind for b in by_row[0]] == ["Full"]
    assert sorted(b.kind for b in by_row[1]) == ["Left", "Right"]
    assert [b.size for b in by_row[2]] == [2]
    assert by_row[3][0].kind == "Interior"
    assert by_row[4][0].size == 1


def reference_h_blocks(spec):
    """The per-row scan `h_blocks` made before its one pass: every digit
    scanned and the columns sorted once per row."""
    by_cell = {d: i for i, d in enumerate(spec.digits, start=1)}
    blocks = []
    for row in range(spec.m):
        cols = sorted(c for c, r in spec.digits if r == row)
        run = []
        for c in cols + [None]:
            if run and (c is None or c != run[-1] + 1):
                columns = tuple(run)
                if len(columns) == spec.n:
                    kind = "Full"
                elif columns[0] == 0:
                    kind = "Left"
                elif columns[-1] == spec.n - 1:
                    kind = "Right"
                else:
                    kind = "Interior"
                blocks.append(HBlock(row, columns, tuple(by_cell[(col, row)] for col in columns), kind))
                run = []
            if c is not None:
                run.append(c)
    return blocks


def test_h_blocks_and_fiber_match_the_per_row_scan():
    rng = random.Random(20261020)
    kinds = set()
    for _ in range(500):
        n, m = rng.randint(2, 9), rng.randint(2, 9)
        cells = [(a, b) for a in range(n) for b in range(m)]
        spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(1, len(cells)))))
        blocks = h_blocks(spec)
        assert blocks == reference_h_blocks(spec), spec
        fiber = tuple(sum(1 for d in spec.digits if d[1] == row) for row in range(spec.m))
        assert profile(spec).fiber == fiber
        kinds.update(b.kind for b in blocks)
    assert kinds == {"Full", "Left", "Right", "Interior"}


def test_block_letters_follow_columns():
    (block,) = [b for b in h_blocks(TOP_ISOLATED_11) if b.kind == "Full"]
    assert block.letters == (1, 2, 3, 4, 5)
    assert block.columns == (0, 1, 2, 3, 4)


def test_profiles_of_equivalent_fixtures_match():
    pe = profile(TOP_ISOLATED_11)
    pf = profile(VSEP_11)
    assert pe.block_sizes == pf.block_sizes == (1, 1, 1, 1, 2, 5)
    assert pe.pair_sizes == pf.pair_sizes == ((1, 1),)
    assert pe.fiber != pf.fiber  # fibers may differ, only blocks must match


def test_profile_of_small_squares():
    for spec in (SQUARE_TOP_5, SQUARE_VSEP_5):
        p = profile(spec)
        assert p.block_sizes == (1, 1, 3)
        assert p.pair_sizes == ()


def test_profile_json_shape():
    d = profile(SQUARE_TOP_5).to_dict()
    assert json.dumps(d)
    assert set(d) == {"blockSizes", "pairSizes", "fiber"}


def test_size_bound():
    assert CarpetSpec(255, 2, tuple((a, 0) for a in range(255))).alphabet_size == 255
    assert CarpetSpec(2, 255, ((0, 0),)).m == 255
    with pytest.raises(CarpetError, match="256 digits exceed the 255 letters"):
        CarpetSpec(128, 2, tuple((a, b) for a in range(128) for b in range(2)))
    with pytest.raises(CarpetError, match="256 digits exceed the 255 letters"):
        CarpetSpec(16, 16, tuple((a, b) for a in range(16) for b in range(16)))
    for n, m in ((256, 2), (2, 256)):
        with pytest.raises(CarpetError, match="at most 255"):
            CarpetSpec(n, m, ((0, 0),))

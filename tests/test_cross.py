import itertools
import random
from collections import Counter

import pytest

from carpetauto.automaton import (
    ID,
    build_topology_automaton,
    is_infinite,
    mirror_check,
    surviving_time,
)
from carpetauto.cross import (
    Classification,
    CrossAutomaton,
    CrossAutomatonError,
    DiagonalStatePresent,
    check_uniqueness,
    classify,
    cross_from_json,
    decide_triple_coding_free,
    from_topology_automaton,
    has_cycle,
    touches,
    validate,
)
from carpetauto.carpet import CarpetSpec, parse_carpet
from carpetauto.words import PeriodicWord

from conftest import (
    CARPET_8,
    CHAIN2_CARPET,
    EXTENDED_9,
    SQUARE_TOP_5,
    SQUARE_VSEP_5,
    TOP_ISOLATED_11,
    VSEP_11,
)
from test_carpet import reference_conditions


def test_constructor_rejects_bad_relations():
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 1)}, set(), set(), set())  # reflexive entry
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 2)}, {(1, 2)}, set(), set())  # PH/PV overlap
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 2), (2, 1)}, set(), set(), set())  # transpose
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 4)}, set(), set(), set())  # out of range


def test_json_round_trip():
    again = cross_from_json(CARPET_8.to_json())
    assert again == CARPET_8


def test_induced_automaton_mirrors_relations():
    M = CARPET_8.induced_automaton()
    assert M.step(ID, 1, 2) == (1, 0)
    assert M.step(ID, 2, 1) == (-1, 0)
    assert M.step((1, 0), 5, 1) == (1, 0)
    assert M.step((-1, 0), 1, 5) == (-1, 0)
    assert M.step(ID, 7, 6) == (0, 1)
    assert M.step((0, 1), 8, 7) == (0, 1)
    assert mirror_check(CARPET_8.induced_automaton())


def test_extraction_round_trip_from_carpets():
    for spec in (SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11, VSEP_11):
        M = build_topology_automaton(spec)
        C = from_topology_automaton(M)
        assert C.induced_automaton().delta.keys() >= M.delta.keys()
        # rebuilding from the relations reproduces the original table
        assert {k: v for k, v in C.induced_automaton().delta.items() if k in M.delta} == M.delta


def test_diagonal_state_raises():
    spec = parse_carpet("#.#\n###\n#.#")
    with pytest.raises(DiagonalStatePresent):
        from_topology_automaton(build_topology_automaton(spec))


def test_uniqueness_detects_double_successor():
    C = CrossAutomaton(4, {(1, 2), (1, 3)}, set(), set(), set())
    problems = check_uniqueness(C)
    assert ("H", "two successors", 1) in problems


def test_carpet_8_is_a_cross_automaton():
    validate(CARPET_8)
    ok, witness = decide_triple_coding_free(CARPET_8)
    assert ok and witness is None


def test_extended_9_has_a_triple_coding():
    ok, witness = decide_triple_coding_free(EXTENDED_9)
    assert not ok
    x, y, z = witness
    M = EXTENDED_9.induced_automaton()
    times = [
        surviving_time(M, x, y),
        surviving_time(M, x, z),
        surviving_time(M, y, z),
    ]
    assert sum(1 for t in times if is_infinite(t)) >= 2
    assert len({x, y, z}) == 3
    with pytest.raises(CrossAutomatonError):
        validate(EXTENDED_9)


def test_triple_coding_decision_matches_word_enumeration():
    # exhaustive witness search over short eventually-constant words
    def brute(C, max_pre=2):
        M = C.induced_automaton()
        words = [
            PeriodicWord(pre, (c,))
            for k in range(max_pre + 1)
            for pre in itertools.product(range(1, C.alphabet_size + 1), repeat=k)
            for c in range(1, C.alphabet_size + 1)
        ]
        words = sorted(set(words), key=str)
        infinite = {
            (a, b): is_infinite(surviving_time(M, a, b))
            for a, b in itertools.combinations(words, 2)
        }
        for x, y, z in itertools.combinations(words, 3):
            inf = infinite[(x, y)] + infinite[(x, z)] + infinite[(y, z)]
            if inf >= 2:
                return False
        return True

    def random_cross(rng):
        while True:
            N = rng.randint(2, 4)
            pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
            try:
                return CrossAutomaton(N, *(set(rng.sample(pairs, rng.randint(0, N)))
                                           for _ in range(4)))
            except CrossAutomatonError:
                continue

    small_free = CrossAutomaton(3, {(1, 2)}, set(), {(2, 1)}, set())
    small_coded = CrossAutomaton(3, {(1, 2), (2, 3)}, set(), {(2, 1)}, set())
    rng = random.Random(4)
    samples = [small_free, small_coded] + [random_cross(rng) for _ in range(10)]
    verdicts = [decide_triple_coding_free(C)[0] for C in samples]
    assert verdicts == [brute(C) for C in samples]
    assert True in verdicts[2:] and False in verdicts[2:]


def test_touches_and_has_cycle():
    # CARPET_8's H relation: 1 -> ... -> 5 is a path, 8 lies on no edge
    assert touches(CARPET_8.PH, 1) and touches(CARPET_8.PH, 5)
    assert not touches(CARPET_8.PH, 8)
    assert not touches(frozenset(), 1)
    assert not has_cycle(CARPET_8.PH)
    assert not has_cycle(frozenset())
    assert not has_cycle({(1, 2), (2, 3), (1, 3), (4, 3)})
    assert has_cycle({(1, 2), (2, 3), (3, 1)})
    assert has_cycle({(4, 1), (1, 2), (2, 1)})
    assert has_cycle({(3, 3)})


def test_classify_class0():
    C = from_topology_automaton(build_topology_automaton(SQUARE_VSEP_5))
    assert not C.PV
    assert classify(C).kind == "Class0"


def test_classify_class1_requires_origin():
    M = build_topology_automaton(SQUARE_TOP_5)
    C = from_topology_automaton(M)
    assert classify(C).kind == "Class2"
    got = classify(C, origin=SQUARE_TOP_5)
    assert got.kind == "Class1"
    assert got.top is not None and got.bottom is not None


def test_classify_chain2_fixture():
    C = from_topology_automaton(build_topology_automaton(CHAIN2_CARPET))
    got = classify(C, origin=CHAIN2_CARPET)
    assert got.kind == "Class1"
    assert len(C.PV) == 2


def class12_carpet(rng):
    """A random carpet of at most 6x6 biased towards Class 1 and 2: one
    top cell above a bottom cell, random fill below, and often a second
    top cell."""
    n, m = rng.randint(2, 6), rng.randint(2, 6)
    c = rng.randrange(n)
    cells = {(c, m - 1), (c, 0)}
    fill = 0.6 * rng.random()
    cells |= {(x, y) for y in range(m - 1) for x in range(n) if rng.random() < fill}
    if rng.random() < 0.6:
        cells.add((rng.randrange(n), m - 1))
    return CarpetSpec(n, m, tuple(cells))


def test_class1_rule_matches_the_conditions_and_the_rebuild():
    """Reference: a Class 2 automaton with an origin is Class 1 when the
    origin is top isolated, cross intersecting and not vertically
    separated by the digit-pair adjacency, and the cross automaton
    rebuilt from the origin is C."""
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(2000):
        spec = class12_carpet(rng)
        try:
            C = from_topology_automaton(build_topology_automaton(spec))
        except DiagonalStatePresent:
            continue
        expected = classify(C)
        cross, vertical, isolated, _ = reference_conditions(spec)
        if (
            expected.kind == "Class2"
            and isolated and cross and not vertical
            and from_topology_automaton(build_topology_automaton(spec)) == C
        ):
            expected = Classification("Class1", top=expected.top, bottom=expected.bottom)
        got = classify(C, origin=spec)
        assert got == expected, spec
        kinds[got.kind] += 1
    assert kinds["Class1"] >= 50 and kinds["Class2"] >= 50, kinds


def test_classify_unclassified_reasons():
    # two bottom loops at e2
    C = CrossAutomaton(4, set(), {(1, 2)}, set(), {(3, 2), (4, 2)})
    assert check_uniqueness(C)  # also fails uniqueness, but classify is local
    assert classify(C).kind == "Unclassified"
    # top vertex participates in PH
    C = CrossAutomaton(4, {(3, 4)}, {(1, 2)}, set(), {(3, 2)})
    got = classify(C)
    assert got.kind == "Unclassified"
    assert "not isolated" in got.reason


def test_alphabet_bound():
    assert CrossAutomaton(255, {(1, 255)}, set(), set(), set()).alphabet_size == 255
    with pytest.raises(CrossAutomatonError, match="256 letters exceeds 255"):
        CrossAutomaton(256, {(1, 256)}, set(), set(), set())

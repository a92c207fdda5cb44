import random

import pytest

from carpetauto.automaton import (
    EXIT,
    ID,
    INFINITE,
    AutomatonError,
    SigmaAutomaton,
    build_topology_automaton,
    check_feasibility,
    decide_feasibility,
    from_json,
    is_infinite,
    mirror_check,
    neg,
    random_word,
    state_from_name,
    state_name,
    surviving_time,
    to_dot,
    to_json,
)
from carpetauto.carpet import CarpetError, CarpetSpec
from carpetauto.cli import random_carpet
from carpetauto.fastsim import check_feasibility_matrix, time_matrix
from carpetauto.geometry import chain_survivors
from carpetauto.words import PeriodicWord, parse_word

from conftest import (
    CARPET_8,
    EXTENDED_9,
    SQUARE_TOP_5,
    SQUARE_VSEP_5,
    TOP_ISOLATED_11,
    VSEP_11,
)


def test_state_names_round_trip():
    for s in (ID, EXIT, (1, 0), (-1, 1), (0, -1), (1, 1)):
        assert state_from_name(state_name(s)) == s
    with pytest.raises(ValueError):
        state_from_name("e3")


def test_neg_is_an_involution():
    for s in (ID, EXIT, (1, 0), (-1, 1)):
        assert neg(neg(s)) == s


def test_infinite_is_a_singleton_tag():
    assert is_infinite(INFINITE)
    assert not is_infinite(7)
    assert INFINITE == INFINITE
    assert INFINITE != 3


def test_identity_diagonal_is_enforced():
    with pytest.raises(AutomatonError):
        SigmaAutomaton(2, frozenset({ID, EXIT}), {(ID, 1, 1): ID, (ID, 1, 2): ID})


def test_topology_automaton_of_square_fixture():
    M = build_topology_automaton(SQUARE_TOP_5)
    assert M.alphabet_size == 5
    assert (1, 0) in M.states and (-1, 0) in M.states
    assert (1, 1) not in M.states
    # adjacent bottom-row cylinders enter e1 and the shared-column loop holds
    assert M.step(ID, 1, 2) == (1, 0)
    assert M.step(ID, 2, 1) == (-1, 0)


def test_unreachable_states_are_pruned():
    M = build_topology_automaton(SQUARE_VSEP_5)
    for s in M.states:
        if s in (ID, EXIT):
            continue
        assert any(t == s for t in M.delta.values())


def test_surviving_time_values():
    M = build_topology_automaton(SQUARE_TOP_5)
    # identical words never exit
    w = parse_word("1.3(2)")
    assert is_infinite(surviving_time(M, w, w))
    # words with no common structure exit immediately
    t = surviving_time(M, PeriodicWord.constant(1), PeriodicWord.constant(5))
    assert t == 0


def test_surviving_time_matches_brute_force():
    M = build_topology_automaton(SQUARE_TOP_5)
    rng = random.Random(11)
    for _ in range(200):
        x = random_word(rng, 5)
        y = random_word(rng, 5)
        t = surviving_time(M, x, y)
        # brute force: run far beyond the repetition bound
        state = ID
        brute = None
        for k in range(1, 200):
            state = M.step(state, x.letter(k), y.letter(k))
            if state == EXIT:
                brute = k - 1
                break
        if brute is None:
            assert is_infinite(t)
        else:
            assert t == brute


def test_mirror_symmetry_of_carpet_automata():
    for spec in (SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11, VSEP_11):
        assert mirror_check(build_topology_automaton(spec))


def test_mirror_check_rejects_asymmetric_tables():
    E1, NE1 = (1, 0), (-1, 0)
    diagonal = {(ID, 1, 1): ID, (ID, 2, 2): ID}
    axis = frozenset({ID, EXIT, E1, NE1})
    symmetric = {**diagonal, (ID, 1, 2): E1, (ID, 2, 1): NE1}
    assert mirror_check(SigmaAutomaton(2, axis, symmetric))
    missing = {**diagonal, (ID, 1, 2): E1}
    assert not mirror_check(SigmaAutomaton(2, axis, missing))
    wrong_target = {**diagonal, (ID, 1, 2): E1, (ID, 2, 1): E1}
    assert not mirror_check(SigmaAutomaton(2, axis, wrong_target))
    no_negation = frozenset({ID, EXIT, E1})
    assert not mirror_check(SigmaAutomaton(2, no_negation, diagonal))


def test_surviving_time_is_symmetric():
    M = build_topology_automaton(TOP_ISOLATED_11)
    rng = random.Random(5)
    for _ in range(100):
        x = random_word(rng, 11)
        y = random_word(rng, 11)
        assert surviving_time(M, x, y) == surviving_time(M, y, x)


def test_feasibility_holds_on_carpet_automata():
    rng = random.Random(3)
    for spec in (SQUARE_TOP_5, SQUARE_VSEP_5):
        M = build_topology_automaton(spec)
        triples = [
            (random_word(rng, 5), random_word(rng, 5), random_word(rng, 5))
            for _ in range(150)
        ]
        assert check_feasibility(M, 1, triples) == []


def violation_times(M, x, y, z, t0):
    """The times (T(x,y), T(x,z), T(y,z)), asserting that they violate
    min{T(x,y), T(x,z)} <= T(y,z) + t0."""
    times = (surviving_time(M, x, y), surviving_time(M, x, z), surviving_time(M, y, z))
    assert min(times[:2]) > times[2] + t0, (x, y, z, times)
    return times


def test_decide_feasibility_on_the_two_cross_fixtures():
    M = EXTENDED_9.induced_automaton()
    ok, (x, y, z) = decide_feasibility(M, 1)
    assert not ok
    assert (str(x), str(y), str(z)) == ("1.5.5(1)", "1.9(1)", "2(1)")
    assert violation_times(M, x, y, z, 1) == (3, 3, 1)
    assert decide_feasibility(CARPET_8.induced_automaton(), 1) == (True, None)
    with pytest.raises(ValueError):
        decide_feasibility(M, -1)


def test_decide_feasibility_agrees_with_the_time_matrix_count():
    # a pool of every word with a stem of at most two letters; an exact
    # "feasible" must see no violation in it, and an exact witness must
    # violate the bound and, added to the pool, make the count positive
    rng = random.Random(1010)
    verdicts = []
    for _ in range(40):
        spec = random_carpet(rng, max_div=4, max_digits=7)
        M = build_topology_automaton(spec)
        N = spec.alphabet_size
        pool = [((), c) for c in range(1, N + 1)]
        pool += [((a,), c) for a in range(1, N + 1) for c in range(1, N + 1) if a != c]
        pool += [((a, b), c) for a in range(1, N + 1) for b in range(1, N + 1)
                 for c in range(1, N + 1) if b != c]
        for t0 in (0, 1, 2):
            ok, witness = decide_feasibility(M, t0)
            verdicts.append(ok)
            extra = []
            if not ok:
                violation_times(M, *witness, t0)
                extra = [(w.preperiod, w.period[0]) for w in witness]
            T = time_matrix(M, [s for s, _ in pool + extra], [c for _, c in pool + extra])
            assert (check_feasibility_matrix(T, t0) == 0) == ok, (spec, t0)
    assert True in verdicts and False in verdicts


def test_json_round_trip():
    M = build_topology_automaton(SQUARE_TOP_5)
    again = from_json(to_json(M))
    assert again.alphabet_size == M.alphabet_size
    assert again.states == M.states
    assert again.delta == M.delta


def test_dot_output_is_deterministic():
    M = build_topology_automaton(SQUARE_TOP_5)
    a, b = to_dot(M), to_dot(M)
    assert a == b
    assert a.startswith("digraph")
    assert "Exit" not in a
    assert "Exit" in to_dot(M, include_exit=True)


def reference_automaton(spec) -> SigmaAutomaton:
    """The topology automaton by the direct loop over every digit pair
    from every surviving offset, with survivors from `chain_survivors`
    and its own reachability pruning, so it shares no code with
    `build_topology_automaton`."""
    survivors = chain_survivors(spec)
    delta = {}
    for s in [ID] + [b for b in survivors if b != (0, 0)]:
        sx, sy = (0, 0) if s == ID else s
        for i, di in enumerate(spec.digits, start=1):
            for j, dj in enumerate(spec.digits, start=1):
                v = (spec.n * sx + dj[0] - di[0], spec.m * sy + dj[1] - di[1])
                if v == (0, 0):
                    delta[(s, i, j)] = ID
                elif v in survivors:
                    delta[(s, i, j)] = v
    reachable, frontier = {ID}, [ID]
    while frontier:
        src = frontier.pop()
        for (s, _, _), t in delta.items():
            if s == src and t not in reachable:
                reachable.add(t)
                frontier.append(t)
    kept = {k: t for k, t in delta.items() if k[0] in reachable}
    return SigmaAutomaton(len(spec.digits), frozenset(reachable | {EXIT}), kept)


def test_topology_automaton_matches_reference_on_random_carpets():
    rng = random.Random(20261018)
    built = 0
    while built < 200:
        n, m = rng.randint(2, 8), rng.randint(2, 8)
        cells = [(a, b) for a in range(n) for b in range(m)]
        try:
            spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(2, min(40, len(cells))))))
        except CarpetError:
            continue
        built += 1
        M, R = build_topology_automaton(spec), reference_automaton(spec)
        assert M.delta == R.delta and M.states == R.states, spec
        assert to_json(M) == to_json(R)
        assert to_dot(M) == to_dot(R)
        assert to_dot(M, include_exit=True) == to_dot(R, include_exit=True)


def test_alphabet_bound():
    def identity_table(N):
        return SigmaAutomaton(N, frozenset({ID, EXIT}), {(ID, i, i): ID for i in range(1, N + 1)})

    assert identity_table(255).alphabet_size == 255
    with pytest.raises(AutomatonError, match="256 letters exceeds 255"):
        identity_table(256)

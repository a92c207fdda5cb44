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
from carpetauto.geometry import build_oracle, chain_survivors
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
    # .#/../.#: the oracle keeps ±e2, but no letter pair leads Id to them
    unreached = CarpetSpec(2, 3, ((1, 0), (1, 2)))
    e2 = {(0, 1), (0, -1)}
    assert e2 <= build_oracle(unreached.companion()).survivors
    for spec, pruned in ((SQUARE_VSEP_5, set()), (unreached, e2)):
        M = build_topology_automaton(spec)
        assert not pruned & M.states
        reached = {ID}
        while grown := {t for (s, _, _), t in M.delta.items() if s in reached} - reached:
            reached |= grown
        assert M.states - {EXIT} <= reached


def test_surviving_time_values():
    M = build_topology_automaton(SQUARE_TOP_5)
    # identical words never exit
    w = parse_word("1.3(2)")
    assert is_infinite(surviving_time(M, w, w))
    # words with no common structure exit immediately
    t = surviving_time(M, PeriodicWord.constant(1), PeriodicWord.constant(5))
    assert t == 0


def brute_force_time(M, x, y, horizon=1000):
    """Step the pair far beyond the repetition bound."""
    state = ID
    for k in range(1, horizon):
        state = M.step(state, x.letter(k), y.letter(k))
        if state == EXIT:
            return k - 1
    return INFINITE


def test_surviving_time_matches_brute_force():
    M = build_topology_automaton(SQUARE_TOP_5)
    rng = random.Random(11)
    for _ in range(200):
        x = random_word(rng, 5)
        y = random_word(rng, 5)
        assert surviving_time(M, x, y) == brute_force_time(M, x, y)


E1, NE1, E2 = (1, 0), (-1, 0), (0, 1)


def lopsided_automaton() -> SigmaAutomaton:
    """A 3-letter automaton that fails mirror_check.  e1 moves to e2 on
    the input (3,3) and stays on every other, e2 exits on (3,3) and stays
    on every other, and -e1 survives only (1,1) and (2,2).  So T(1.u, 2.v)
    ends at the second step at which both words read 3, often after many
    steps or never, while T(2.v, 1.u) ends early."""
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if (i, j) != (3, 3)]
    delta = {(ID, i, i): ID for i in (1, 2, 3)}
    delta.update({(ID, 1, 2): E1, (ID, 2, 1): NE1, (NE1, 1, 1): NE1, (NE1, 2, 2): NE1,
                  (E1, 3, 3): E2})
    delta.update({(s, i, j): s for s in (E1, E2) for i, j in pairs})
    return SigmaAutomaton(3, frozenset({ID, EXIT, E1, NE1, E2}), delta)


def word_with_period(rng, first, letters, length):
    """first, up to two more letters, then a primitive period of `length`
    letters, all drawn from `letters`."""
    while True:
        pre = (first,) + tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        w = PeriodicWord(pre, tuple(rng.choice(letters) for _ in range(length)))
        if len(w.period) == length:
            return w


def test_surviving_time_matches_brute_force_with_coprime_periods():
    # Periods of 4 and 5 letters repeat jointly only every lcm = 20 steps.
    # On the full 2x2 grid, 1.u against 2.v with u over the right column
    # {2, 4} and v over the left column {1, 3} walks e1, e1+e2 and e1-e2
    # before it exits.  On the lopsided automaton the pair exits at the
    # second joint 3, which may come later than a bound built from the
    # longer period alone, 3 + 5 * |states| + 1, or never.
    full_grid = build_topology_automaton(CarpetSpec(2, 2, ((0, 0), (1, 0), (0, 1), (1, 1))))
    rng = random.Random(45)
    for M, x_letters, y_letters in ((full_grid, (2, 4), (1, 3)),
                                    (lopsided_automaton(), (1, 2, 3), (1, 2, 3))):
        times = []
        for _ in range(300):
            x = word_with_period(rng, 1, x_letters, 4)
            y = word_with_period(rng, 2, y_letters, 5)
            for a, b in ((x, y), (y, x)):
                t = surviving_time(M, a, b)
                assert t == brute_force_time(M, a, b), (a, b)
                times.append(t)
        finite = [t for t in times if not is_infinite(t)]
        assert max(finite) > 5
        if M is not full_grid:
            assert max(finite) > 4 + 5 * len(M.states) and INFINITE in times


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


def cached_check_feasibility(M, t0, triples):
    """Reference: the sampled check with a closure cache keyed by the
    word pair, each pair read with the word of the smaller (preperiod,
    period) first."""
    violations = []
    cache = {}

    def t(a, b):
        key = (a, b) if (a.preperiod, a.period) <= (b.preperiod, b.period) else (b, a)
        if key not in cache:
            cache[key] = surviving_time(M, key[0], key[1])
        return cache[key]

    for x, y, z in triples:
        for apex, u, v in ((x, y, z), (y, x, z), (z, x, y)):
            lhs = min(t(apex, u), t(apex, v))
            rhs = t(u, v)
            if lhs > rhs + t0:
                violations.append((apex, u, v, lhs, rhs))
    return violations


def test_check_feasibility_matches_the_cached_reference():
    rng = random.Random(15)
    nine = EXTENDED_9.induced_automaton()
    witness = tuple(map(parse_word, ("1.5.5(1)", "1.9(1)", "2(1)")))
    assert check_feasibility(nine, 1, [witness]) == [(*witness, 3, 1)]
    lopsided = lopsided_automaton()
    assert not mirror_check(lopsided)
    cases = (
        (nine, [witness] + [tuple(random_word(rng, 9) for _ in range(3)) for _ in range(150)]),
        (lopsided, [tuple(random_word(rng, 3) for _ in range(3)) for _ in range(150)]),
    )
    for M, triples in cases:
        for t0 in (0, 1, 2):
            expected = cached_check_feasibility(M, t0, triples)
            assert check_feasibility(M, t0, triples) == expected, (M, t0)
        assert cached_check_feasibility(M, 0, triples)
    # the lopsided times depend on the pair order, so the order rule is read
    assert any(surviving_time(lopsided, a, b) != surviving_time(lopsided, b, a)
               for x, y, z in cases[1][1] for a, b in ((x, y), (x, z), (y, z)))


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
    for N in (0, -1):
        with pytest.raises(AutomatonError, match=f"N = {N} letters"):
            identity_table(N)

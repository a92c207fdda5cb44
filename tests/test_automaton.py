import json
import random

import pytest

from carpetauto import automaton
from carpetauto.automaton import (
    EXIT,
    ID,
    INFINITE,
    AutomatonError,
    SigmaAutomaton,
    build_topology_automaton,
    check_feasibility,
    decide_feasibility,
    explore,
    from_json,
    infinite_core,
    is_infinite,
    mirror_check,
    neg,
    order_key,
    random_word,
    state_from_name,
    state_name,
    surviving_time,
    to_dot,
    to_json,
)
from carpetauto.carpet import CarpetError, CarpetSpec
from carpetauto.cli import random_carpet
from carpetauto.cross import DiagonalStatePresent, from_topology_automaton
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


def test_the_build_runs_no_constructor_check(monkeypatch):
    """The carpet's table meets every SigmaAutomaton check by construction,
    so build_topology_automaton never runs them again."""
    runs = []
    new = SigmaAutomaton.__new__
    monkeypatch.setattr(SigmaAutomaton, "__new__",
                        lambda cls, *fields: runs.append(fields) or new(cls, *fields))
    M = build_topology_automaton(TOP_ISOLATED_11)
    assert len(M.delta) > M.alphabet_size and runs == []
    assert SigmaAutomaton(M.alphabet_size, M.states, M.delta) == M
    assert len(runs) == 1


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


def test_random_word_draws_the_stream_of_randint():
    """The words and the generator's state after them are those of the
    randint draws that random_word made before, so every seeded pool that
    tests and the benchmark build stays the same."""

    def randint_word(rng, N):
        pre = tuple(rng.randint(1, N) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.randint(1, N) for _ in range(rng.randint(1, 3)))
        return PeriodicWord(pre, per)

    new, old = random.Random(23), random.Random(23)
    for k in range(10_000):
        N = k % 9 + 1
        assert random_word(new, N) == randint_word(old, N), k
    assert new.random() == old.random()


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


# The state names and writers as they were before the one table `STATES`,
# kept as the reference that the table reproduces.
FORMER_NAMES = {(1, 0): "e1", (-1, 0): "-e1", (0, 1): "e2", (0, -1): "-e2",
                (1, 1): "e1+e2", (-1, -1): "-e1-e2", (1, -1): "e1-e2", (-1, 1): "-e1+e2"}


def former_name(state):
    return state if state in (ID, EXIT) else FORMER_NAMES[state]


def former_order_key(state):
    return (0, "") if state == ID else (2, "") if state == EXIT else (1, former_name(state))


def former_tables(M):
    states = sorted(M.states, key=former_order_key)
    return {s: former_name(s) for s in states}, {s: r for r, s in enumerate(states)}


def former_to_dot(M):
    name, rank = former_tables(M)
    lines = ["digraph automaton {", "  rankdir=LR;", '  node [shape=circle];']
    for s, label in name.items():
        if s == EXIT:
            continue
        shape = ' shape=doublecircle' if s == ID else ""
        lines.append(f'  "{label}" [label="{label}"{shape}];')
    edges = {}
    for (s, i, j), t in sorted(M.delta.items(), key=lambda kv: (rank[kv[0][0]], kv[0][1:])):
        if t == EXIT:
            continue
        edges.setdefault((name[s], name[t]), []).append(f"{i},{j}")
    for (src, dst), labels in sorted(edges.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{" | ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines)


def former_to_json(M):
    name, rank = former_tables(M)
    ordered = sorted(M.delta.items(), key=lambda kv: (rank[kv[0][0]], kv[0][1:]))
    delta = {f"{name[s]}|{i},{j}": name[t] for (s, i, j), t in ordered}
    return json.dumps({"N": M.alphabet_size, "states": list(name.values()), "delta": delta})


def test_the_state_table_lists_the_ten_states_by_name_in_the_former_order():
    states = automaton.STATES
    assert list(states) == [former_name(s) for s in sorted(states.values(), key=former_order_key)]
    assert all(automaton.STATE_NAME[s] == name for name, s in states.items())
    assert [automaton.STATE_RANK[s] for s in states.values()] == list(range(10))


def test_order_key_sorts_every_subset_of_the_ten_states_as_before():
    states = [ID, EXIT, *FORMER_NAMES]
    assert all(state_name(s) == former_name(s) for s in states)
    for mask in range(1 << len(states)):
        subset = [s for k, s in enumerate(states) if mask >> k & 1]
        random.Random(mask).shuffle(subset)
        assert sorted(subset, key=order_key) == sorted(subset, key=former_order_key), subset


def test_the_writers_match_the_former_writers_on_seeded_automata():
    rng = random.Random(20261021)
    automata = []
    for _ in range(300):
        M = build_topology_automaton(random_carpet(rng))
        automata.append(M)
        try:
            automata.append(from_topology_automaton(M).induced_automaton())
        except DiagonalStatePresent:
            pass
    automata += [CARPET_8.induced_automaton(), EXTENDED_9.induced_automaton()]
    assert len({M.states for M in automata}) > 10
    for M in automata:
        assert to_json(M) == former_to_json(M)
        assert to_dot(M) == former_to_dot(M)


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


def test_constructor_refuses_letters_that_are_not_integers():
    states = frozenset({ID, EXIT, (1, 0)})
    loops = {(ID, 1, 1): ID, (ID, 2, 2): ID}
    for i, j in ((1.5, 2), (1, "2"), (True, 2)):
        with pytest.raises(AutomatonError, match="non-integer letter"):
            SigmaAutomaton(2, states, {**loops, (ID, i, j): (1, 0)})
    assert SigmaAutomaton(2, states, {**loops, (ID, 1, 2): (1, 0)}).step(ID, 1, 2) == (1, 0)


def test_alphabet_bound():
    def identity_table(N):
        return SigmaAutomaton(N, frozenset({ID, EXIT}), {(ID, i, i): ID for i in range(1, N + 1)})

    assert identity_table(255).alphabet_size == 255
    with pytest.raises(AutomatonError, match="256 letters exceeds 255"):
        identity_table(256)
    for N in (0, -1):
        with pytest.raises(AutomatonError, match=f"N = {N} letters"):
            identity_table(N)


def test_refusals_name_states_as_the_json_does():
    text = '{"N": 2, "states": ["Id"], "delta": {"Id|1,1": "Id", "Id|2,2": "Id", "Id|1,2": "e1"}}'
    with pytest.raises(AutomatonError, match=r"^transition \(Id, 1, 2\) -> e1 leaves the state set$"):
        from_json(text)
    states = frozenset({ID, EXIT, (1, 0)})
    loops = {(ID, 1, 1): ID, (ID, 2, 2): ID}
    for key, message in (((-1, 1), r"\(-e1\+e2, 1, 2\) -> e1 leaves"),
                         ((2, 0), r"\(\(2, 0\), 1, 2\) -> e1 leaves"),
                         (EXIT, r"\(Exit, 1, 2\) -> e1 leaves")):
        with pytest.raises(AutomatonError, match=message):
            SigmaAutomaton(2, states, {**loops, (key, 1, 2): (1, 0)})
    with pytest.raises(AutomatonError, match=r"letter in transition \(e1, 1.5, 2\)"):
        SigmaAutomaton(2, states, {**loops, ((1, 0), 1.5, 2): ID})
    with pytest.raises(AutomatonError, match=r"outside 1..2 in transition \(e1, 1, 3\)"):
        SigmaAutomaton(2, states, {**loops, ((1, 0), 1, 3): ID})


def test_a_state_outside_the_ten_is_refused_by_name():
    loops = {(ID, 1, 1): ID}
    for state, shown in (("junk", "'junk'"), ((2, 0), r"\(2, 0\)"), ("e1", "'e1'")):
        with pytest.raises(AutomatonError, match=f"^unknown state {shown}: "):
            to_json(SigmaAutomaton(1, frozenset({ID, EXIT, state}), loops))
    units = {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)} - {(0, 0)}
    every = frozenset({ID, EXIT, *units})
    assert SigmaAutomaton(1, every, loops).states == every


def graph_moves(edges):
    """moves() of a hand-built graph given as state -> [(move, next state)]."""
    return lambda state: edges.get(state, [])


def test_explore_never_tests_the_start_in_reach_mode():
    moves = graph_moves({"a": [("ab", "b")], "b": [("ba", "a")]})
    assert explore("a", moves, lambda s: s == "a", lasso=False) is None
    assert explore("a", moves, lambda s: s == "b", lasso=False) == (["ab"], [])
    assert explore("a", moves, lambda s: s == "c", lasso=False) is None


def test_explore_breaks_ties_in_move_order():
    edges = {"a": [("x", "b"), ("y", "c")], "b": [("p", "d")], "c": [("q", "d")]}
    assert explore("a", graph_moves(edges), lambda s: s == "d", lasso=False) == (["x", "p"], [])
    edges["a"].reverse()
    assert explore("a", graph_moves(edges), lambda s: s == "d", lasso=False) == (["y", "q"], [])
    # the lasso takes the first kept move from each state, in move order too
    # (d has no move, so it lies in no core)
    edges = {"a": [("1", "b")], "b": [("u", "d"), ("w", "b"), ("v", "c")], "c": [("z", "c")]}
    assert explore("a", graph_moves(edges), lambda s: s != "a", lasso=True) == (["1"], ["w"])
    edges["b"].reverse()
    assert explore("a", graph_moves(edges), lambda s: s != "a", lasso=True) == (["1", "v"], ["z"])


def test_explore_finds_a_self_loop_lasso_and_a_longer_one():
    moves = graph_moves({"a": [("ab", "b")], "b": [("bb", "b")]})
    assert explore("a", moves, lambda s: s == "b", lasso=True) == (["ab"], ["bb"])
    # the start itself may lie in the core
    assert explore("b", moves, lambda s: True, lasso=True) == ([], ["bb"])
    moves = graph_moves({"a": [("1", "b")], "b": [("2", "c")], "c": [("3", "b")]})
    assert explore("a", moves, lambda s: s != "a", lasso=True) == (["1"], ["2", "3"])


def test_explore_finds_no_lasso_where_no_wanted_run_lasts():
    # the wanted states b and c lead only to a dead end or to the unwanted a
    edges = {"a": [("ab", "b"), ("ac", "c")], "b": [("bd", "d")], "c": [("ca", "a")]}
    assert explore("a", graph_moves(edges), lambda s: s != "a", lasso=True) is None
    assert explore("a", graph_moves({}), lambda s: True, lasso=True) is None


def walk_lasts(v, nodes, succ, steps) -> bool:
    """Whether some walk of `steps` steps from v stays in `nodes`, by
    listing the end of every such walk."""
    ends = [v] if v in nodes else []
    for _ in range(steps):
        ends = [w for u in ends for w in succ.get(u, ()) if w in nodes]
    return bool(ends)


def test_infinite_core_keeps_the_nodes_that_start_a_walk_of_every_length():
    """A node of a finite set starts an endless walk inside it exactly when
    it starts one of |nodes| steps.  Successors may lie outside the set and
    repeat."""
    rng = random.Random(22)
    sizes = set()
    for _ in range(1500):
        universe = range(rng.randint(1, 7))
        succ = {v: rng.choices(universe, k=rng.randint(0, 3)) for v in universe}
        nodes = set(rng.sample(universe, rng.randint(0, len(universe))))
        core = infinite_core(nodes, lambda v: succ[v])
        assert core == {v for v in nodes if walk_lasts(v, nodes, succ, len(nodes))}, (succ, nodes)
        sizes.add((len(core), len(nodes)))
    assert {(0, 5), (3, 5), (5, 5)} <= sizes, sizes

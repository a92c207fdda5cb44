import random
import re

import numpy as np
import pytest

from carpetauto import automaton
from carpetauto.automaton import (
    EXIT,
    ID,
    SigmaAutomaton,
    build_topology_automaton,
    is_infinite,
    surviving_time,
)
from carpetauto.carpet import CarpetSpec, parse_carpet
from carpetauto.cli import random_carpet
from carpetauto.cross import DiagonalStatePresent, from_topology_automaton
from carpetauto.fastsim import (
    INF,
    PAIR_BLOCK,
    check_feasibility_matrix,
    stems_to_array,
    time_matrix,
    transition_table,
)
from carpetauto.words import PeriodicWord

from conftest import CARPET_8, EXTENDED_9
from test_acceptance import feasibility_violations


def test_stems_to_array_refuses_letters_outside_the_alphabet():
    X = stems_to_array([(1, 2), ()], [3, 5], 3, 5)
    assert X.dtype == np.intp
    assert X.tolist() == [[1, 2, 3], [5] * 3]
    for stems, tails in (([(1, 6)], [3]), ([(1,)], [300]), ([()], [0]), ([()], [-1])):
        with pytest.raises(ValueError, match=r"outside the alphabet 1\.\.5"):
            stems_to_array(stems, tails, 3, 5)


def test_stems_to_array_refuses_stems_longer_than_steps():
    for stems, steps, longest in (([(1, 2, 3, 4), (5,), ()], 2, 4), ([(1, 2, 300), (3, 4)], 2, 3),
                                  ([(1, 2)], 0, 2)):
        with pytest.raises(ValueError, match=f"a stem of {longest} letters exceeds {steps} steps"):
            stems_to_array(stems, [3] * len(stems), steps, 8)
    X = stems_to_array([(1, 2), (5,), ()], [6, 7, 8], 2, 8)
    assert X.tolist() == [[1, 2], [5, 7], [8, 8]]
    # tails of rows without padding are never read
    X = stems_to_array([(1, 2), (3, 4)], [-1, 2**70], 2, 8)
    assert X.tolist() == [[1, 2], [3, 4]]
    assert stems_to_array([()], [3], 0, 8).shape == (1, 0)
    # the first bad letter in row order is named, also beyond int64
    for stems, tails, bad in (
        ([(1, 2), (300, -4)], [3, 3], "300"),
        ([(1,), (2,)], [999, -1], "999"),
        ([(1,), (2, 2**70)], [3, 3], str(2**70)),
        ([(1,), (2,)], [3, 2**80], str(2**80)),
    ):
        with pytest.raises(ValueError, match=f"letter {bad} outside"):
            stems_to_array(stems, tails, 3, 8)


def test_time_matrix_refuses_letters_outside_the_alphabet():
    # #.#/.#./#.# has 5 letters.  Letter 0 used to read as Exit, so the
    # word 0.3^inf had T = 0 against itself, and letter 7 ended in an
    # IndexError.  The first bad letter in row order is named.
    M = build_topology_automaton(parse_carpet("#.#\n.#.\n#.#"))
    for stems, tails, bad in (([(1,), (0,)], [2, 3], 0), ([(1,), (7,)], [2, 3], 7),
                              ([(1, 9), (0,)], [2, 3], 9), ([(1,), (2,)], [6, 0], 6)):
        with pytest.raises(ValueError, match=f"letter {bad} outside the alphabet 1..5"):
            time_matrix(M, stems, tails)
    assert time_matrix(M, [(1,), (5,)], [2, 3])[1, 1] == INF


def test_letters_that_are_not_integers_are_refused():
    # On #.#/.#./#.# the intp read turned 1.5 into 1, and the time matrix
    # of 1.5.2^inf and 1.2^inf read INF for every pair.  Tails are words'
    # letters too, so they are refused even where no step reads them.
    M = build_topology_automaton(parse_carpet("#.#\n.#.\n#.#"))
    with pytest.raises(ValueError, match=r"non-integer letter 1\.5"):
        time_matrix(M, [(1.5,), (1,)], [2, 2])
    for stems, tails, bad in (([(1, 2), (True,)], [3, 3], True), ([(1,), (2,)], ["3", 2.5], "3"),
                              ([(1, 2)], [np.int64(3)], np.int64(3)), ([(1, 2), (3, 4)], [1, 2.0], 2.0)):
        with pytest.raises(ValueError, match=f"non-integer letter {re.escape(repr(bad))}$"):
            stems_to_array(stems, tails, 2, 5)


def test_a_count_of_tails_unlike_the_count_of_stems_is_refused():
    # On #.#/.#./#.# one tail too many was dropped without a word, and
    # one too few ended in numpy's broadcast error.
    M = build_topology_automaton(parse_carpet("#.#\n.#.\n#.#"))
    for stems, tails in (([(1,), (2,)], [2]), ([(1,)], [2, 3]), ([], [1])):
        message = f"{len(tails)} tails for {len(stems)} stems"
        with pytest.raises(ValueError, match=message):
            time_matrix(M, stems, tails)
        with pytest.raises(ValueError, match=message):
            stems_to_array(stems, tails, 3, 5)


def scalar_times(M, stems, tails):
    """surviving_time of every pair of words stem tail^inf, INFINITE kept."""
    words = [PeriodicWord.from_stem(s, c) for s, c in zip(stems, tails)]
    return [[surviving_time(M, x, y) for y in words] for x in words]


def assert_matches_scalar(M, stems, tails):
    """time_matrix equals the scalar times, with INF for INFINITE."""
    times = scalar_times(M, stems, tails)
    T = time_matrix(M, stems, tails)
    expected = np.array(
        [[INF if is_infinite(t) else t for t in row] for row in times], dtype=np.int64
    )
    assert T.dtype == np.int64
    assert np.array_equal(T, expected), M


def test_time_matrix_matches_surviving_time_on_random_carpets():
    # every other pool starts all its stems with one letter, so its first
    # step changes no state: the simulation must not stop inside the stems
    rng = random.Random(41)
    for trial in range(12):
        n = rng.randint(2, 5)
        m = rng.randint(2, 5)
        cells = [(a, b) for a in range(n) for b in range(m)]
        spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(2, len(cells)))))
        M = build_topology_automaton(spec)
        N = spec.alphabet_size
        stems = [tuple(rng.randint(1, N) for _ in range(rng.randint(0, 4))) for _ in range(24)]
        if trial % 2:
            stems = [(1,) + s for s in stems]
        tails = [rng.randint(1, N) for _ in stems]
        assert_matches_scalar(M, stems, tails)


def test_time_matrix_runs_on_while_a_constant_pair_cycles():
    # On the constant letter pair (2, 1) the state e1 goes to -e1 and back,
    # so no step after the stems leaves every state unchanged.  The word
    # pair 3(2), 2(1) is alive after steps 1 and 2 and exits at step 3,
    # and every other pair of distinct words exits at step 1.  So the
    # alive set is the same after steps 1 and 2: a stop on an unchanged
    # alive set would call the time of 3(2), 2(1) infinite instead of 2.
    e1, e2 = (1, 0), (0, 1)
    delta = {(ID, i, i): ID for i in (1, 2, 3)}
    delta.update({
        (ID, 1, 2): e1, (e1, 2, 1): (-1, 0), ((-1, 0), 2, 1): e1,
        (ID, 3, 2): e2, (e2, 2, 1): (0, -1),
    })
    M = SigmaAutomaton(3, frozenset({ID, EXIT, e1, (-1, 0), e2, (0, -1)}), delta)
    stems = [(1,), (2,), (3,)]
    tails = [2, 1, 2]
    T = time_matrix(M, stems, tails)
    assert T[0, 1] == INF
    assert T[2, 1] == 2
    assert_matches_scalar(M, stems, tails)


def test_time_matrix_of_an_empty_pool_and_of_empty_stems():
    M = build_topology_automaton(CarpetSpec(3, 3, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 2))))
    T = time_matrix(M, [], [])
    assert T.shape == (0, 0) and T.dtype == np.int64
    assert_matches_scalar(M, [(), (), ()], [1, 2, 5])


def dense_time_matrix(M, stems, tails):
    """Reference: every one of the W x W pairs advances one letter a step
    through the whole horizon, and the survivors at the horizon are INF."""
    steps = max((len(s) for s in stems), default=0) + len(M.states) + 1
    states = sorted(M.states, key=repr)
    index = {s: k for k, s in enumerate(states)}
    gone = index[EXIT]
    tab = np.full((len(states), M.alphabet_size + 1, M.alphabet_size + 1), gone)
    for (s, i, j), t in M.delta.items():
        tab[index[s], i, j] = index[t]
    tab[gone] = gone
    W = len(stems)
    X = np.array([list(s) + [c] * (steps - len(s)) for s, c in zip(stems, tails)])
    X = X.reshape(W, steps)
    state = np.full((W, W), index[ID])
    T = np.zeros((W, W), dtype=np.int64)
    for k in range(steps):
        state = tab[state, X[:, k][:, None], X[None, :, k]]
        T += state != gone
    T[state != gone] = INF
    return T


def random_topology_automaton(rng, size):
    n = rng.randint(2, size)
    m = rng.randint(2, size)
    cells = [(a, b) for a in range(n) for b in range(m)]
    spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(2, len(cells)))))
    return build_topology_automaton(spec)


def test_time_matrix_matches_the_dense_stepping_loop():
    rng = random.Random(2023)
    for trial in range(24):
        M = random_topology_automaton(rng, 6)
        N = M.alphabet_size
        longest = rng.randint(0, 6)
        stems = [
            tuple(rng.randint(1, N) for _ in range(rng.randint(0, longest)))
            for _ in range(rng.randint(0, 120))
        ]
        if trial % 3 == 1:  # a shared prefix: steps 1 and 2 change no state
            stems = [(2, 2) + s for s in stems]
        tails = [rng.randint(1, N) for _ in stems]
        T = time_matrix(M, stems, tails)
        assert T.dtype == np.int64
        assert np.array_equal(T, dense_time_matrix(M, stems, tails)), trial


def test_time_matrix_of_a_pool_wider_than_one_band():
    rng = random.Random(5)
    M = random_topology_automaton(rng, 4)
    N = M.alphabet_size
    stems = [tuple(rng.randint(1, N) for _ in range(rng.randint(0, 4))) for _ in range(700)]
    assert len(stems) ** 2 > PAIR_BLOCK
    tails = [rng.randint(1, N) for _ in stems]
    assert np.array_equal(time_matrix(M, stems, tails), dense_time_matrix(M, stems, tails))


def triple_loop_violations(T, t0):
    """Reference: the triples with min(T[x,y], T[x,z]) > T[y,z] + t0."""
    T = T.tolist()
    W = len(T)
    return {
        (x, y, z)
        for x in range(W)
        for y in range(W)
        for z in range(W)
        if min(T[x][y], T[x][z]) > T[y][z] + t0
    }


def test_check_feasibility_matrix_matches_a_triple_loop():
    """Both the counter and criterion 2's triple lister, which stops
    after 1001 triples."""
    rng = np.random.default_rng(17)
    for W in (0, 1, 2, 3, 5, 8, 13, 21, 40):
        for symmetric in (False, True):
            T = rng.integers(-2, 7, size=(W, W), dtype=np.int64)
            T[rng.random((W, W)) < 0.2] = INF
            if symmetric:
                T = np.minimum(T, T.T)
            for t0 in (-1, 0, 1, 2):
                expected = triple_loop_violations(T, t0)
                assert check_feasibility_matrix(T, t0) == len(expected), (W, symmetric, t0)
                listed = feasibility_violations(T, t0)
                if len(expected) <= 1000:
                    assert listed == expected, (W, symmetric, t0)
                else:
                    assert len(listed) == 1001 and listed <= expected, (W, symmetric, t0)


def test_check_feasibility_matrix_of_an_empty_matrix():
    assert check_feasibility_matrix(np.zeros((0, 0), dtype=np.int64)) == 0


def seeded_automata():
    """Topology automata of seeded carpets, their induced cross automata
    where they have one, and the two cross fixtures."""
    rng = random.Random(20261021)
    automata = [CARPET_8.induced_automaton(), EXTENDED_9.induced_automaton()]
    for _ in range(40):
        M = build_topology_automaton(random_carpet(rng))
        automata.append(M)
        try:
            automata.append(from_topology_automaton(M).induced_automaton())
        except DiagonalStatePresent:
            pass
    return automata


def test_transition_table_agrees_with_step_cell_by_cell():
    """Each state reached from Id has its own row, found by following the
    table from the Id row, and each of its cells reads what M.step reads;
    the Exit row reads Exit only."""
    for M in seeded_automata():
        tab, id_idx, exit_idx = transition_table(M)
        row, reached = {ID: id_idx, EXIT: exit_idx}, [ID]
        for s in reached:  # the list grows while it is read: a breadth-first search
            for i in M.letters():
                for j in M.letters():
                    t, cell = M.step(s, i, j), int(tab[row[s], i, j])
                    if t not in row:
                        row[t] = cell
                        reached.append(t)
                    assert row[t] == cell, (s, i, j)
        assert len(set(row.values())) == len(row)
        assert (tab[exit_idx, 1:, 1:] == exit_idx).all()


def test_transition_table_has_a_row_for_each_of_the_ten_states():
    for M in seeded_automata():
        tab, id_idx, exit_idx = transition_table(M)
        N = M.alphabet_size
        assert tab.shape == (10, N + 1, N + 1) and (id_idx, exit_idx) == (0, 9)
        rank = automaton.STATE_RANK
        for s in automaton.STATES.values():
            for i in M.letters():
                for j in M.letters():
                    assert tab[rank[s], i, j] == rank[M.step(s, i, j)], (s, i, j)

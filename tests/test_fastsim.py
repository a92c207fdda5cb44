import random

import numpy as np
import pytest

from carpetauto.automaton import (
    EXIT,
    ID,
    SigmaAutomaton,
    build_topology_automaton,
    is_infinite,
    surviving_time,
)
from carpetauto.carpet import CarpetSpec
from carpetauto.fastsim import INF, MAX_LETTER, stems_to_array, time_matrix
from carpetauto.words import PeriodicWord


def test_letters_outside_uint8_are_rejected():
    X = stems_to_array([(1, 2), ()], [3, MAX_LETTER], 3)
    assert X.tolist() == [[1, 2, 3], [MAX_LETTER] * 3]
    for stems, tails in (([(1, 256)], [3]), ([(1,)], [300]), ([()], [-1])):
        with pytest.raises(ValueError, match="outside 0..255"):
            stems_to_array(stems, tails, 3)


def scalar_times(M, stems, tails):
    """surviving_time of every pair of words stem tail^inf, INFINITE kept."""
    words = [PeriodicWord.from_stem(s, c) for s, c in zip(stems, tails)]
    return [[surviving_time(M, x, y) for y in words] for x in words]


def assert_matches_scalar(M, stems, tails):
    """time_matrix equals the scalar times, for the default and truncated horizons.

    A horizon of `steps` steps reads a time of `steps` or more as INF.
    """
    times = scalar_times(M, stems, tails)
    for extra in (None, 0, 1, 3):
        T = time_matrix(M, stems, tails, extra)
        steps = max((len(s) for s in stems), default=0)
        steps += len(M.states) + 1 if extra is None else extra
        expected = np.array(
            [[INF if is_infinite(t) or t >= steps else t for t in row] for row in times],
            dtype=np.int64,
        )
        assert T.dtype == np.int64
        assert np.array_equal(T, expected), (M, extra)


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


def test_time_matrix_of_an_empty_pool_and_of_zero_steps():
    M = build_topology_automaton(CarpetSpec(3, 3, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 2))))
    T = time_matrix(M, [], [])
    assert T.shape == (0, 0) and T.dtype == np.int64
    # all stems empty and extra=0: no step is taken, so every pair is INF
    T = time_matrix(M, [(), (), ()], [1, 2, 5], extra=0)
    assert T.dtype == np.int64
    assert np.array_equal(T, np.full((3, 3), INF))

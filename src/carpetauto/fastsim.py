"""Vectorized surviving-time computation for eventually-constant words.

The property suites need all-pairs surviving times over thousands of
words; simulating each pair separately is far too slow, so the whole
pair matrix is advanced one input step at a time with numpy fancy
indexing into the transition table.
"""

from __future__ import annotations

import numpy as np

from .automaton import EXIT, ID, SigmaAutomaton, order_key

INF = np.int64(10**9)


def _state_index(M: SigmaAutomaton):
    states = sorted(M.states, key=order_key)
    return states, {s: k for k, s in enumerate(states)}


def transition_table(M: SigmaAutomaton):
    """delta as an array tab[state, i, j] of state indices; Exit absorbs."""
    states, index = _state_index(M)
    N = M.alphabet_size
    exit_idx = index[EXIT]
    tab = np.full((len(states), N + 1, N + 1), exit_idx, dtype=np.uint8)
    for (s, i, j), t in M.delta.items():
        tab[index[s], i, j] = index[t]
    tab[exit_idx, :, :] = exit_idx
    return tab, index[ID], exit_idx


MAX_LETTER = 255


def stems_to_array(stems, tails, steps: int):
    """Letter matrix, one row per word, padded with the word's tail letter.

    Letters are stored as uint8, so they must lie in 0..MAX_LETTER (255);
    any other letter raises ValueError.
    """
    out = np.empty((len(stems), steps), dtype=np.uint8)
    for r, (stem, tail) in enumerate(zip(stems, tails)):
        row = list(stem[:steps])
        row.extend([tail] * (steps - len(row)))
        if row and (min(row) < 0 or max(row) > MAX_LETTER):
            bad = next(a for a in row if not 0 <= a <= MAX_LETTER)
            raise ValueError(f"letter {bad} outside 0..{MAX_LETTER}: letters are stored as uint8")
        out[r] = row
    return out


def time_matrix(M: SigmaAutomaton, stems, tails, extra: int | None = None):
    """All-pairs surviving times for words stem_r followed by tail_r forever.

    Once both inputs are constant the itinerary revisits a state within
    |states| steps, so simulating max stem length + |states| + 1 steps
    decides every pair; survivors at the horizon are infinite (INF).
    """
    if extra is None:
        extra = len(M.states) + 1
    steps = max((len(s) for s in stems), default=0) + extra
    tab, id_idx, exit_idx = transition_table(M)
    X = stems_to_array(stems, tails, steps)
    W = len(stems)
    state = np.full((W, W), id_idx, dtype=np.uint8)
    T = np.zeros((W, W), dtype=np.int64)
    alive = np.ones((W, W), dtype=bool)
    for k in range(steps):
        state = tab[state, X[:, k][:, None], X[None, :, k]]
        alive &= state != exit_idx
        T[alive] = k + 1
    T[alive] = INF
    return T


def check_feasibility_matrix(T: np.ndarray, t0: int = 1) -> int:
    """Count violations of min(T[x,y], T[x,z]) <= T[y,z] + t0 over all triples.

    INF + t0 compares as at least INF, so infinite right-hand sides never
    produce violations and infinite left-hand minima only fail against
    finite right-hand sides, exactly as intended.  Apex rows are taken in
    blocks of at most about 4M cells, so memory stays bounded as W grows.
    """
    W = T.shape[0]
    rows = max(1, 2**22 // W**2)
    rhs = T + np.int64(t0)
    bad = 0
    for start in range(0, W, rows):
        block = T[start : start + rows]
        lhs = np.minimum(block[:, :, None], block[:, None, :])
        bad += int((lhs > rhs[None, :, :]).sum())
    return bad


def enumerate_stems(N: int, max_len: int):
    """All stems over 1..N of length 0..max_len, in lexicographic order."""
    from itertools import product

    out = [()]
    for length in range(1, max_len + 1):
        out.extend(product(range(1, N + 1), repeat=length))
    return out

"""Vectorized surviving-time computation for eventually-constant words.

The property suites need all-pairs surviving times over thousands of
words; simulating each pair separately is far too slow.  `time_matrix`
reads the first step of a band of rows from the Id slice of the
transition table, then advances only the pairs still alive, one input
step at a time, with one gather into the flattened table per step.
`check_feasibility_matrix` counts the violating triples of a time
matrix exactly with one matrix product per distinct value of T + t0.
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from .automaton import EXIT, ID, MAX_LETTER, SigmaAutomaton, order_key

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


def stems_to_array(stems, tails, steps: int):
    """Letter matrix, one row per word, padded with the word's tail letter.

    Letters are stored as uint8, so they must lie in 0..MAX_LETTER (255);
    any other letter raises ValueError, which names the first one in row
    order.  A stem longer than `steps` raises ValueError.
    """
    lengths = np.fromiter(map(len, stems), np.intp, len(stems))
    if lengths.max(initial=0) > steps:
        raise ValueError(f"a stem of {lengths.max()} letters exceeds {steps} steps")
    pad = steps - lengths
    in_stem = np.arange(steps) < lengths[:, None]
    X = np.empty(in_stem.shape, dtype=np.int64)
    try:
        # row-major order: each row's stem letters, then its tail repeats
        X[in_stem] = np.fromiter(chain.from_iterable(stems), np.int64, int(lengths.sum()))
        X[~in_stem] = np.repeat(np.fromiter(compress(tails, pad.tolist()), np.int64), pad[pad > 0])
    except OverflowError:  # a letter beyond int64, named by the scan below
        pass
    else:
        if ((X >= 0) & (X <= MAX_LETTER)).all():
            return X.astype(np.uint8)
    bad = next(
        a
        for s, c in zip(stems, tails)
        for a in chain(s, [c] * (steps - len(s)))
        if not 0 <= a <= MAX_LETTER
    )
    raise ValueError(f"letter {bad} outside 0..{MAX_LETTER}: letters are stored as uint8")


# Pairs are stepped in bands of whole rows of about this many pairs, so
# the working arrays stay a few MB however large the pool is.
PAIR_BLOCK = 2**18


def time_matrix(M: SigmaAutomaton, stems, tails):
    """All-pairs surviving times for words stem_r followed by tail_r forever.

    Once both inputs are constant the itinerary revisits a state within
    |states| steps, so simulating max stem length + |states| + 1 steps
    decides every pair; survivors at the horizon are infinite (INF).

    Pairs are simulated in bands of whole rows.  Every pair starts at Id,
    so step 1 of a band is read from the Id slice of the transition table.
    After that only the band's pairs still alive are stepped, as flat
    arrays of row, column and state; a pair that exits at step k+1 was
    alive for k steps and gets T = k.

    A band stops early at the first step k >= max stem length at which
    none of its live pairs changes state.  From step k on every word reads
    its tail letter, so a pair whose state did not change at step k never
    changes again and survives to the horizon: stopping there gives the
    same matrix.
    """
    stem_len = max(map(len, stems), default=0)
    steps = stem_len + len(M.states) + 1
    tab, id_idx, exit_idx = transition_table(M)
    X = stems_to_array(stems, tails, steps)
    W = len(stems)
    if not W:
        return np.empty((0, 0), dtype=np.int64)
    T = np.empty((W, W), dtype=np.int64)
    # A state s is held as its offset s*L*L into the flattened table, so
    # one take reads tab[s, i, j] at s*L*L + i*L + j.
    L = tab.shape[1]
    succ = tab.ravel().astype(np.intp) * (L * L)
    gone_at = exit_idx * L * L
    col_part = X.T.astype(np.intp)  # col_part[k, w]: word w's letter at step k+1
    row_part = col_part * L
    band = max(1, PAIR_BLOCK // W)
    for r0 in range(0, W, band):
        first = tab[id_idx].take(X[r0 : r0 + band, 0], axis=0).take(X[:, 0], axis=1)
        alive = first != exit_idx
        T[r0 : r0 + band] = np.where(alive, INF, np.int64(0))
        pairs = np.flatnonzero(alive)
        state = first.ravel().take(pairs).astype(np.intp) * (L * L)
        pairs += r0 * W
        rows = pairs // W
        cols = pairs - rows * W
        for k in range(1, steps):
            nxt = succ.take(state + row_part[k].take(rows) + col_part[k].take(cols))
            if k >= stem_len and np.array_equal(nxt, state):
                break
            gone = nxt == gone_at
            if gone.any():
                T[rows[gone], cols[gone]] = k
                keep = ~gone
                rows, cols, nxt = rows[keep], cols[keep], nxt[keep]
                if not rows.size:
                    break
            state = nxt
    return T


def check_feasibility_matrix(T: np.ndarray, t0: int = 1) -> int:
    """Count violations of min(T[x,y], T[x,z]) <= T[y,z] + t0 over all triples.

    The count is exact, one level v of T + t0 at a time.  With B the 0/1
    matrix of T > v, (B^T B)[y, z] counts the apexes x with T[x,y] > v and
    T[x,z] > v, which are the violations at every cell (y, z) whose
    right-hand side T[y,z] + t0 equals v.  Counts are at most W, so the
    float64 product is exact.  Levels are taken in increasing order and
    the first v that no entry of T exceeds ends the count: no later level
    can have an apex.  Nothing exceeds INF, so infinite right-hand sides
    never produce violations.  Memory is O(W^2).
    """
    rhs = T + np.int64(t0)
    bad = 0
    rest = rhs.ravel()
    while rest.size:
        v = rest.min()
        above = T > v
        if not above.any():
            break
        B = above.astype(np.float64)
        bad += int((B.T @ B)[rhs == v].sum())
        rest = rest[rest > v]
    return bad


"""Vectorized surviving-time computation for eventually-constant words.

The property suites need all-pairs surviving times over thousands of
words; simulating each pair separately is far too slow.  `time_matrix`
fills a flat W*W matrix with zeros and reads the first step of a band of
rows from the Id slice of the transition table, so a pair that exits at
step 1 keeps its 0.  It then advances only the pairs still alive, held
as flat indices into the matrix, one input step at a time, with one
gather into the flattened table per step; an exit is written at its flat
index, and the band's survivors get INF once, at the end.
`check_feasibility_matrix` counts the violating triples of a time
matrix exactly with one matrix product per distinct value of T + t0.
"""

from __future__ import annotations

from itertools import chain, compress

import numpy as np

from .automaton import EXIT, ID, STATE_RANK, SigmaAutomaton

INF = np.int64(10**9)


def transition_table(M: SigmaAutomaton):
    """delta as an array tab[state, i, j] of `STATE_RANK` ranks, a row for
    each of the ten states; Exit absorbs, as no transition leaves Exit."""
    N = M.alphabet_size
    exit_idx = STATE_RANK[EXIT]
    tab = np.full((len(STATE_RANK), N + 1, N + 1), exit_idx, dtype=np.uint8)
    for (s, i, j), t in M.delta.items():
        tab[STATE_RANK[s], i, j] = STATE_RANK[t]
    return tab, STATE_RANK[ID], exit_idx


def stems_to_array(stems, tails, steps: int, N: int):
    """Letter matrix of intp, one row per word, padded with its tail letter.

    Every letter, tails included, must be an int, not a bool, float or
    string, which the intp read would truncate or convert; and every
    letter read must lie in 1..N.  Any other raises ValueError, which
    names the first one in row order, also beyond int64.  A stem longer
    than `steps`, or a count of tails unlike the count of stems, raises
    ValueError.
    """
    if len(tails) != len(stems):
        raise ValueError(f"{len(tails)} tails for {len(stems)} stems")
    if not {*map(type, chain.from_iterable(stems)), *map(type, tails)} <= {int}:
        bad = next(a for s, c in zip(stems, tails) for a in (*s, c) if type(a) is not int)
        raise ValueError(f"non-integer letter {bad!r}")
    lengths = np.fromiter(map(len, stems), np.intp, len(stems))
    if lengths.max(initial=0) > steps:
        raise ValueError(f"a stem of {lengths.max()} letters exceeds {steps} steps")
    pad = steps - lengths
    in_stem = np.arange(steps) < lengths[:, None]
    X = np.empty(in_stem.shape, dtype=np.intp)
    try:
        # row-major order: each row's stem letters, then its tail repeats
        X[in_stem] = np.fromiter(chain.from_iterable(stems), np.intp, int(lengths.sum()))
        X[~in_stem] = np.repeat(np.fromiter(compress(tails, pad.tolist()), np.intp), pad[pad > 0])
    except OverflowError:  # a letter beyond int64, named by the scan below
        pass
    else:
        if ((X >= 1) & (X <= N)).all():
            return X
    bad = next(
        a
        for s, c in zip(stems, tails)
        for a in chain(s, [c] * (steps - len(s)))
        if not 1 <= a <= N
    )
    raise ValueError(f"letter {bad} outside the alphabet 1..{N}")


# Pairs are stepped in bands of whole rows of about this many pairs, so
# the working arrays stay a few MB however large the pool is.
PAIR_BLOCK = 2**18


def time_matrix(M: SigmaAutomaton, stems, tails):
    """All-pairs surviving times for words stem_r followed by tail_r forever.

    Once both inputs are constant the itinerary revisits a state within
    |states| steps, so simulating max stem length + |states| + 1 steps
    decides every pair; survivors at the horizon are infinite (INF).

    Every letter must be an int in 1..N; any other raises ValueError,
    which names the first one in row order.  So does a count of tails
    unlike the count of stems.

    T starts as a zero-filled flat array of W*W entries, and pairs are
    simulated in bands of whole rows.  Every pair starts at Id, so step 1
    of a band is read from the Id slice of the transition table, and a
    pair that exits there keeps T = 0.  After that only the band's pairs
    still alive are stepped, as flat indices row*W + col into T, with
    their rows and columns from one divmod, and their states; a pair that
    exits at step k+1 was alive for k steps, and T = k is written at its
    flat index.  The pairs of the band still alive when its loop ends get
    INF, once.

    A band stops early at the first step k >= max stem length at which
    none of its live pairs changes state.  From step k on every word reads
    its tail letter, so a pair whose state did not change at step k never
    changes again and survives to the horizon: stopping there gives the
    same matrix.
    """
    stem_len = max(map(len, stems), default=0)
    steps = stem_len + len(M.states) + 1
    tab, id_idx, exit_idx = transition_table(M)
    X = stems_to_array(stems, tails, steps, M.alphabet_size)
    W = len(stems)
    if not W:
        return np.empty((0, 0), dtype=np.int64)
    T = np.zeros(W * W, dtype=np.int64)
    # A state s is held as its offset s*L*L into the flattened table, so
    # one take reads tab[s, i, j] at s*L*L + i*L + j.
    L = tab.shape[1]
    succ = tab.ravel().astype(np.intp) * (L * L)
    gone_at = exit_idx * L * L
    col_part = X.T  # col_part[k, w]: word w's letter at step k+1
    row_part = col_part * L
    band = max(1, PAIR_BLOCK // W)
    for r0 in range(0, W, band):
        first = tab[id_idx].take(X[r0 : r0 + band, 0], axis=0).take(X[:, 0], axis=1)
        pairs = np.flatnonzero(first != exit_idx)
        state = first.ravel().take(pairs).astype(np.intp) * (L * L)
        pairs += r0 * W
        rows, cols = np.divmod(pairs, W)
        for k in range(1, steps):
            nxt = succ.take(state + row_part[k].take(rows) + col_part[k].take(cols))
            if k >= stem_len and np.array_equal(nxt, state):
                break
            gone = nxt == gone_at
            if gone.any():
                T[pairs[gone]] = k
                keep = ~gone
                pairs, rows, cols, nxt = pairs[keep], rows[keep], cols[keep], nxt[keep]
                if not pairs.size:
                    break
            state = nxt
        T[pairs] = INF
    return T.reshape(W, W)


def check_feasibility_matrix(T: np.ndarray, t0: int = 1) -> int:
    """Count violations of min(T[x,y], T[x,z]) <= T[y,z] + t0 over all triples.

    The count is exact, one level v of T + t0 at a time.  With B the 0/1
    matrix of T > v, (B^T B)[y, z] counts the apexes x with T[x,y] > v and
    T[x,z] > v, which are the violations at every cell (y, z) whose
    right-hand side T[y,z] + t0 equals v.  Counts are at most W, so the
    float64 product is exact.  Levels are taken in increasing order and
    the first v that no entry of T exceeds ends the count: no later level
    can have an apex.  Nothing exceeds INF, so when t0 >= 0 infinite
    right-hand sides never produce violations; when t0 < 0 the level
    INF + t0 counts the apexes x with T[x,y] = T[x,z] = INF like any
    other.  Memory is O(W^2).
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


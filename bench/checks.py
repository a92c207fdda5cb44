"""The verify workload's requests, which go through the library.

The CLI has no entry point for these checks; each runs on one small
Class-1/2 catalog carpet, read from its file:

- ``oracles``: the intersection oracle against the chain survivors and
  the raster overlap of every offset (the oracle-agreement suite of
  ``carpetauto selftest``, on one carpet, at raster depth 8);
- ``feasibility``: feasibility over an all-pairs time matrix and, as in
  ``selftest``, over random word triples;
- ``distortion``: the distortion bound of every simplification step
  (criterion 7 of the test suite on a capped word pool);
- ``projection``: the projection bounds on random word pairs.

Each takes the carpet's path and a seed for its random words, and
returns its violation counts, which must all be 0.  Functions are looked
up on their modules at call time, so the traced run's wrappers see
these calls.
"""

from __future__ import annotations

import itertools
import math
import random

# Word pools: the shortest stems first, capped at a fixed count so that
# the cost does not depend on the carpet's alphabet (7776-word pools took
# 17-31 s a request at the commit that defined the benchmark).  The
# distortion pool shrinks by the square root of the chain length, which
# keeps the all-pairs work of a request the same for one or two steps.
# Raster depth of the oracle check.  selftest uses the default, 9: on
# 4x4 carpets its edge arrays (4^9 coordinates) outgrow the core's own
# caches, and a request's time then follows the shared host's memory
# traffic.  At depth 8 the oracle and raster agree on every catalog
# carpet, and np.unique in geometry._edge_coords still takes most of
# the check's time.
RASTER_DEPTH = 8
FEASIBILITY_WORDS = 60
DISTORTION_WORDS = 120
FEASIBILITY_TRIPLES = 20
PROJECTION_PAIRS = 12


def constant_tail_pool(N, count, tail=None):
    """The first ``count`` words stem.c^inf, by stem length, then stem, then c."""
    tails = range(1, N + 1) if tail is None else (tail,)
    pool = []
    for length in itertools.count():
        for stem in itertools.product(range(1, N + 1), repeat=length):
            for c in tails:
                if not (stem and stem[-1] == c):
                    pool.append((stem, c))
                    if len(pool) == count:
                        return pool


def _read(carpet_path):
    from carpetauto import carpet

    with open(carpet_path, encoding="utf-8") as fh:
        return carpet.parse_carpet(fh.read())


def oracles(carpet_path, seed):
    from carpetauto import geometry

    spec = _read(carpet_path)
    oracle = geometry.build_oracle(spec)
    wrong = int(oracle.survivors != geometry.chain_survivors(spec))
    for b in geometry.OFFSETS:
        if b != (0, 0) and oracle.intersects(b) != geometry.raster_overlap(spec, b, RASTER_DEPTH):
            wrong += 1
    return {"oracle_violations": wrong}


def feasibility(carpet_path, seed):
    from carpetauto import automaton, fastsim

    spec = _read(carpet_path)
    M = automaton.build_topology_automaton(spec)
    N = spec.alphabet_size
    pool = constant_tail_pool(N, FEASIBILITY_WORDS)
    T = fastsim.time_matrix(M, [s for s, _ in pool], [c for _, c in pool])
    violations = fastsim.check_feasibility_matrix(T, t0=1)
    rng = random.Random(seed)
    triples = [tuple(automaton.random_word(rng, N) for _ in range(3))
               for _ in range(FEASIBILITY_TRIPLES)]
    violations += len(automaton.check_feasibility(M, 1, triples))
    return {"feasibility_violations": violations}


def distortion(carpet_path, seed):
    import numpy as np

    from carpetauto import automaton, cross, fastsim, gmap, simplify

    spec = _read(carpet_path)
    M = automaton.build_topology_automaton(spec)
    N = spec.alphabet_size
    violations = 0
    chain = simplify.final_chain(cross.from_topology_automaton(M))
    per_step = int(DISTORTION_WORDS / math.sqrt(len(chain.steps)))
    for step in chain.steps:
        gamma, lam = step.top_bottom
        tau, kappa = step.deleted
        ctx = gmap.GContext(gamma, lam, kappa, tau)
        words = [gmap.OmegaWord(s, kappa)
                 for s, _ in constant_tail_pool(N, per_step, tail=kappa)]
        images = [gmap.g_apply(ctx, w) for w in words]
        Tb = fastsim.time_matrix(step.before.induced_automaton(),
                                 [w.stem for w in words], [kappa] * len(words))
        Ta = fastsim.time_matrix(step.after.induced_automaton(),
                                 [u.stem for u in images], [kappa] * len(images))
        inf_b, inf_a = Tb == fastsim.INF, Ta == fastsim.INF
        both = ~inf_b & ~inf_a
        violations += int((inf_b != inf_a).sum()) + int((np.abs(Tb[both] - Ta[both]) > 4).sum())
    return {"distortion_violations": violations}


def projection(carpet_path, seed):
    from carpetauto import automaton, metric
    from carpetauto.words import PeriodicWord

    spec = _read(carpet_path)
    M = automaton.build_topology_automaton(spec)
    N = spec.alphabet_size
    rng = random.Random(seed)
    pairs = []
    for _ in range(PROJECTION_PAIRS):
        x, y = (PeriodicWord(tuple(rng.randint(1, N) for _ in range(rng.randint(0, 2))),
                             (rng.randint(1, N),)) for _ in range(2))
        pairs.append((x, y))
    return {"projection_violations": metric.check_projection_bounds(spec, M, pairs).violations}


REQUESTS = {"oracles": oracles, "feasibility": feasibility, "distortion": distortion,
            "projection": projection}

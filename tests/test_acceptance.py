"""End-to-end property acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in failure output).  The suites use
the vectorized all-pairs simulator where exhaustive enumeration would be
too slow letter by letter.
"""

import itertools
import math
import random

import numpy as np
import pytest

from carpetauto.automaton import (
    build_topology_automaton,
    is_infinite,
    surviving_time,
)
from carpetauto.classify import build_letter_bijection, decide_equivalence, final_automaton
from carpetauto.cli import random_carpet
from carpetauto.cross import (
    DiagonalStatePresent,
    classify,
    decide_triple_coding_free,
    from_topology_automaton,
    validate,
)
from carpetauto.fastsim import INF, check_feasibility_matrix, time_matrix
from carpetauto.geometry import OFFSETS, build_oracle, chain_survivors, raster_overlap
from carpetauto.gmap import GContext, OmegaWord, g_apply, h_apply
from carpetauto.metric import check_projection_bounds
from carpetauto.simplify import final_chain
from carpetauto.carpet import profile
from carpetauto.words import PeriodicWord, parse_word

from conftest import (
    CARPET_8,
    CHAIN2_CARPET,
    DISTORTION_CARPETS,
    EXTENDED_9,
    PROJECTION_CARPETS,
    SQUARE_TOP_5,
    SQUARE_VSEP_5,
    TOP_ISOLATED_11,
    VSEP_11,
)


def report(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    return line


def omega_pool(N, kappa, max_stem):
    """All distinct words stem kappa^inf with stems over 1..N, |stem| <= max_stem."""
    out = [OmegaWord((), kappa)]
    for length in range(1, max_stem + 1):
        for stem in itertools.product(range(1, N + 1), repeat=length):
            if stem[-1] != kappa:
                out.append(OmegaWord(stem, kappa))
    return out


def constant_tail_pool(N, max_stem):
    """All distinct words stem c^inf with |stem| <= max_stem, as (stem, c).

    A stem ending in its own tail letter is skipped: that word is already
    in the pool with the shorter stem.
    """
    pool = []
    for length in range(0, max_stem + 1):
        for stem in itertools.product(range(1, N + 1), repeat=length):
            for c in range(1, N + 1):
                if stem and stem[-1] == c:
                    continue
                pool.append((stem, c))
    return pool


def periodic_matrix(M, words, horizon):
    """All-pairs surviving times of general periodic words.

    Every word is expanded to ``horizon`` explicit letters; the horizon
    must exceed max preperiod + lcm of periods * |states|, so survivors
    at the horizon are genuinely infinite.
    """
    stems = [tuple(w.letter(k) for k in range(1, horizon + 1)) for w in words]
    T = time_matrix(M, stems, [s[-1] for s in stems])
    # the letters past the horizon are made up: a time that reaches it is INF
    return np.where(T >= horizon, INF, T)


# --- criterion 1: feasibility on random carpets -------------------------


def test_criterion_01_feasibility_random_carpets():
    rng = random.Random(101)
    total_triples = 0
    bad = 0
    for _ in range(20):
        spec = random_carpet(rng, max_div=5, max_digits=12)
        M = build_topology_automaton(spec)
        N = len(spec.digits)
        # small alphabets admit fewer than 300 distinct short words, so
        # draw a fixed number of attempts and deduplicate
        words = []
        seen = set()
        for _ in range(3000):
            pre = tuple(rng.randint(1, N) for _ in range(rng.randint(0, 3)))
            per = tuple(rng.randint(1, N) for _ in range(rng.randint(1, 3)))
            w = PeriodicWord(pre, per)
            if w not in seen:
                seen.add(w)
                words.append(w)
            if len(words) == 300:
                break
        size = len(words)
        # horizon: preperiod <= 3, periods lcm <= 6, states <= 10
        horizon = 3 + 6 * len(M.states) + 1
        T = periodic_matrix(M, words, horizon)
        # spot-check the matrix against the scalar simulator
        for _ in range(25):
            a, b = rng.randrange(size), rng.randrange(size)
            t = surviving_time(M, words[a], words[b])
            expect = INF if is_infinite(t) else t
            assert T[a, b] == expect, (spec, words[a], words[b])
        idx = np.array(
            [[rng.randrange(size) for _ in range(3)] for _ in range(10_000)]
        )
        total_triples += len(idx)
        for x, y, z in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            lhs = np.minimum(T[idx[:, x], idx[:, y]], T[idx[:, x], idx[:, z]])
            rhs = T[idx[:, y], idx[:, z]] + np.int64(1)
            bad += int((lhs > rhs).sum())
    ok = bad == 0
    line = report(1, "feasibility on random carpets", ok,
                  f"{bad} violations over {total_triples} triples x 3 roles")
    assert ok, line


# --- criterion 2: cross feasibility on the nine-letter example ----------


def feasibility_violations(T, t0):
    """Index triples (x, y, z) with min(T[x,y], T[x,z]) > T[y,z] + t0.

    Both T[x,y] and T[x,z] must exceed the least right-hand side, so for
    each apex x only the columns above it are compared.  Collection stops
    after 1001 triples, so a broken matrix with millions of violations
    fails the comparison without filling memory.
    """
    limit = 1000
    out = set()
    if not T.size:
        return out
    rhs = T + np.int64(t0)
    floor = rhs.min()
    for x in range(T.shape[0]):
        cols = np.flatnonzero(T[x] > floor)
        lhs = np.minimum(T[x, cols][:, None], T[x, cols][None, :])
        hits = np.argwhere(lhs > rhs[np.ix_(cols, cols)])[: limit + 1 - len(out)]
        out.update((x, int(cols[y]), int(cols[z])) for y, z in hits)
        if len(out) > limit:
            break
    return out


def e1_loop_family(C):
    """The violating triples derived in docs/nine_letter_example.md.

    With the single e1 loop (p, q) in Pe1, every (a, b) in PH and every
    PH successor c of p give x = a p^inf, y = b q^inf, z = a.c q^inf:
    (x,y) and (x,z) enter e1 at steps 1 and 2 and loop forever, while
    (y,z) enters -e1 and exits at step 2.  Both orders of y and z count.
    Empty when p has no PH successor.
    """
    ((p, q),) = C.Pe1
    out = set()
    for a, b in C.PH:
        for pc, c in C.PH:
            if pc != p:
                continue
            x = PeriodicWord.from_stem((a,), p)
            y = PeriodicWord.from_stem((b,), q)
            z = PeriodicWord.from_stem((a, c), q)
            out |= {(x, y, z), (x, z, y)}
    return out


def fmt_time(t):
    return "\u221e" if is_infinite(t) else str(t)


def test_criterion_02_cross_feasibility_nine_letter_example():
    # EXTENDED_9 violates feasibility exactly on the e1-loop family;
    # CARPET_8, the same automaton without (5,9), satisfies it.  Both are
    # checked on every distinct word with stem <= 2 and a constant tail.
    problems = []
    results = {}
    for name, C in (("EXTENDED_9", EXTENDED_9), ("CARPET_8", CARPET_8)):
        M = C.induced_automaton()
        pool = constant_tail_pool(C.alphabet_size, 2)
        words = [PeriodicWord.from_stem(s, c) for s, c in pool]
        T = time_matrix(M, [s for s, _ in pool], [c for _, c in pool])
        violating = {
            (words[x], words[y], words[z])
            for x, y, z in feasibility_violations(T, t0=1)
        }
        count = check_feasibility_matrix(T, t0=1)
        family = e1_loop_family(C)
        if count != len(violating) or violating != family:
            problems.append(
                f"{name}: {count} violations, not the {len(family)} of the e1-loop family"
            )
        for x, y, z in family:
            times = [surviving_time(M, u, v) for u, v in ((x, y), (x, z), (y, z))]
            if not (is_infinite(times[0]) and is_infinite(times[1]) and times[2] == 1):
                problems.append(f"{name}: scalar times {times} on {x} {y} {z}")
        coding_free, _ = decide_triple_coding_free(C)
        if coding_free != (count == 0):
            problems.append(f"{name}: decide_triple_coding_free disagrees")
        results[name] = (len(words), count, violating, M)
    size_9, count_9, violating_9, M9 = results["EXTENDED_9"]
    size_8, count_8, _, _ = results["CARPET_8"]
    documented = (parse_word("(5)"), parse_word("9(1)"), parse_word("5.9(1)"))
    if documented not in violating_9:
        problems.append("the documented witness x=(5) y=9(1) z=5.9(1) does not violate")
    if count_8:
        problems.append("CARPET_8 violates feasibility")
    detail = f"EXTENDED_9 has {count_9} violations over {size_9} distinct words"
    if violating_9:
        x, y, z = min(violating_9, key=lambda t: [(len(w.preperiod), str(w)) for w in t])
        txy, txz, tyz = (fmt_time(surviving_time(M9, u, v)) for u, v in ((x, y), (x, z), (y, z)))
        detail += f", e.g. x={x} y={y} z={z} with T(x,y)={txy} T(x,z)={txz} T(y,z)={tyz}"
    detail += f"; CARPET_8 has {count_8} over {size_8}"
    ok = not problems
    line = report(2, "cross feasibility, nine-letter automaton", ok,
                  "; ".join([detail] + problems))
    assert ok, line


# --- criterion 3: three-way intersection oracle agreement ---------------


def test_criterion_03_oracle_agreement():
    rng = random.Random(103)
    mismatches = 0
    for _ in range(100):
        spec = random_carpet(rng, max_div=4, max_digits=16)
        oracle = build_oracle(spec)
        if oracle.survivors != chain_survivors(spec):
            mismatches += 1
            continue
        for b in OFFSETS:
            if b != (0, 0) and oracle.intersects(b) != raster_overlap(spec, b):
                mismatches += 1
                break
    ok = mismatches == 0
    line = report(3, "oracle agreement on 100 digit sets", ok,
                  f"{mismatches} mismatching digit sets")
    assert ok, line


# --- criteria 4-6: the symbolic bijection, exhaustively -----------------

CTX5 = GContext(gamma=1, lam=2, kappa=3, tau=4)  # letter 5 is neutral


@pytest.fixture(scope="module")
def g_images():
    pool = omega_pool(5, CTX5.kappa, 8)
    images = [g_apply(CTX5, w) for w in pool]
    return pool, images


def test_criterion_04_g_bijectivity(g_images):
    pool, images = g_images
    injective = len({u.stem for u in images}) == len(pool)
    inverted = all(h_apply(CTX5, u) == w for u, w in zip(images, pool))
    ok = injective and inverted
    line = report(4, "g bijectivity, stems <= 8 over 5 letters", ok,
                  f"{len(pool)} words, injective={injective}, h(g(x))=x={inverted}")
    assert ok, line


def test_criterion_05_prefix_bound(g_images):
    pool, images = g_images
    rng = random.Random(105)
    bad = 0
    pairs = 1_000_000

    def prefix(u, v):
        n = max(len(u.stem), len(v.stem)) + 1
        for k in range(1, n + 1):
            if u.letter(k) != v.letter(k):
                return k - 1
        return n  # equal words: any value beyond both stems works here

    for _ in range(pairs):
        a = rng.randrange(len(pool))
        b = rng.randrange(len(pool))
        if prefix(images[a], images[b]) < prefix(pool[a], pool[b]) - 2:
            bad += 1
    ok = bad == 0
    line = report(5, "prefix bound |g(x)^g(y)| >= |x^y|-2", ok,
                  f"{bad} violations over {pairs} sampled pairs")
    assert ok, line


def test_criterion_06_gamma_free_prefix_preserved(g_images):
    pool, images = g_images
    bad = 0
    checked = 0
    for w, u in zip(pool, images):
        k = 0
        while w.letter(k + 1) != CTX5.gamma and k < len(w.stem):
            k += 1
        if w.letter(k + 1) != CTX5.gamma:
            k += 1  # gamma never occurs: the whole stem plus tail counts
        if k < 3:
            continue
        checked += 1
        if any(u.letter(i) != w.letter(i) for i in range(1, k - 1)):
            bad += 1
    ok = bad == 0 and checked > 0
    line = report(6, "gamma-free prefixes preserved up to k-2", ok,
                  f"{bad} violations over {checked} words")
    assert ok, line


# --- criteria 7-8: distortion and exit bounds on derived automata -------


def distortion_steps():
    """Every simplification step of the derived top-isolated carpets."""
    for spec in DISTORTION_CARPETS:
        C = from_topology_automaton(build_topology_automaton(spec))
        for step in final_chain(C).steps:
            gamma, lam = step.top_bottom
            tau, kappa = step.deleted
            assert step.g_supported, (spec, step.deleted)
            yield spec, step, GContext(gamma, lam, kappa, tau)


def test_criterion_07_distortion_bound():
    bad = 0
    steps = 0
    for spec, step, ctx in distortion_steps():
        steps += 1
        N = step.before.alphabet_size
        pool = omega_pool(N, ctx.kappa, 6)
        images = [g_apply(ctx, w) for w in pool]
        Mb = step.before.induced_automaton()
        Ma = step.after.induced_automaton()
        Tb = time_matrix(Mb, [w.stem for w in pool], [w.kappa for w in pool])
        Ta = time_matrix(Ma, [u.stem for u in images], [u.kappa for u in images])
        inf_b = Tb == INF
        inf_a = Ta == INF
        bad += int((inf_b != inf_a).sum())
        both = ~inf_b & ~inf_a
        bad += int((np.abs(Tb[both] - Ta[both]) > 4).sum())
    ok = bad == 0 and steps >= 10
    line = report(7, "distortion |T - T'(g.,g.)| <= 4", ok,
                  f"{bad} violating pairs across {steps} simplification steps")
    assert ok, line


def test_criterion_08_exit_bounds():
    bad = 0
    checked = 0
    for spec, step, ctx in distortion_steps():
        N = step.before.alphabet_size
        Mb = step.before.induced_automaton()
        Ma = step.after.induced_automaton()
        b_pool = omega_pool(N, ctx.kappa, 4)
        for k in range(0, 5):
            a = OmegaWord((ctx.lam,) * k + (ctx.kappa, ctx.gamma), ctx.kappa)
            ap = a.to_periodic()
            for b in b_pool:
                if b.letter(1) == a.letter(1):
                    continue
                checked += 1
                for M in (Mb, Ma):
                    t = surviving_time(M, ap, b.to_periodic())
                    if is_infinite(t) or t > 2:
                        bad += 1
    ok = bad == 0
    line = report(8, "exit bounds T in {0,1,2}", ok,
                  f"{bad} violations over {checked} word pairs x 2 automata")
    assert ok, line


# --- criterion 9: reconstruction of the worked examples -----------------


def test_criterion_09_reconstruction():
    problems = []
    prof_e = profile(TOP_ISOLATED_11)
    prof_f = profile(VSEP_11)
    want = (1, 1, 1, 1, 2, 5)  # full row, size-2 block, four size-1 blocks
    if prof_e.block_sizes != want or prof_f.block_sizes != want:
        problems.append("eleven-cylinder profiles")
    if prof_e.pair_sizes != ((1, 1),) or prof_f.pair_sizes != ((1, 1),):
        problems.append("(1,1) pair")
    if decide_equivalence(TOP_ISOLATED_11, VSEP_11).status != "HolderEquivalent":
        problems.append("Holder verdict")
    for spec in (SQUARE_VSEP_5, SQUARE_TOP_5):
        if profile(spec).block_sizes != (1, 1, 3):
            problems.append("five-cylinder profile")
    if decide_equivalence(SQUARE_VSEP_5, SQUARE_TOP_5).status != "LipschitzEquivalent":
        problems.append("Lipschitz verdict")
    # exhaustive isometry of the final automata of the square pair
    bij = build_letter_bijection(SQUARE_VSEP_5, SQUARE_TOP_5)
    pool = constant_tail_pool(5, 4)
    mapped = [
        (tuple(bij(a) for a in stem), bij(c)) for stem, c in pool
    ]
    Me = final_automaton(SQUARE_VSEP_5)
    Mf = final_automaton(SQUARE_TOP_5)
    Te = time_matrix(Me, [s for s, _ in pool], [c for _, c in pool])
    Tf = time_matrix(Mf, [s for s, _ in mapped], [c for _, c in mapped])
    mismatches = int((Te != Tf).sum())
    if mismatches:
        problems.append(f"{mismatches} isometry mismatches")
    ok = not problems
    line = report(9, "worked-example reconstruction", ok,
                  "; ".join(problems) or f"isometry exhaustive over {len(pool)} words")
    assert ok, line


# --- criterion 10: projection bounds ------------------------------------


def test_criterion_10_projection_bounds():
    rng = random.Random(110)
    violations = 0
    infinite_seen = 0
    per_carpet = 200
    for spec in PROJECTION_CARPETS:
        M = build_topology_automaton(spec)
        N = len(spec.digits)
        r_star = float(max(spec.horizontal_ratios() + spec.vertical_ratios()))
        depth = max(2, math.ceil(math.log(3e-10) / math.log(r_star)))
        pairs = []
        while len(pairs) < per_carpet:
            pre1 = tuple(rng.randint(1, N) for _ in range(rng.randint(0, 2)))
            pre2 = tuple(rng.randint(1, N) for _ in range(rng.randint(0, 2)))
            pairs.append(
                (
                    PeriodicWord(pre1, (rng.randint(1, N),)),
                    PeriodicWord(pre2, (rng.randint(1, N),)),
                )
            )
        # engineered double spellings: adjacent cylinders staying glued
        # (only available when the automaton has no diagonal states)
        try:
            C = from_topology_automaton(M)
        except DiagonalStatePresent:
            C = None
        if C is not None:
            for (i, j) in sorted(C.PH):
                for (a, b) in sorted(C.Pe1):
                    x = PeriodicWord((i,), (a,))
                    y = PeriodicWord((j,), (b,))
                    if is_infinite(surviving_time(M, x, y)):
                        pairs.append((x, y))
        report_ = check_projection_bounds(spec, M, pairs, depth=depth)
        violations += report_.violations
        infinite_seen += sum(1 for r in report_.records if r.to_dict()["T"] is None)
    ok = violations == 0 and infinite_seen > 0
    line = report(10, "projection upper bound and coincidence", ok,
                  f"{violations} violations; {infinite_seen} infinite-time pairs checked")
    assert ok, line


# --- criterion 11: simplification chain structure -----------------------


def test_criterion_11_chain_structure():
    specs = DISTORTION_CARPETS + (CHAIN2_CARPET, TOP_ISOLATED_11, SQUARE_TOP_5)
    problems = []
    for spec in specs:
        C = from_topology_automaton(build_topology_automaton(spec))
        if classify(C).kind not in ("Class1", "Class2"):
            problems.append(f"{spec.digits}: not Class 2")
            continue
        validate(C)
        chain = final_chain(C, validate_stages=True)
        if len(chain.steps) != len(C.PV):
            problems.append(f"{spec.digits}: chain length {len(chain.steps)} != |PV| {len(C.PV)}")
        if chain.final.PV:
            problems.append(f"{spec.digits}: final PV nonempty")
        if classify(chain.final).kind != "Class0":
            problems.append(f"{spec.digits}: final automaton not Class 0")
    ok = not problems
    line = report(11, "simplification chain structure", ok,
                  "; ".join(problems) or f"{len(specs)} automata")
    assert ok, line

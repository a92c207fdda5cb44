import json
import random
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

from carpetauto.automaton import EXIT, ID, random_word, surviving_time
from carpetauto.carpet import CarpetSpec, block_scan, h_blocks, parse_carpet, profile, row_pairs
from carpetauto.classify import (
    LetterBijection,
    _split_blocks,
    build_letter_bijection,
    decide_equivalence,
    decide_isometry,
    final_automaton,
)
from carpetauto.cli import random_carpet
from carpetauto.words import PeriodicWord

from conftest import SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11, VSEP_11


def test_bijection_between_the_square_fixtures():
    bij = build_letter_bijection(SQUARE_VSEP_5, SQUARE_TOP_5)
    assert sorted(bij.mapping) == [1, 2, 3, 4, 5]
    assert sorted(bij.mapping.values()) == [1, 2, 3, 4, 5]
    # the full rows map to each other letterwise
    assert [bij(k) for k in (2, 3, 4)] == [1, 2, 3]


def test_bijection_dict_is_serializable():
    bij = build_letter_bijection(TOP_ISOLATED_11, VSEP_11)
    d = bij.to_dict()
    assert json.dumps(d)
    assert len(d["map"]) == 11


def test_bijection_rejects_mismatched_blocks():
    small = parse_carpet("#..\n...\n##.")
    with pytest.raises(ValueError):
        build_letter_bijection(SQUARE_TOP_5, small)


def test_holder_equivalence_of_reconstruction_pair():
    verdict = decide_equivalence(TOP_ISOLATED_11, VSEP_11)
    assert verdict.status == "HolderEquivalent"
    assert verdict.certificate is not None
    assert all(r.passed for r in verdict.reasons)


def test_lipschitz_equivalence_of_square_pair():
    verdict = decide_equivalence(SQUARE_VSEP_5, SQUARE_TOP_5)
    assert verdict.status == "LipschitzEquivalent"
    assert verdict.certificate is not None


def test_reflexive_equivalence_is_lipschitz():
    verdict = decide_equivalence(SQUARE_TOP_5, SQUARE_TOP_5)
    assert verdict.status == "LipschitzEquivalent"


def test_inconclusive_on_different_divisions():
    other = parse_carpet("##\n.#")
    verdict = decide_equivalence(SQUARE_TOP_5, other)
    assert verdict.status == "Inconclusive"
    failed = [r.name for r in verdict.reasons if not r.passed]
    assert "equalHorizontalDivisions" in failed
    assert verdict.certificate is None


def test_inconclusive_on_profile_mismatch():
    other = CarpetSpec(3, 3, ((0, 0), (1, 0), (0, 1), (1, 2)))
    verdict = decide_equivalence(SQUARE_TOP_5, other)
    assert verdict.status == "Inconclusive"
    failed = {r.name for r in verdict.reasons if not r.passed}
    assert "blockSizesMatch" in failed


def test_inconclusive_never_claims_nonequivalence():
    verdict = decide_equivalence(SQUARE_TOP_5, parse_carpet("##\n.#"))
    data = json.loads(verdict.to_json())
    assert data["status"] == "Inconclusive"
    assert data["certificate"] is None
    assert {r["name"] for r in data["hypotheses"]}


def reference_isometry_mismatches(E, F, bij, pairs):
    """The sampled check `decide_isometry` replaced: the pairs (x, y) of
    E-words whose surviving time differs from that of their letterwise image."""
    me = final_automaton(E)
    mf = final_automaton(F)

    def image(w):
        return PeriodicWord(tuple(bij(a) for a in w.preperiod), tuple(bij(a) for a in w.period))

    mismatches = []
    for x, y in pairs:
        te = surviving_time(me, x, y)
        tf = surviving_time(mf, image(x), image(y))
        if te != tf:
            mismatches.append((x, y, te, tf))
    return mismatches


def dense_isometry_witness(E, F, bij):
    """A breadth-first search of the two final automata over all N^2 letter
    pairs in sorted order: the word pair of the first path to a state with
    exactly one Exit, then the letter 1 forever, or None."""
    me, mf = final_automaton(E), final_automaton(F)
    parent = {(ID, ID): None}
    queue = deque(parent)
    while queue:
        state = queue.popleft()
        for i in me.letters():
            for j in me.letters():
                nxt = (me.step(state[0], i, j), mf.step(state[1], bij(i), bij(j)))
                if nxt in parent:
                    continue
                parent[nxt] = (state, (i, j))
                if nxt.count(EXIT) == 1:
                    path = []
                    while parent[nxt] is not None:
                        nxt, move = parent[nxt]
                        path.append(move)
                    path.reverse()
                    return tuple(PeriodicWord(tuple(p[r] for p in path), (1,)) for r in (0, 1))
                queue.append(nxt)
    return None


def test_final_automata_are_isometric_under_the_bijection():
    bij = build_letter_bijection(SQUARE_VSEP_5, SQUARE_TOP_5)
    rng = random.Random(41)
    pairs = [(random_word(rng, 5), random_word(rng, 5)) for _ in range(150)]
    assert reference_isometry_mismatches(SQUARE_VSEP_5, SQUARE_TOP_5, bij, pairs) == []
    assert decide_isometry(SQUARE_VSEP_5, SQUARE_TOP_5, bij) == (True, None)


def test_final_automata_of_holder_pair_are_isometric():
    bij = build_letter_bijection(TOP_ISOLATED_11, VSEP_11)
    rng = random.Random(43)
    pairs = [(random_word(rng, 11), random_word(rng, 11)) for _ in range(100)]
    assert reference_isometry_mismatches(TOP_ISOLATED_11, VSEP_11, bij, pairs) == []
    assert decide_isometry(TOP_ISOLATED_11, VSEP_11, bij) == (True, None)


@pytest.fixture(scope="module")
def certified_pairs():
    """(E, F, certificate) for every unordered pair of equal n among 300
    seeded random carpets to which `decide_equivalence` gives a certificate."""
    rng = random.Random(5)
    specs = [random_carpet(rng) for _ in range(300)]
    found = []
    for E, F in combinations(specs, 2):
        if E.n == F.n and (bij := decide_equivalence(E, F).certificate) is not None:
            found.append((E, F, bij))
    return found


def test_every_certified_pair_of_a_seeded_family_is_isometric(certified_pairs):
    assert len(certified_pairs) >= 100
    for E, F, bij in certified_pairs:
        assert decide_isometry(E, F, bij) == (True, None), (E, F)


def test_a_broken_bijection_gives_the_dense_search_witness(certified_pairs):
    witnesses = 0
    for E, F in [(E, F) for E, F, _ in certified_pairs] + [(F, E) for E, F, _ in certified_pairs]:
        mapping = dict(decide_equivalence(E, F).certificate.mapping)
        last = len(mapping)
        mapping[1], mapping[last] = mapping[last], mapping[1]
        bij = LetterBijection(mapping, ())
        isometric, witness = decide_isometry(E, F, bij)
        assert witness == dense_isometry_witness(E, F, bij), (E, F)
        if not isometric:
            witnesses += 1
            assert len(reference_isometry_mismatches(E, F, bij, [witness])) == 1  # times differ
    assert witnesses >= 10


def test_decide_isometry_refuses_a_map_that_is_no_bijection():
    identity = {a: a for a in range(1, 6)}
    for mapping, F in (({**identity, 2: 1}, SQUARE_TOP_5),  # 1 twice, 2 never
                       ({**identity, 6: 6}, SQUARE_TOP_5),  # a letter E lacks
                       (identity, TOP_ISOLATED_11)):  # onto 5 of F's 11 letters
        with pytest.raises(ValueError, match="no bijection"):
            decide_isometry(SQUARE_VSEP_5, F, LetterBijection(mapping, ()))


def test_final_automaton_has_no_vertical_entries(monkeypatch):
    from carpetauto import cross
    from carpetauto.automaton import ID

    # a carpet's cross automaton needs no triple search (docs/carpet_cross_axioms.md)
    monkeypatch.setattr(cross, "decide_triple_coding_free", None)
    M = final_automaton(SQUARE_TOP_5)
    for i in M.letters():
        for j in M.letters():
            assert M.step(ID, i, j) not in ((0, 1), (0, -1))


def reference_pair_sizes(spec):
    """The per-row pairing loop `profile` ran before `row_pairs`."""
    blocks = h_blocks(spec)
    pairs = []
    for row in range(spec.m):
        lefts = [b for b in blocks if b.row == row and b.kind == "Left"]
        rights = [b for b in blocks if b.row == row and b.kind == "Right"]
        if lefts and rights:
            pairs.append((lefts[0].size, rights[0].size))
    return tuple(sorted(pairs))


def reference_split_blocks(spec):
    """The per-row pairing loop `_split_blocks` ran before `row_pairs`."""
    by_row = {}
    for b in h_blocks(spec):
        by_row.setdefault(b.row, []).append(b)
    pairs = []
    free = []
    for row in sorted(by_row):
        lefts = [b for b in by_row[row] if b.kind == "Left"]
        rights = [b for b in by_row[row] if b.kind == "Right"]
        if lefts and rights:
            pairs.append((lefts[0], rights[0]))
            used = {lefts[0], rights[0]}
        else:
            used = set()
        free.extend(b for b in by_row[row] if b not in used)
    pairs.sort(key=lambda p: (p[0].size, p[1].size, p[0].row))
    free.sort(key=lambda b: (b.size, b.row, b.columns[0]))
    return pairs, free


def random_ratios(rng, count):
    weights = [rng.randint(1, 4) for _ in range(count)]
    return tuple(Fraction(w, sum(weights)) for w in weights)


def test_row_pairs_match_the_per_row_loops_on_random_carpets():
    rng = random.Random(20261019)
    seen = {"ratios": 0, "pairs": 0, "free": 0}
    for _ in range(400):
        n, m = rng.randint(2, 8), rng.randint(2, 8)
        cells = [(a, b) for a in range(n) for b in range(m)]
        digits = tuple(rng.sample(cells, rng.randint(1, len(cells))))
        spec = CarpetSpec(n, m, digits)
        if rng.random() < 1 / 3:
            seen["ratios"] += 1
            spec = CarpetSpec(n, m, digits, random_ratios(rng, n), random_ratios(rng, m))
        pairs = row_pairs(h_blocks(spec))
        assert [left.row for left, _ in pairs] == sorted({left.row for left, _ in pairs})
        assert all(left.row == right.row for left, right in pairs)
        assert profile(spec).pair_sizes == reference_pair_sizes(spec)
        assert _split_blocks(*block_scan(spec)) == reference_split_blocks(spec)
        seen["pairs"] += len(pairs)
        seen["free"] += len(_split_blocks(*block_scan(spec))[1])
    assert min(seen.values()) >= 100, seen


def test_decide_equivalence_scans_each_carpets_blocks_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return h_blocks(spec)

    for name, module in list(sys.modules.items()):  # every module that binds h_blocks
        if name.split(".")[0] == "carpetauto" and getattr(module, "h_blocks", None) is h_blocks:
            monkeypatch.setattr(module, "h_blocks", counted)
    verdict = decide_equivalence(TOP_ISOLATED_11, VSEP_11)
    assert verdict.status == "HolderEquivalent"  # the checklist passed: the certificate ran
    assert calls == [TOP_ISOLATED_11, VSEP_11]

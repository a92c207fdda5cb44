import json
import random
import sys
from fractions import Fraction

import pytest

from carpetauto.automaton import random_word
from carpetauto.carpet import CarpetSpec, block_scan, h_blocks, parse_carpet, profile, row_pairs
from carpetauto.classify import (
    _split_blocks,
    build_letter_bijection,
    decide_equivalence,
    final_automaton,
    isometry_check,
)

from conftest import SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11, VSEP_11


def test_bijection_between_the_square_fixtures():
    bij = build_letter_bijection(SQUARE_VSEP_5, SQUARE_TOP_5)
    assert sorted(bij.mapping) == [1, 2, 3, 4, 5]
    assert sorted(bij.mapping.values()) == [1, 2, 3, 4, 5]
    # the full rows map to each other letterwise
    assert [bij(k) for k in (2, 3, 4)] == [1, 2, 3]


def test_bijection_word_images():
    bij = build_letter_bijection(SQUARE_VSEP_5, SQUARE_TOP_5)
    from carpetauto.words import parse_word

    w = parse_word("2.3(4)")
    assert bij.apply_word(w) == parse_word("1.2(3)")


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


def test_final_automata_are_isometric_under_the_bijection():
    bij = build_letter_bijection(SQUARE_VSEP_5, SQUARE_TOP_5)
    rng = random.Random(41)
    pairs = [(random_word(rng, 5), random_word(rng, 5)) for _ in range(150)]
    assert isometry_check(SQUARE_VSEP_5, SQUARE_TOP_5, bij, pairs) == []


def test_final_automata_of_holder_pair_are_isometric():
    bij = build_letter_bijection(TOP_ISOLATED_11, VSEP_11)
    rng = random.Random(43)
    pairs = [(random_word(rng, 11), random_word(rng, 11)) for _ in range(100)]
    assert isometry_check(TOP_ISOLATED_11, VSEP_11, bij, pairs) == []


def test_final_automaton_has_no_vertical_entries():
    from carpetauto.automaton import ID

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

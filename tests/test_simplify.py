import json
import random
from collections import Counter
from pathlib import Path

import pytest

from carpetauto.automaton import build_topology_automaton
from carpetauto.carpet import parse_carpet
from carpetauto.cross import (
    CrossAutomaton,
    CrossAutomatonError,
    DiagonalStatePresent,
    classify,
    cross_from_json,
    from_topology_automaton,
)
from carpetauto.simplify import NotClass2, final_chain, one_step

from conftest import CHAIN2_CARPET, SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11
from test_cross import class12_carpet


def carpet_cross(spec):
    return from_topology_automaton(build_topology_automaton(spec))


def test_one_step_deletes_exactly_one_vertical_edge():
    C = carpet_cross(SQUARE_TOP_5)
    step = one_step(C, classify(C, origin=SQUARE_TOP_5))
    assert step.deleted in C.PV
    assert step.after.PV == C.PV - {step.deleted}
    assert step.after.PH == C.PH
    assert step.after.Pe1 == C.Pe1
    assert step.after.Pe2 == C.Pe2


def test_one_step_rejects_class0():
    C = carpet_cross(SQUARE_VSEP_5)
    with pytest.raises(NotClass2):
        one_step(C)


def test_one_step_target_is_v_maximal():
    C = carpet_cross(CHAIN2_CARPET)
    step = one_step(C)
    _, kappa = step.deleted
    assert not any(i == kappa for i, _ in C.PV)


def test_final_chain_lengths():
    for spec, expected in ((SQUARE_VSEP_5, 0), (SQUARE_TOP_5, 1),
                           (CHAIN2_CARPET, 2), (TOP_ISOLATED_11, 2)):
        C = carpet_cross(spec)
        chain = final_chain(C)
        assert len(chain.steps) == expected == len(C.PV)
        assert not chain.final.PV
        assert classify(chain.final).kind == "Class0"


def test_chain_stages_are_consistent():
    chain = final_chain(carpet_cross(CHAIN2_CARPET))
    assert chain.stages[0].PV > chain.stages[1].PV > chain.stages[2].PV
    for step, before, after in zip(chain.steps, chain.stages, chain.stages[1:]):
        assert step.before == before and step.after == after


def test_a_step_carries_the_class_of_its_result():
    chain = final_chain(carpet_cross(CHAIN2_CARPET))
    assert [s.after_class.kind for s in chain.steps] == ["Class2", "Class0"]
    assert all(s.after_class == classify(s.after) for s in chain.steps)


def random_matching(rng, letters, size):
    """A random partial matching of at most `size` edges on the letters,
    with no reflexive pair."""
    sources = rng.sample(letters, min(size, len(letters)))
    targets = rng.sample(letters, len(sources))
    return {(i, j) for i, j in zip(sources, targets) if i != j}


def random_class2_chain_inputs(rng):
    """Class-1/2 cross automata: those of random carpets biased towards
    Class 1 and 2, and random partial matchings around Pe2 = {(gamma, lam)}
    (these are not all free of triple coding, so their chains are built
    without validation)."""
    while True:
        if rng.random() < 0.5:
            spec = class12_carpet(rng)
            try:
                C = from_topology_automaton(build_topology_automaton(spec))
            except DiagonalStatePresent:
                continue
            cls, validate_stages = classify(C, origin=spec), True
        else:
            N = rng.randint(3, 10)
            gamma, lam = rng.sample(range(1, N + 1), 2)
            others = [a for a in range(1, N + 1) if a != gamma]
            try:
                C = CrossAutomaton(N, random_matching(rng, others, rng.randint(0, N)),
                                   random_matching(rng, others, rng.randint(1, N)),
                                   random_matching(rng, others, rng.randint(0, N)),
                                   {(gamma, lam)})
            except CrossAutomatonError:
                continue
            cls, validate_stages = classify(C), False
        if cls.kind in ("Class1", "Class2"):
            try:
                yield C, final_chain(C, validate_stages)
            except CrossAutomatonError:
                continue


def catalog_chains():
    """The cross automata of the benchmark catalog's simplify inputs."""
    catalog = Path(__file__).resolve().parents[1] / "bench" / "data" / "catalog.json"
    simplify = json.loads(catalog.read_text())["simplify"]
    for entry in [*(e for entries in simplify["classes"].values() for e in entries),
                  simplify["accepted"]]:
        text = entry["text"]
        if text.lstrip().startswith("{"):
            yield cross_from_json(text)
        else:
            yield carpet_cross(parse_carpet(text))


def test_each_step_carries_the_class_classify_gives():
    """one_step reads the class of its result from its input's class; on
    random Class-1/2 chains and on the catalog's simplify inputs it is
    the class that classify gives the result."""
    rng = random.Random(20261020)
    kinds = Counter()
    inputs = random_class2_chain_inputs(rng)
    chains = [next(inputs) for _ in range(2000)]
    chains += [(C, final_chain(C)) for C in catalog_chains()]
    for C, chain in chains:
        assert len(chain.steps) == len(C.PV) > 0, C
        for step in chain.steps:
            assert step.after_class == classify(step.after), step
            before = step.before
            assert step.after == CrossAutomaton(before.alphabet_size, before.PH,
                                                before.PV - {step.deleted}, before.Pe1,
                                                before.Pe2), step
            kinds[step.after_class.kind] += 1
    assert kinds["Class2"] >= 2000 and kinds["Class0"] == len(chains), kinds


def test_a_chain_builds_no_stage_through_the_constructor(monkeypatch):
    """Each stage is derived from its checked input, so final_chain never
    runs the constructor's checks again."""
    C = carpet_cross(TOP_ISOLATED_11)
    runs = []
    new = CrossAutomaton.__new__
    monkeypatch.setattr(CrossAutomaton, "__new__",
                        lambda cls, *fields: runs.append(fields) or new(cls, *fields))
    chain = final_chain(C)
    assert len(chain.steps) >= 2 and runs == []
    CrossAutomaton(C.alphabet_size, C.PH, C.PV, C.Pe1, C.Pe2)
    assert len(runs) == 1


def test_chain_rejects_relations_that_are_not_matchings():
    # kappa = 3 has two vertical predecessors: deleting one edge into it
    # cannot leave it V-isolated
    C = CrossAutomaton(5, set(), {(1, 3), (2, 3)}, set(), {(4, 5)})
    assert classify(C).kind == "Class2"
    with pytest.raises(CrossAutomatonError, match="two predecessors"):
        final_chain(C)


def test_chain_is_deterministic():
    C = carpet_cross(TOP_ISOLATED_11)
    a = final_chain(C)
    b = final_chain(C)
    assert [s.deleted for s in a.steps] == [s.deleted for s in b.steps]


def test_g_supported_flag():
    chain = final_chain(carpet_cross(CHAIN2_CARPET))
    assert all(s.g_supported for s in chain.steps)
    # a hypothetical step deleting an edge into the bottom vertex is not
    # supported by the symbolic map
    C = CrossAutomaton(4, set(), {(3, 2)}, set(), {(1, 2)})
    after = CrossAutomaton(4, set(), set(), set(), {(1, 2)})
    from carpetauto.simplify import SimplificationStep

    step = SimplificationStep(C, after, (3, 2), (1, 2), classify(after))
    assert not step.g_supported


def test_chain_json():
    chain = final_chain(carpet_cross(CHAIN2_CARPET))
    data = json.loads(chain.to_json())
    assert len(data) == 2
    assert set(data[0]) == {"deleted", "topBottom", "before", "after", "gSupported"}

import json

import pytest

from carpetauto.automaton import build_topology_automaton
from carpetauto.cross import CrossAutomaton, CrossAutomatonError, classify, from_topology_automaton
from carpetauto.simplify import NotClass2, final_chain, one_step

from conftest import CHAIN2_CARPET, SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11


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

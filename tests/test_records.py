"""Records are immutable named tuples that keep the reprs, value equality
and value hashing of the frozen dataclasses they replace."""

from fractions import Fraction

import pytest

from carpetauto.automaton import EXIT, ID, SigmaAutomaton, build_topology_automaton
from carpetauto.automaton import AutomatonError
from carpetauto.carpet import CarpetError, CarpetSpec, ConditionReport, HBlock, HBlockProfile
from carpetauto.classify import EquivalenceVerdict, HypothesisRecord, LetterBijection
from carpetauto.cross import (
    Classification,
    CrossAutomaton,
    CrossAutomatonError,
    from_topology_automaton,
)
from carpetauto.geometry import IntersectionOracle
from carpetauto.gmap import GContext, OmegaWord, g_apply
from carpetauto.metric import HolderScale, ProjectionRecord, ProjectionReport, PseudoDistance
from carpetauto.simplify import SimplificationChain, SimplificationStep, one_step
from carpetauto.words import PeriodicWord

from conftest import TOP_ISOLATED_11


def sigma():
    return SigmaAutomaton(1, frozenset({ID, EXIT}), {(ID, 1, 1): ID})


def cross():
    return CrossAutomaton(3, {(1, 2)}, [(2, 3)], (), frozenset({(1, 3)}))


def hypothesis():
    return HypothesisRecord("sameN", True, "n = 3")


def projection():
    return ProjectionRecord(2, 0.25, 0.5, True)


def step():
    after = CrossAutomaton(3, {(1, 2)}, (), (), {(1, 3)})
    return SimplificationStep(cross(), after, (2, 3), (1, 3), Classification("Class0"))


CROSS_SHOWN = ("CrossAutomaton(alphabet_size=3, PH=frozenset({(1, 2)}), PV=frozenset({(2, 3)}), "
               "Pe1=frozenset(), Pe2=frozenset({(1, 3)}))")
STEP_SHOWN = (
    f"SimplificationStep(before={CROSS_SHOWN}, after=CrossAutomaton(alphabet_size=3, "
    "PH=frozenset({(1, 2)}), PV=frozenset(), Pe1=frozenset(), Pe2=frozenset({(1, 3)})), "
    "deleted=(2, 3), top_bottom=(1, 3), "
    "after_class=Classification(kind='Class0', top=None, bottom=None, reason=None))"
)

# (a fresh record, its repr as the frozen dataclasses printed it)
RECORDS = [
    (sigma, "SigmaAutomaton(alphabet_size=1, states=frozenset({'Id', 'Exit'}), "
            "delta={('Id', 1, 1): 'Id'})"),
    (lambda: CarpetSpec(2, 2, [(1, 1), (0, 0)], hratios=("1/3", Fraction(2, 3))),
     "CarpetSpec(n=2, m=2, digits=((0, 0), (1, 1)), "
     "hratios=(Fraction(1, 3), Fraction(2, 3)), vratios=None)"),
    (lambda: ConditionReport(True, False, True, 3),
     "ConditionReport(cross_intersection=True, vertical_separation=False, top_isolated=True, "
     "top_letter=3)"),
    (lambda: HBlock(0, (0, 1), (1, 2), "Left"),
     "HBlock(row=0, columns=(0, 1), letters=(1, 2), kind='Left')"),
    (lambda: HBlockProfile((1, 2), ((1, 1),), (2, 1)),
     "HBlockProfile(block_sizes=(1, 2), pair_sizes=((1, 1),), fiber=(2, 1))"),
    (lambda: LetterBijection({1: 2, 2: 1}, ()),
     "LetterBijection(mapping={1: 2, 2: 1}, block_matching=())"),
    (hypothesis, "HypothesisRecord(name='sameN', passed=True, detail='n = 3')"),
    (lambda: EquivalenceVerdict("Inconclusive", (hypothesis(),), None),
     "EquivalenceVerdict(status='Inconclusive', reasons=(HypothesisRecord(name='sameN', "
     "passed=True, detail='n = 3'),), certificate=None)"),
    (cross, CROSS_SHOWN),
    (lambda: Classification("Class2", top=1, bottom=3),
     "Classification(kind='Class2', top=1, bottom=3, reason=None)"),
    (lambda: IntersectionOracle(frozenset({(0, 0), (1, 0)})),
     "IntersectionOracle(survivors=frozenset({(1, 0), (0, 0)}))"),
    (lambda: GContext(1, 2, 3, 4), "GContext(gamma=1, lam=2, kappa=3, tau=4)"),
    (lambda: OmegaWord([1, 3, 3], 3), "OmegaWord(stem=(1,), kappa=3)"),
    (lambda: HolderScale(Fraction(1, 2), Fraction(1, 3), 0.5, 0.25),
     "HolderScale(r_star=Fraction(1, 2), r_sub=Fraction(1, 3), s=0.5, xi=0.25)"),
    (lambda: PseudoDistance(0.25, 2), "PseudoDistance(value=0.25, time=2)"),
    (projection, "ProjectionRecord(time=2, rho=0.25, euclidean=0.5, upper_ok=True)"),
    (lambda: ProjectionReport((projection(),), None, 0),
     "ProjectionReport(records=(ProjectionRecord(time=2, rho=0.25, euclidean=0.5, "
     "upper_ok=True),), fitted_lower_c=None, violations=0)"),
    (step, STEP_SHOWN),
    (lambda: SimplificationChain((cross(),), ()),
     f"SimplificationChain(stages=({CROSS_SHOWN},), steps=())"),
    (lambda: PeriodicWord([1, 5, 5], (5, 5)), "PeriodicWord(preperiod=(1,), period=(5,))"),
]


@pytest.mark.parametrize("make, shown", RECORDS,
                         ids=[shown.split("(")[0] for _, shown in RECORDS])
def test_a_record_is_an_immutable_value(make, shown):
    a, b = make(), make()
    # string hashes are salted per interpreter: {Id, Exit} prints in either order
    assert repr(a) in (shown, shown.replace("'Id', 'Exit'", "'Exit', 'Id'"))
    first = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        a.extra = None
    assert not hasattr(a, "__dict__")
    assert a is not b and a == b and a == tuple(b)
    assert a != a._replace(**{first: object()})
    if isinstance(a, LetterBijection):  # its mapping is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_the_hash_of_a_sigma_automaton_leaves_out_delta():
    states = frozenset({ID, EXIT, (1, 0)})
    loops = {(ID, 1, 1): ID, (ID, 2, 2): ID}
    M = SigmaAutomaton(2, states, loops)
    K = SigmaAutomaton(2, states, {**loops, (ID, 1, 2): (1, 0)})
    assert hash(M) == hash(K) and M != K
    assert M == SigmaAutomaton(2, states, dict(loops))


def test_each_trusted_path_builds_what_its_constructor_builds():
    """build_topology_automaton, one_step and g_apply skip the checks of
    __new__; each result equals the checked constructor's, of one type."""
    M = build_topology_automaton(TOP_ISOLATED_11)
    checked = SigmaAutomaton(M.alphabet_size, M.states, M.delta)
    assert type(M) is type(checked) and M == checked
    C = from_topology_automaton(M)
    after = one_step(C).after
    checked = CrossAutomaton(C.alphabet_size, C.PH, after.PV, C.Pe1, C.Pe2)
    assert after.PV < C.PV and type(after) is type(checked) and after == checked
    ctx = GContext(1, 2, 3, 4)
    for stem in ((4, 1, 1, 1), (3, 3, 1, 5), (5, 3, 2, 3, 1, 1)):
        y = g_apply(ctx, OmegaWord(stem, 3))
        checked = OmegaWord(y.stem, y.kappa)
        assert y.stem != stem and type(y) is type(checked) and y == checked


@pytest.mark.parametrize("size", [2.5, 3.0, True, "3"])
def test_a_size_that_is_not_an_int_is_refused_by_its_own_error(size):
    """A float, a bool or a string as n, m or N is refused before any
    comparison or loop over it could raise a TypeError."""
    digits = [(0, 0), (1, 1)]
    for make in (lambda: CarpetSpec(size, 3, digits), lambda: CarpetSpec(3, size, digits)):
        with pytest.raises(CarpetError, match="not integers"):
            make().to_grid()
    with pytest.raises(AutomatonError, match="is not an integer"):
        SigmaAutomaton(size, frozenset({ID, EXIT}), {(ID, 1, 1): ID})
    with pytest.raises(CrossAutomatonError, match="is not an integer"):
        CrossAutomaton(size, (), (), (), ()).transition_table()


@pytest.mark.parametrize("digits, ratios", [
    (5, None),
    ([(0, 0, 1)], None),
    ([(0, 0)], [None, 1]),
    ([(0, 0)], ["x", "y"]),
    ([(0, 0)], ["1/0", 1]),
    ([(0, 0)], 7),
])
def test_a_carpet_of_malformed_digits_or_ratios_is_refused_by_its_own_error(digits, ratios):
    """Digits that are not pairs, and ratios that are not rationals, raise
    CarpetError, like every other refusal of CarpetSpec."""
    with pytest.raises(CarpetError):
        CarpetSpec(2, 2, digits, hratios=ratios)
    if ratios is not None:
        with pytest.raises(CarpetError, match="vratios"):
            CarpetSpec(2, 2, digits, vratios=ratios)

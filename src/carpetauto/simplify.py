"""One-step and final simplification of Class-2 cross automata.

A step deletes one vertical entry edge (tau, kappa) whose target kappa
has no outgoing vertical edge; the other three relations are untouched.
Iterating empties PV and ends in a Class-0 automaton.
"""

from __future__ import annotations

from typing import NamedTuple

from .cross import (
    Classification,
    CrossAutomaton,
    classify,
    require_matchings,
    validate,
)
from .errors import InternalError


class NotClass2(ValueError):
    pass


class SimplificationStep(NamedTuple):
    before: CrossAutomaton
    after: CrossAutomaton
    deleted: tuple[int, int]  # (tau, kappa)
    top_bottom: tuple[int, int]  # (gamma, lambda)
    after_class: Classification

    @property
    def g_supported(self) -> bool:
        """The universal-map context needs kappa distinct from gamma and
        lambda; steps deleting an edge into either are still legal but the
        symbolic bijection is not defined for them."""
        tau, kappa = self.deleted
        gamma, lam = self.top_bottom
        return kappa not in (gamma, lam) and tau != gamma

    def to_dict(self, before: dict, after: dict):
        """The step as JSON around `before` and `after`, the dicts of its
        two stages, which the chain builds once per stage."""
        return {
            "deleted": list(self.deleted),
            "topBottom": list(self.top_bottom),
            "before": before,
            "after": after,
            "gSupported": self.g_supported,
        }


def one_step(C: CrossAutomaton, cls: Classification | None = None) -> SimplificationStep:
    """Delete the canonical deletable vertical edge.

    Among edges (tau, kappa) with kappa V-maximal, the smallest kappa and
    then the smallest tau is picked, so chains are reproducible.

    The step carries the class of the result, which follows from the
    class of C without a second `classify`: Class 2 with the same top
    and bottom while PV is nonempty, Class 0 once it is empty.  Deleting
    a PV edge leaves every test of `classify` unchanged or monotone:

    - Pe2 = {(gamma, lambda)} is untouched, so it stays a singleton with
      gamma != lambda;
    - gamma stays isolated in H and e1, which are untouched, and in V,
      which only shrinks;
    - the (lambda lambda, t1 t2) exit test finds its t1 on the entry
      edges at lambda, of which there are only fewer;
    - a subgraph of the acyclic PV is acyclic.

    So a Class-1/2 input gives Class 2 while PV is nonempty (Class 1
    needs the carpet, which `classify` is not given here) and Class 0
    once it is empty: `classify` tests PV first.

    The result is C with the smaller PV, made by `_replace`, which skips
    the checks of `CrossAutomaton.__new__`: its checks on C still hold,
    since the letters stay integers in 1..N, entry pairs stay
    non-reflexive, PH and PV stay disjoint, and the entry set only
    shrinks, so no entry pair can become the transpose of another.
    """
    if cls is None:
        cls = classify(C)
    if cls.kind not in ("Class1", "Class2"):
        raise NotClass2(f"automaton is {cls.kind}, not Class 2")
    sources = {i for i, _ in C.PV}
    candidates = sorted((kappa, tau) for tau, kappa in C.PV if kappa not in sources)
    if not candidates:
        raise InternalError("acyclic nonempty PV must have a V-maximal edge target")
    kappa, tau = candidates[0]
    after = C._replace(PV=C.PV - {(tau, kappa)})
    if any(i == kappa or j == kappa for i, j in after.PV):
        raise InternalError("deleted target must be V-isolated afterwards")
    if after.PV:
        after_cls = Classification("Class2", top=cls.top, bottom=cls.bottom)
    else:
        after_cls = Classification("Class0")
    return SimplificationStep(C, after, (tau, kappa), (cls.top, cls.bottom), after_cls)


class SimplificationChain(NamedTuple):
    stages: tuple[CrossAutomaton, ...]
    steps: tuple[SimplificationStep, ...]

    @property
    def final(self) -> CrossAutomaton:
        return self.stages[-1]

    def to_json(self) -> str:
        import json

        stages = [stage.to_dict() for stage in self.stages]
        return json.dumps([step.to_dict(before, after)
                           for step, before, after in zip(self.steps, stages, stages[1:])])


def final_chain(C: CrossAutomaton, validate_stages: bool = True) -> SimplificationChain:
    """Iterate one_step until PV is empty; Class-0 input gives an empty chain.

    Only the input is classified: each step reads the class of its result
    from the class of its input (see `one_step`).  one_step relies on
    every relation being a partial matching, so an input that is not one
    is rejected before the first step.  With `validate_stages` the input
    must also pass every cross axiom (`validate`), and that one check
    covers every stage: a stage is the input with some PV edges deleted,
    a subset of a partial matching is one, and deleting transitions only
    shortens surviving times, so a triple coding of a stage is a triple
    coding of the input too.

    Pass False for the cross automaton of a carpet's topology automaton,
    as `simplify` on a carpet and `classify.final_automaton` do: it has no
    triple coding by construction, so only the matchings are checked
    (proof in docs/carpet_cross_axioms.md).  Cross or sigma automaton JSON
    is outside input and keeps the default.
    """
    cls = classify(C)
    if cls.kind == "Class0":
        return SimplificationChain((C,), ())
    if validate_stages:
        validate(C)
    else:
        require_matchings(C)
    stages = [C]
    steps = []
    cur, cur_cls = C, cls
    while cur.PV:
        step = one_step(cur, cur_cls)
        steps.append(step)
        stages.append(step.after)
        cur, cur_cls = step.after, step.after_class
    if len(steps) != len(C.PV):
        raise InternalError("the chain must delete each vertical edge exactly once")
    return SimplificationChain(tuple(stages), tuple(steps))

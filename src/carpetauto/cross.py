"""Cross automata: four-relation encoding, axioms, and classification.

A cross automaton is a symmetric pair-alphabet automaton whose offset
states are only the four axis vectors.  It is fully determined by the
relations PH (enter e1), PV (enter e2), Pe1 (loop at e1) and Pe2 (loop
at e2); the mirrored halves follow by transposition.  `RELATION_MOVES`
is the one statement of those moves: `CrossAutomaton.transition_table`
writes from it and `from_topology_automaton` reads through it.
"""

from __future__ import annotations

import json
from collections import namedtuple
from typing import NamedTuple

from .automaton import (
    EXIT,
    ID,
    SigmaAutomaton,
    check_alphabet_size,
    infinite_core,
    json_decode,
    json_field,
    json_int,
    order_key,
    search_triples,
)

E1 = (1, 0)
E2 = (0, 1)
AXIS_STATES = (E1, (-1, 0), E2, (0, -1))
# relation -> (s, t, s', t'): a pair (i, j) of the relation moves s to t,
# and its mirror (j, i) moves s' = -s to t' = -t.
RELATION_MOVES = {
    "PH": (ID, E1, ID, (-1, 0)),
    "PV": (ID, E2, ID, (0, -1)),
    "Pe1": (E1, E1, (-1, 0), (-1, 0)),
    "Pe2": (E2, E2, (0, -1), (0, -1)),
}


class CrossAutomatonError(ValueError):
    pass


class DiagonalStatePresent(CrossAutomatonError):
    """The source automaton reaches a diagonal offset state."""


def _json_pairs(pairs):
    """A relation read from JSON, whose letters must be integers."""
    return frozenset((json_int(i), json_int(j)) for i, j in pairs)


class CrossAutomaton(namedtuple("CrossAutomaton", "alphabet_size PH PV Pe1 Pe2")):
    """The alphabet size N and the four relations, frozensets of letter pairs."""

    __slots__ = ()

    def __new__(cls, alphabet_size, PH, PV, Pe1, Pe2):
        # a frozenset argument is kept, not copied
        PH, PV, Pe1, Pe2 = relations = [frozenset(r) for r in (PH, PV, Pe1, Pe2)]
        N = alphabet_size
        check_alphabet_size(N, CrossAutomatonError)
        for name, rel in zip(RELATION_MOVES, relations):  # PH, PV, Pe1, Pe2
            for i, j in rel:
                if not type(i) is type(j) is int:  # a bool, 1.9 or '3' is no letter
                    raise CrossAutomatonError(f"non-integer letter in {name}: {(i, j)!r}")
                if not (1 <= i <= N and 1 <= j <= N):
                    raise CrossAutomatonError(f"letter outside 1..{N} in {name}")
        # A reflexive entry pair is its own transpose, so every pair the
        # first and last checks look for lies in `mirrored`.
        entry = PH | PV
        mirrored = entry.intersection([(j, i) for i, j in entry])
        if any(i == j for i, j in mirrored):
            raise CrossAutomatonError("reflexive pair in an entry relation")
        if not PH.isdisjoint(PV):
            raise CrossAutomatonError("PH and PV overlap")
        if mirrored:
            raise CrossAutomatonError("entry relations overlap their transposes")
        return super().__new__(cls, alphabet_size, *relations)

    def relations(self):
        return {"H": self.PH, "V": self.PV, "e1": self.Pe1, "e2": self.Pe2}

    def transition_table(self) -> dict:
        """(state, i, j) -> state over the states {Id, ±e1, ±e2}, written
        from `RELATION_MOVES`; a missing entry is Exit.

        The table is the one `induced_automaton` wraps and the one
        `decide_triple_coding_free` searches.  The constructor's checks
        leave no two relations writing one entry: entry pairs are not
        reflexive, PH and PV are disjoint, and no entry pair is the
        transpose of another.
        """
        delta = {(ID, i, i): ID for i in range(1, self.alphabet_size + 1)}
        for name, (s, t, ms, mt) in RELATION_MOVES.items():
            for i, j in getattr(self, name):
                delta[(s, i, j)] = t
                delta[(ms, j, i)] = mt
        return delta

    def induced_automaton(self) -> SigmaAutomaton:
        """The sigma automaton of `transition_table`, over the states {Id,
        ±e1, ±e2, Exit}."""
        states = frozenset({ID, EXIT, *AXIS_STATES})
        return SigmaAutomaton(self.alphabet_size, states, self.transition_table())

    def to_dict(self) -> dict:
        return {"N": self.alphabet_size,
                **{name: [list(p) for p in sorted(getattr(self, name))] for name in RELATION_MOVES}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def cross_from_json(text: str) -> CrossAutomaton:
    return cross_from_dict(json_decode(text, CrossAutomatonError))


def cross_from_dict(data: dict) -> CrossAutomaton:
    """The cross automaton of decoded JSON {"N", "PH", "PV", "Pe1", "Pe2"};
    a missing relation is empty."""

    def field(name, parse):
        return json_field(data, name, parse, CrossAutomatonError, "cross automaton")

    N = field("N", json_int)
    relations = [field(name, _json_pairs) if name in data else frozenset()
                 for name in RELATION_MOVES]
    return CrossAutomaton(N, *relations)


def from_topology_automaton(M: SigmaAutomaton) -> CrossAutomaton:
    """Extract the four relations; fails if diagonal states are reachable."""
    diagonal = [s for s in M.states if s not in (ID, EXIT) and s not in AXIS_STATES]
    if diagonal:  # named in state order: the set's own order varies with string hashing
        s = min(diagonal, key=order_key)
        raise DiagonalStatePresent(f"state {s} present: diagonal offset state reachable")
    rels = {move[:2]: set() for move in RELATION_MOVES.values()}  # (s, t) -> its relation
    for (s, i, j), t in M.delta.items():
        if (s, t) in rels:
            rels[(s, t)].add((i, j))
    return CrossAutomaton(M.alphabet_size, *rels.values())


def check_uniqueness(C: CrossAutomaton):
    """Def-of-cross uniqueness: every relation is a partial matching."""
    problems = []
    for name, rel in C.relations().items():
        out = {}
        inc = {}
        for i, j in rel:
            if out.setdefault(i, j) != j:
                problems.append((name, "two successors", i))
            if inc.setdefault(j, i) != i:
                problems.append((name, "two predecessors", j))
    return problems


def decide_triple_coding_free(C: CrossAutomaton):
    """Search for distinct x, y, z with two infinite pairwise times.

    Two of the three pairs always share a word; by symmetry of the
    automaton take the shared word as x.  `automaton.search_triples`
    tracks the itineraries of (x,y), (x,z), (y,z) jointly.  A pair sits
    at Id while its words agree and never returns to it, so x, y, z are
    distinct with T(x,y) = T(x,z) = ∞ exactly when some run stays forever
    in joint states with no Id component: a lasso through those states.

    The search reads the relations' own transition table: they were
    checked when C was built, so no sigma automaton is built and checked
    again.

    Returns (True, None) when the condition holds, else (False, witness)
    with an eventually periodic witness triple.
    """
    return search_triples(C.transition_table(), lambda js: ID not in js, lasso=True)


def require_matchings(C: CrossAutomaton):
    """Raise CrossAutomatonError unless every relation is a partial matching."""
    problems = check_uniqueness(C)
    if problems:
        raise CrossAutomatonError(f"uniqueness violated: {problems}")


def validate(C: CrossAutomaton):
    """All Def-of-cross axioms; raises CrossAutomatonError on failure."""
    require_matchings(C)
    ok, witness = decide_triple_coding_free(C)
    if not ok:
        raise CrossAutomatonError(f"triple coding present, witness {witness}")


def touches(rel, letter: int) -> bool:
    """Whether `letter` lies on some edge of the relation."""
    return any(letter in pair for pair in rel)


def has_cycle(rel) -> bool:
    """Whether the relation, read as a directed graph, has a cycle: a
    finite graph has one exactly when its `infinite_core` is nonempty."""
    succ = {}
    for i, j in rel:
        succ.setdefault(i, []).append(j)
    return bool(infinite_core(succ, succ.__getitem__))


class Classification(NamedTuple):
    kind: str  # Class0 | Class1 | Class2 | Unclassified
    top: int | None = None
    bottom: int | None = None
    reason: str | None = None


def classify(C: CrossAutomaton, origin=None) -> Classification:
    """Class 0 / 1 / 2 per the abstract axioms; Class 1 needs provenance.

    ``origin`` is the carpet the automaton came from: ``C`` must be the
    cross automaton of its topology automaton.  Without it the best
    possible answer is Class 2.

    Every test reads the four relations directly, the two-step exit test
    on (λλ, t1 t2) included: no induced automaton is built, so a class
    costs one pass over the relations.

    Class 1 asks the carpet for cross intersection, no vertical
    separation and an isolated single top cell.  Where the last test
    below is reached, the first two hold and the third is a property of
    the top row alone:

    - ``C`` exists, so no Id move reaches a diagonal offset: cross
      intersection holds.
    - PV is nonempty, so some Id move reaches ±e2: vertical separation
      fails.
    - Pe2 = {(γ, λ)}: the e2 loop on (γ, λ) needs d_γ in the top row
      and d_λ in the bottom row.  γ is isolated in H and V, so no
      first-order adjacency involves γ.  The carpet is top isolated
      exactly when γ is the only letter of its top row.
    """
    if not C.PV:
        return Classification("Class0")
    if len(C.Pe2) != 1:
        return Classification("Unclassified", reason="Pe2 is not a singleton")
    ((gamma, lam),) = C.Pe2
    if gamma == lam:
        return Classification("Unclassified", reason="top and bottom vertices coincide")
    for which, rel in (("H", C.PH), ("V", C.PV), ("e1", C.Pe1)):
        if touches(rel, gamma):
            return Classification(
                "Unclassified", top=gamma, bottom=lam,
                reason=f"top vertex not isolated in {which}",
            )
    # An input (lam lam, t1 t2) survives two steps exactly when an entry
    # edge at lam reaches an axis state that a loop edge at lam keeps: (lam,
    # t1) and (lam, t2), or (t1, lam) and (t2, lam), in PH and Pe1 or in PV
    # and Pe2.  Entry edges are neither reflexive nor transposed into one
    # another, so each t1 enters one state; t1 and then t2 are the smallest.
    # By mirror symmetry (t1 t2, lam lam) survives exactly when this does.
    def at_lam(rel):  # the letters after lam, then the letters before it
        return [j for i, j in rel if i == lam], [i for i, j in rel if j == lam]

    exits = [(t1, min(t2s))
             for entry, loop in ((C.PH, C.Pe1), (C.PV, C.Pe2))
             for t1s, t2s in zip(at_lam(entry), at_lam(loop)) if t2s
             for t1 in t1s]
    if exits:
        t1, t2 = min(exits)
        return Classification(
            "Unclassified", top=gamma, bottom=lam,
            reason=f"(lam lam, {t1}{t2}) does not exit in two steps",
        )
    if has_cycle(C.PV):
        return Classification(
            "Unclassified", top=gamma, bottom=lam, reason="PV graph has a cycle"
        )
    if origin is not None:
        top_row = [i for i, d in enumerate(origin.digits, start=1) if d[1] == origin.m - 1]
        if top_row == [gamma]:
            return Classification("Class1", top=gamma, bottom=lam)
    return Classification("Class2", top=gamma, bottom=lam)

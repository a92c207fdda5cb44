"""Cross automata: four-relation encoding, axioms, and classification.

A cross automaton is a symmetric pair-alphabet automaton whose offset
states are only the four axis vectors.  It is fully determined by the
relations PH (enter e1), PV (enter e2), Pe1 (loop at e1) and Pe2 (loop
at e2); the mirrored halves follow by transposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .automaton import EXIT, ID, MAX_LETTER, SigmaAutomaton, json_field, json_int, search_triples

E1 = (1, 0)
E2 = (0, 1)
AXIS_STATES = (E1, (-1, 0), E2, (0, -1))


class CrossAutomatonError(ValueError):
    pass


class DiagonalStatePresent(CrossAutomatonError):
    """The source automaton reaches a diagonal offset state."""


def _as_pairs(pairs):
    return frozenset((int(i), int(j)) for i, j in pairs)


@dataclass(frozen=True)
class CrossAutomaton:
    alphabet_size: int
    PH: frozenset
    PV: frozenset
    Pe1: frozenset
    Pe2: frozenset

    def __post_init__(self):
        for name in ("PH", "PV", "Pe1", "Pe2"):
            object.__setattr__(self, name, _as_pairs(getattr(self, name)))
        N = self.alphabet_size
        if N > MAX_LETTER:
            raise CrossAutomatonError(f"alphabet of {N} letters exceeds {MAX_LETTER}")
        for name in ("PH", "PV", "Pe1", "Pe2"):
            for i, j in getattr(self, name):
                if not (1 <= i <= N and 1 <= j <= N):
                    raise CrossAutomatonError(f"letter outside 1..{N} in {name}")
        for i, j in self.PH | self.PV:
            if i == j:
                raise CrossAutomatonError("reflexive pair in an entry relation")
        if self.PH & self.PV:
            raise CrossAutomatonError("PH and PV overlap")
        trans = {(j, i) for i, j in self.PH | self.PV}
        if trans & (self.PH | self.PV):
            raise CrossAutomatonError("entry relations overlap their transposes")

    def relations(self):
        return {"H": self.PH, "V": self.PV, "e1": self.Pe1, "e2": self.Pe2}

    def induced_automaton(self) -> SigmaAutomaton:
        """The full transition table over states {Id, ±e1, ±e2, Exit}."""
        delta = {}
        for i in range(1, self.alphabet_size + 1):
            delta[(ID, i, i)] = ID
        for i, j in self.PH:
            delta[(ID, i, j)] = E1
            delta[(ID, j, i)] = (-1, 0)
        for i, j in self.PV:
            delta[(ID, i, j)] = E2
            delta[(ID, j, i)] = (0, -1)
        for i, j in self.Pe1:
            delta[(E1, i, j)] = E1
            delta[((-1, 0), j, i)] = (-1, 0)
        for i, j in self.Pe2:
            delta[(E2, i, j)] = E2
            delta[((0, -1), j, i)] = (0, -1)
        states = frozenset({ID, EXIT, *AXIS_STATES})
        return SigmaAutomaton(self.alphabet_size, states, delta)

    def to_dict(self) -> dict:
        return {
            "N": self.alphabet_size,
            "PH": sorted(list(p) for p in self.PH),
            "PV": sorted(list(p) for p in self.PV),
            "Pe1": sorted(list(p) for p in self.Pe1),
            "Pe2": sorted(list(p) for p in self.Pe2),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def cross_from_json(text: str) -> CrossAutomaton:
    data = json.loads(text)

    def field(name, parse):
        return json_field(data, name, parse, CrossAutomatonError, "cross automaton")

    N = field("N", json_int)
    relations = [field(name, _as_pairs) if name in data else frozenset()
                 for name in ("PH", "PV", "Pe1", "Pe2")]
    return CrossAutomaton(N, *relations)


def from_topology_automaton(M: SigmaAutomaton) -> CrossAutomaton:
    """Extract the four relations; fails if diagonal states are reachable."""
    for s in M.states:
        if s not in (ID, EXIT) and s not in AXIS_STATES:
            raise DiagonalStatePresent(f"state {s} present: cross intersection fails")
    rels = {"PH": set(), "PV": set(), "Pe1": set(), "Pe2": set()}
    for (s, i, j), t in M.delta.items():
        if s == ID and t == E1:
            rels["PH"].add((i, j))
        elif s == ID and t == E2:
            rels["PV"].add((i, j))
        elif s == E1 and t == E1:
            rels["Pe1"].add((i, j))
        elif s == E2 and t == E2:
            rels["Pe2"].add((i, j))
    return CrossAutomaton(M.alphabet_size, *(frozenset(rels[k]) for k in ("PH", "PV", "Pe1", "Pe2")))


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
    tracks the itineraries of (x,y), (x,z), (y,z) jointly.  Self-looping
    makes an offset state permanent until exit, so a violation exists iff
    some joint state with both shared-word components in loop states (and
    the third off Id) is reachable and has one input triple keeping both
    alive; repeating that triple forever finishes the witness.  Every
    move from such a state is one, so the search never counts past the
    step at which (y,z) exits.

    Returns (True, None) when the condition holds, else (False, witness)
    with a witness triple of eventually-constant words.
    """

    def sustained(js, moves):
        if ID not in js:
            return next((t for t, (u1, u2, _) in moves(js) if (u1, u2) == js[:2]), None)
        return None

    return search_triples(C.induced_automaton(), sustained)


def validate(C: CrossAutomaton):
    """All Def-of-cross axioms; raises CrossAutomatonError on failure."""
    problems = check_uniqueness(C)
    if problems:
        raise CrossAutomatonError(f"uniqueness violated: {problems}")
    ok, witness = decide_triple_coding_free(C)
    if not ok:
        raise CrossAutomatonError(f"triple coding present, witness {witness}")


def touches(rel, letter: int) -> bool:
    """Whether `letter` lies on some edge of the relation."""
    return any(letter in pair for pair in rel)


def has_cycle(rel) -> bool:
    """Whether the relation, read as a directed graph, has a cycle."""
    succ = {}
    for i, j in rel:
        succ.setdefault(i, []).append(j)
    color = {}

    def visit(v):
        color[v] = 1
        for w in succ.get(v, ()):
            c = color.get(w, 0)
            if c == 1 or (c == 0 and visit(w)):
                return True
        color[v] = 2
        return False

    return any(color.get(v, 0) == 0 and visit(v) for v in succ)


@dataclass(frozen=True)
class Classification:
    kind: str  # Class0 | Class1 | Class2 | Unclassified
    top: int | None = None
    bottom: int | None = None
    reason: str | None = None


def classify(C: CrossAutomaton, origin=None) -> Classification:
    """Class 0 / 1 / 2 per the abstract axioms; Class 1 needs provenance.

    ``origin`` is the carpet the automaton came from: ``C`` must be the
    cross automaton of its topology automaton.  Without it the best
    possible answer is Class 2.

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
    # The induced automaton is mirror-symmetric, so the transposed pair
    # (t1 t2, lam lam) survives exactly when (lam lam, t1 t2) does.
    succ = C.induced_automaton().successors()
    for t1, s1 in succ.get((ID, lam), ()):
        if t1 != lam and (s1, lam) in succ:
            t2 = succ[(s1, lam)][0][0]
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

"""Sufficient-condition decision procedure for carpet equivalence.

Two carpets with the same horizontal division count, both satisfying
cross intersection, each either top-isolated or vertically separated,
and with matching H-block and H-block-pair size multisets, are Hölder
equivalent; when both are fractal squares of the same base the
equivalence is Lipschitz.  The certificate is a letter bijection that
matches blocks and provably preserves the horizontal adjacency
relations, making the final simplified automata isometric.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from typing import NamedTuple

from .automaton import EXIT, ID, build_topology_automaton, explore
from .carpet import CarpetSpec, block_scan, check_conditions, profile
from .cross import CrossAutomaton, DiagonalStatePresent, from_topology_automaton
from .errors import InternalError
from .simplify import final_chain
from .words import PeriodicWord


class PreservationFailure(InternalError):
    """The constructed letter bijection fails adjacency preservation."""


class LetterBijection(NamedTuple):
    mapping: dict
    block_matching: tuple  # pairs of (E-block, F-block)

    def __call__(self, letter: int) -> int:
        return self.mapping[letter]

    def to_dict(self):
        return {
            "map": {str(k): v for k, v in sorted(self.mapping.items())},
            "blocks": [
                {
                    "from": {"row": a.row, "columns": list(a.columns)},
                    "to": {"row": b.row, "columns": list(b.columns)},
                }
                for a, b in self.block_matching
            ],
        }


def _split_blocks(blocks, pairs):
    """Separate pair-constituent blocks from free blocks, deterministically."""
    used = {b for pair in pairs for b in pair}
    free = sorted((b for b in blocks if b not in used), key=lambda b: (b.size, b.row, b.columns[0]))
    return sorted(pairs, key=lambda p: (p[0].size, p[1].size, p[0].row)), free


def build_letter_bijection(E: CarpetSpec, F: CarpetSpec) -> LetterBijection:
    """Match blocks of E to blocks of F and map letters positionally.

    Pair-blocks are matched first (equal left and right sizes required),
    then free blocks by size; within a block the j-th letter goes to the
    j-th letter.  The result is checked to preserve the in-row adjacency
    relation and the wrap-around relation of both carpets.
    """
    bij = _match_blocks(block_scan(E), block_scan(F))
    ce, cf = (from_topology_automaton(build_topology_automaton(X)) for X in (E, F))
    _verify_preservation(ce, cf, bij)
    return bij


def _match_blocks(scan_e, scan_f) -> LetterBijection:
    """The letter bijection of two carpets' `block_scan` results."""
    pairs_e, free_e = _split_blocks(*scan_e)
    pairs_f, free_f = _split_blocks(*scan_f)
    if len(pairs_e) != len(pairs_f) or len(free_e) != len(free_f):
        raise ValueError("block inventories do not match")
    mapping = {}
    matching = []
    for (le, re), (lf, rf) in zip(pairs_e, pairs_f):
        if le.size != lf.size or re.size != rf.size:
            raise ValueError("pair-block sizes do not match")
        for a, b in ((le, lf), (re, rf)):
            mapping.update(zip(a.letters, b.letters))
            matching.append((a, b))
    for a, b in zip(free_e, free_f):
        if a.size != b.size:
            raise ValueError("free block sizes do not match")
        mapping.update(zip(a.letters, b.letters))
        matching.append((a, b))
    return LetterBijection(mapping, tuple(matching))


def _verify_preservation(ce: CrossAutomaton, cf: CrossAutomaton, bij: LetterBijection):
    for name, rel_e, rel_f in (("H", ce.PH, cf.PH), ("e1", ce.Pe1, cf.Pe1)):
        image = {(bij(i), bij(j)) for i, j in rel_e}
        if image != rel_f:
            missing = sorted(rel_f - image)
            extra = sorted(image - rel_f)
            raise PreservationFailure(
                f"{name}-relation not preserved: missing {missing}, extra {extra}"
            )


class HypothesisRecord(NamedTuple):
    name: str
    passed: bool
    detail: str

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class EquivalenceVerdict(NamedTuple):
    status: str  # HolderEquivalent | LipschitzEquivalent | Inconclusive
    reasons: tuple[HypothesisRecord, ...]
    certificate: LetterBijection | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "hypotheses": [r.to_dict() for r in self.reasons],
                "certificate": None if self.certificate is None else self.certificate.to_dict(),
            }
        )


def decide_equivalence(E: CarpetSpec, F: CarpetSpec) -> EquivalenceVerdict:
    """Run the sufficient-condition checklist and emit a verdict.

    A failed hypothesis gives Inconclusive, never a non-equivalence
    claim: the condition is sufficient only.
    """
    reasons = []

    def record(name, passed, detail):
        reasons.append(HypothesisRecord(name, passed, detail))
        return passed

    ok = record("equalHorizontalDivisions", E.n == F.n, f"n: {E.n} vs {F.n}")
    M_e = build_topology_automaton(E)
    M_f = build_topology_automaton(F)
    rep_e = check_conditions(E, M_e)
    rep_f = check_conditions(F, M_f)
    ok &= record(
        "crossIntersection",
        rep_e.cross_intersection and rep_f.cross_intersection,
        f"E: {rep_e.cross_intersection}, F: {rep_f.cross_intersection}",
    )
    sep_e = rep_e.top_isolated or rep_e.vertical_separation
    sep_f = rep_f.top_isolated or rep_f.vertical_separation
    ok &= record(
        "topIsolatedOrVerticallySeparated",
        sep_e and sep_f,
        f"E: topIsolated={rep_e.top_isolated} verticalSeparation={rep_e.vertical_separation}; "
        f"F: topIsolated={rep_f.top_isolated} verticalSeparation={rep_f.vertical_separation}",
    )
    scan_e = block_scan(E)
    scan_f = block_scan(F)
    prof_e = profile(E, scan_e)
    prof_f = profile(F, scan_f)
    ok &= record(
        "blockSizesMatch",
        Counter(prof_e.block_sizes) == Counter(prof_f.block_sizes),
        f"{list(prof_e.block_sizes)} vs {list(prof_f.block_sizes)}",
    )
    ok &= record(
        "pairSizesMatch",
        Counter(prof_e.pair_sizes) == Counter(prof_f.pair_sizes),
        f"{list(prof_e.pair_sizes)} vs {list(prof_f.pair_sizes)}",
    )
    if not ok:
        return EquivalenceVerdict("Inconclusive", tuple(reasons), None)
    # Cross intersection is read from the first-level cylinders, so a topology
    # automaton can still reach a diagonal state, and then has no cross automaton.
    crosses = []
    for side, M in (("E", M_e), ("F", M_f)):
        try:
            crosses.append(from_topology_automaton(M))
        except DiagonalStatePresent as e:
            record("noDiagonalState", False, f"{side}: {e}")
            return EquivalenceVerdict("Inconclusive", tuple(reasons), None)
    certificate = _match_blocks(scan_e, scan_f)
    _verify_preservation(*crosses, certificate)
    lipschitz = (
        E.is_fractal_square() and F.is_fractal_square() and E.n == F.n and E.m == F.m
    )
    status = "LipschitzEquivalent" if lipschitz else "HolderEquivalent"
    return EquivalenceVerdict(status, tuple(reasons), certificate)


def final_automaton(spec: CarpetSpec):
    """Final simplified automaton of a carpet, as a full transition table.
    A carpet's cross automaton needs no triple search (`final_chain`)."""
    C = from_topology_automaton(build_topology_automaton(spec))
    return final_chain(C, validate_stages=False).final.induced_automaton()


def decide_isometry(E: CarpetSpec, F: CarpetSpec, bij: LetterBijection):
    """Decide T_E(x, y) == T_F(bij x, bij y) for all words, on the final automata.

    `explore` runs E on (i, j) and F on (bij i, bij j) from (Id, Id) over the sorted
    pairs on which a side survives (any other exits both).  Returns (True, None) or
    (False, (x, y)): a shortest path to a state with one Exit, then the letter 1 forever."""
    m, N = bij.mapping, len(E.digits)
    if len(F.digits) != N or not sorted(m) == sorted(m.values()) == list(range(1, N + 1)):
        raise ValueError("the letter map is no bijection of E's letters onto F's")
    rows = defaultdict(dict)  # (side, state) -> {(i, j) in E's letters: next state}
    for side, X, to_e in ((0, E, {a: a for a in m}), (1, F, {b: a for a, b in m.items()})):
        for (s, i, j), t in final_automaton(X).delta.items():
            rows[side, s][to_e[i], to_e[j]] = t

    def moves(state):  # a final automaton's table holds no Exit entry
        a, b = rows[0, state[0]], rows[1, state[1]]
        return [(p, (a.get(p, EXIT), b.get(p, EXIT))) for p in sorted(a.keys() | b.keys())]

    found = explore((ID, ID), moves, lambda state: EXIT in state, lasso=False)
    if found is None:
        return True, None
    return False, tuple(PeriodicWord(w, (1,)) for w in zip(*found[0]))

"""Pseudo-metrics induced by automata and the carpet Hölder scale.

The pseudo-distance of two words is xi^T where T is their surviving
time (distance 0 when T is infinite).  For a carpet the natural xi is
rSub^s with s = sqrt(log rStar / log rSub), which makes the coding map
onto the attractor bi-Hölder of index s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .automaton import ID, SigmaAutomaton, decide_feasibility, is_infinite, surviving_time
from .errors import InternalError
from .geometry import project
from .words import PeriodicWord


class IntransitivitySample(ValueError):
    """The zero-distance relation of an automaton is not transitive."""


@dataclass(frozen=True)
class HolderScale:
    r_star: Fraction  # largest contraction ratio
    r_sub: Fraction  # smallest contraction ratio
    s: float
    xi: float

    def __post_init__(self):
        if not 0 < self.r_sub <= self.r_star < 1:
            raise ValueError(
                f"ratios must satisfy 0 < r_sub <= r_star < 1, got {self.r_sub} and {self.r_star}"
            )
        if not 0 < self.s <= 1 + 1e-12:
            raise ValueError(f"exponent s must lie in (0, 1], got {self.s}")


@dataclass(frozen=True)
class PseudoDistance:
    value: float
    time: object  # surviving time: int or INFINITE


def holder_scale(spec) -> HolderScale:
    ratios = spec.horizontal_ratios() + spec.vertical_ratios()
    r_star = max(ratios)
    r_sub = min(ratios)
    s = math.sqrt(math.log(r_star) / math.log(r_sub))
    xi = float(r_sub) ** s
    return HolderScale(r_star, r_sub, s, xi)


def rho(M: SigmaAutomaton, xi: float, x: PeriodicWord, y: PeriodicWord) -> PseudoDistance:
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    t = surviving_time(M, x, y)
    return PseudoDistance(0.0 if is_infinite(t) else xi**t, t)


def _proj_depth(spec) -> int:
    """Depth making the projection truncation slack below 1e-9."""
    r_star = float(max(spec.horizontal_ratios() + spec.vertical_ratios()))
    depth = 1
    while 2 * r_star**depth >= 1e-9:
        depth += 1
    return depth


@dataclass(frozen=True)
class ProjectionRecord:
    time: object
    rho: float
    euclidean: float
    upper_ok: bool

    def to_dict(self):
        return {
            "T": None if is_infinite(self.time) else self.time,
            "rho": self.rho,
            "euclidean": self.euclidean,
            "upperOk": self.upper_ok,
        }


@dataclass(frozen=True)
class ProjectionReport:
    records: tuple[ProjectionRecord, ...]
    fitted_lower_c: float | None
    violations: int

    def to_dict(self):
        return {
            "pairs": [r.to_dict() for r in self.records],
            "summary": {
                "fittedLowerC": self.fitted_lower_c,
                "violations": self.violations,
            },
        }


def check_projection_bounds(spec, M: SigmaAutomaton, pairs, depth: int | None = None) -> ProjectionReport:
    """Check |pi(x) - pi(y)| <= 4 (rStar)^T + eps on every finite-T pair.

    Infinite-T pairs must project to coinciding points (within the
    truncation slack).  The lower bound has no explicit constant, so the
    largest c with |pi(x)-pi(y)| >= c (rSub)^(T+1) across the sample is
    fitted and reported.
    """
    scale = holder_scale(spec)
    if depth is None:
        depth = _proj_depth(spec)
    records = []
    violations = 0
    fitted = None
    xi = scale.xi
    for x, y in pairs:
        (px, py), err = project(spec, x, depth)
        (qx, qy), _ = project(spec, y, depth)
        dist = math.hypot(float(px - qx), float(py - qy))
        eps = 2 * err + 1e-12
        t = surviving_time(M, x, y)
        if is_infinite(t):
            ok = dist <= math.sqrt(2) * eps
            records.append(ProjectionRecord(t, 0.0, dist, ok))
            if not ok:
                violations += 1
            continue
        ok = dist <= 4 * float(scale.r_star) ** t + math.sqrt(2) * eps
        records.append(ProjectionRecord(t, xi**t, dist, ok))
        if not ok:
            violations += 1
        if dist > 2 * math.sqrt(2) * eps:
            c = dist / float(scale.r_sub) ** (t + 1)
            fitted = c if fitted is None else min(fitted, c)
    return ProjectionReport(tuple(records), fitted, violations)


def quotient_classes(M: SigmaAutomaton, words):
    """Partition words by zero pseudo-distance (infinite surviving time).

    M is mirror-symmetric, as topology and cross automata are, so T is
    symmetric.  Zero distance fails to be transitive exactly when M
    violates feasibility at t0 = P = (|states| - 1)^2, the number of
    pairs of live states.  An intransitive triple has T(x,y) = T(x,z) = ∞
    and a finite T(y,z), a violation for every t0.  Conversely, in a
    violation at P, (y,z) exits at some step e and (x,y), (x,z) stay
    alive up to step e + P, so among those P + 1 steps two steps a < b
    see the same pair of states.  Reading the first a inputs and then
    the inputs of steps a+1..b forever gives T(x,y) = T(x,z) = ∞ with
    T(y,z) = e - 1.  That triple is raised as IntransitivitySample.

    Otherwise each word joins the class of the first related class
    leader.  Classes are ordered by their last word.
    """
    P = (len(M.states) - 1) ** 2
    ok, witness = decide_feasibility(M, P)
    if not ok:
        raise IntransitivitySample(_pumped(M, P, *witness))
    words = list(words)
    classes = []  # lists of indices into words
    for b, w in enumerate(words):
        group = next((c for c in classes if is_infinite(surviving_time(M, words[c[0]], w))), None)
        if group is None:
            classes.append(group := [])
        group.append(b)
    classes.sort(key=lambda c: c[-1])
    return [tuple(words[b] for b in c) for c in classes]


def _pumped(M: SigmaAutomaton, P: int, x, y, z):
    """The pumped intransitive triple of a feasibility violation at t0 = P."""
    e = surviving_time(M, y, z) + 1
    first = {}  # pair of states at a step >= e -> that step
    sxy = sxz = ID
    for b in range(1, e + P + 1):
        sxy = M.step(sxy, x.letter(b), y.letter(b))
        sxz = M.step(sxz, x.letter(b), z.letter(b))
        if b >= e and (a := first.setdefault((sxy, sxz), b)) < b:
            return tuple(PeriodicWord(w.prefix(a), w.prefix(b)[a:]) for w in (x, y, z))
    raise InternalError("a feasibility violation at t0 = P repeats no pair of states")

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

from .automaton import SigmaAutomaton, is_infinite, surviving_time
from .geometry import project
from .words import PeriodicWord


class IntransitivitySample(ValueError):
    """Zero-distance relation failed to be transitive on a sample."""


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

    The relation is verified to be transitive on the sample; a failure
    means the automaton does not induce a pseudo-metric and is reported
    as an error rather than silently merged.
    """
    words = list(words)
    related = {}
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            related[(a, b)] = is_infinite(surviving_time(M, words[a], words[b]))
    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            for c in range(b + 1, len(words)):
                flags = (related[(a, b)], related[(a, c)], related[(b, c)])
                if sum(flags) == 2:
                    raise IntransitivitySample((words[a], words[b], words[c]))
    parent = list(range(len(words)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (a, b), rel in related.items():
        if rel:
            parent[find(a)] = find(b)
    classes = {}
    for idx, w in enumerate(words):
        classes.setdefault(find(idx), []).append(w)
    return [tuple(group) for _, group in sorted(classes.items())]

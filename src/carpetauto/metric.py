"""Pseudo-metrics induced by automata and the carpet Hölder scale.

The pseudo-distance of two words is xi^T where T is their surviving
time (distance 0 when T is infinite).  For a carpet the natural xi is
rSub^s with s = sqrt(log rStar / log rSub), which makes the coding map
onto the attractor bi-Hölder of index s.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .automaton import SigmaAutomaton, is_infinite, mirror_check, search_triples, surviving_time
from .geometry import projector
from .words import PeriodicWord


class IntransitivitySample(ValueError):
    """The zero-distance relation of an automaton is not transitive."""


class AsymmetricAutomaton(ValueError):
    """The automaton is not mirror-symmetric, so its T is not symmetric."""


class HolderScale(namedtuple("HolderScale", "r_star r_sub s xi")):
    """The largest and smallest contraction ratios (Fractions), the
    exponent s and the scale xi (floats)."""

    __slots__ = ()

    def __new__(cls, r_star, r_sub, s, xi):
        if not 0 < r_sub <= r_star < 1:
            raise ValueError(
                f"ratios must satisfy 0 < r_sub <= r_star < 1, got {r_sub} and {r_star}"
            )
        if not 0 < s <= 1 + 1e-12:
            raise ValueError(f"exponent s must lie in (0, 1], got {s}")
        return super().__new__(cls, r_star, r_sub, s, xi)


class PseudoDistance(NamedTuple):
    value: float
    time: object  # surviving time: int or INFINITE


def holder_scale(spec) -> HolderScale:
    # an axis without its own ratios has n equal ones, 1/n: one stands for all
    ratios = (*(spec.hratios or [Fraction(1, spec.n)]), *(spec.vratios or [Fraction(1, spec.m)]))
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


def _proj_depth(r_star: float) -> int:
    """Depth making the projection truncation slack below 1e-9."""
    depth = 1
    while 2 * r_star**depth >= 1e-9:
        depth += 1
    return depth


class ProjectionRecord(NamedTuple):
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


class ProjectionReport(NamedTuple):
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

    The per-letter tables of `geometry.projector` are built once per call.
    Each word projects to scaled integers over the common denominators
    (Dx^depth, Dy^depth), and the distance is taken from their integer
    differences: an int / int true division is correctly rounded, so each
    coordinate difference is the float of the exact rational difference.
    """
    scale = holder_scale(spec)
    r_star, r_sub = float(scale.r_star), float(scale.r_sub)
    if depth is None:
        depth = _proj_depth(r_star)
    corner, (dx, dy), err = projector(spec, depth)
    eps = 2 * err + 1e-12
    records = []
    violations = 0
    fitted = None
    xi = scale.xi
    for x, y in pairs:
        sx, sy = corner(x)
        ux, uy = corner(y)
        dist = math.hypot((sx - ux) / dx, (sy - uy) / dy)
        t = surviving_time(M, x, y)
        if is_infinite(t):
            ok = dist <= math.sqrt(2) * eps
            records.append(ProjectionRecord(t, 0.0, dist, ok))
            if not ok:
                violations += 1
            continue
        ok = dist <= 4 * r_star ** t + math.sqrt(2) * eps
        records.append(ProjectionRecord(t, xi**t, dist, ok))
        if not ok:
            violations += 1
        if dist > 2 * math.sqrt(2) * eps:
            c = dist / r_sub ** (t + 1)
            fitted = c if fitted is None else min(fitted, c)
    return ProjectionReport(tuple(records), fitted, violations)


def quotient_classes(M: SigmaAutomaton, words):
    """Partition words by zero pseudo-distance (infinite surviving time).

    M must be mirror-symmetric, as topology and cross automata are, so
    that T is symmetric; otherwise AsymmetricAutomaton is raised.  Zero
    distance fails to be transitive exactly when some words have
    T(x,y) = T(x,z) = ∞ and a finite T(y,z): a run of the joint states of
    `automaton.search_triples` that stays forever in states where (y,z)
    has exited.  The lasso search finds one if it exists, and its
    eventually periodic triple is raised as IntransitivitySample.

    Otherwise each word joins the class of the first related class
    leader.  Classes are ordered by their last word.
    """
    if not mirror_check(M):
        raise AsymmetricAutomaton("quotient classes need a mirror-symmetric automaton")
    ok, witness = search_triples(M.delta, lambda js: type(js[2]) is int, lasso=True)
    if not ok:
        raise IntransitivitySample(witness)
    words = list(words)
    classes = []  # lists of indices into words
    for b, w in enumerate(words):
        group = next((c for c in classes if is_infinite(surviving_time(M, words[c[0]], w))), None)
        if group is None:
            classes.append(group := [])
        group.append(b)
    classes.sort(key=lambda c: c[-1])
    return [tuple(words[b] for b in c) for c in classes]

"""Combinatorial model of Barański carpets.

A carpet is determined by division counts n, m, a digit set selecting
cells of the n x m grid, and optional exact rational contraction ratios
for the two base interval subdivisions.  Digits are kept in a canonical
order (bottom row first, left to right) and the letters 1..N of the
alphabet refer to digits in that order.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .automaton import (
    EXIT,
    ID,
    MAX_LETTER,
    SigmaAutomaton,
    build_topology_automaton,
    json_decode,
    json_field,
    json_int,
)
from .errors import InternalError


class CarpetError(ValueError):
    """Malformed carpet definition."""


class CarpetSpec(namedtuple("CarpetSpec", "n m digits hratios vratios")):
    """n x m division counts, the digits as (column, row) pairs of ints, and
    the column (hratios) and row (vratios) ratios as Fractions, or None."""

    __slots__ = ()

    def __new__(cls, n, m, digits, hratios=None, vratios=None):
        if not type(n) is type(m) is int:  # a bool or 2.5 is no division count
            raise CarpetError(f"division counts {n!r}, {m!r} are not integers")
        if n < 2 or m < 2:
            raise CarpetError("division counts must be at least 2")
        if max(n, m) > MAX_LETTER:
            raise CarpetError(f"division counts must be at most {MAX_LETTER}")
        try:
            digits = tuple((a, b) for a, b in digits)
        except (TypeError, ValueError) as e:  # not iterable, or not pairs
            raise CarpetError(f"digits must be (column, row) pairs: {e}") from e
        for a, b in digits:  # a bool, 0.7 or '3' is no digit; sorting would compare '3' with 1
            if not type(a) is type(b) is int:
                raise CarpetError(f"digit {(a, b)!r} is not a pair of integers")
        digits = tuple(sorted(digits, key=lambda d: (d[1], d[0])))  # bottom row first
        if not digits:
            raise CarpetError("digit set must be nonempty")
        if len(digits) > MAX_LETTER:
            raise CarpetError(f"{len(digits)} digits exceed the {MAX_LETTER} letters")
        if len(set(digits)) != len(digits):
            raise CarpetError("duplicate digit")
        for d1, d2 in digits:
            if not (0 <= d1 < n and 0 <= d2 < m):
                raise CarpetError(f"digit {(d1, d2)} outside the {n}x{m} grid")
        checked = []
        for name, ratios, count in (("hratios", hratios, n), ("vratios", vratios, m)):
            if ratios is not None:
                try:
                    ratios = tuple(Fraction(r) for r in ratios)
                except (TypeError, ValueError, ArithmeticError) as e:
                    raise CarpetError(f"{name} entries must be rationals: {e}") from e
                if len(ratios) != count:
                    raise CarpetError(f"{name} must have {count} entries")
                if any(r <= 0 for r in ratios):
                    raise CarpetError(f"{name} entries must be positive")
                if sum(ratios) != 1:
                    raise CarpetError(f"{name} must sum to exactly 1")
            checked.append(ratios)
        return super().__new__(cls, n, m, digits, *checked)

    @property
    def alphabet_size(self) -> int:
        return len(self.digits)

    def letters(self):
        return range(1, len(self.digits) + 1)

    def horizontal_ratios(self) -> tuple[Fraction, ...]:
        return self.hratios or tuple([Fraction(1, self.n)] * self.n)

    def vertical_ratios(self) -> tuple[Fraction, ...]:
        return self.vratios or tuple([Fraction(1, self.m)] * self.m)

    def is_uniform(self) -> bool:
        return self.hratios is None and self.vratios is None

    def is_fractal_square(self) -> bool:
        return self.is_uniform() and self.n == self.m

    def companion(self) -> "CarpetSpec":
        return CarpetSpec(self.n, self.m, self.digits)

    def to_dict(self) -> dict:
        data = {"n": self.n, "m": self.m, "digits": [list(d) for d in self.digits]}
        if self.hratios is not None:
            data["hratios"] = [f"{r.numerator}/{r.denominator}" for r in self.hratios]
        if self.vratios is not None:
            data["vratios"] = [f"{r.numerator}/{r.denominator}" for r in self.vratios]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_grid(self) -> str:
        """ASCII grid, top row first.  Only valid for uniform carpets."""
        if not self.is_uniform():
            raise CarpetError("ratio-bearing carpets cannot be written as a grid")
        cells = set(self.digits)
        rows = []
        for d2 in range(self.m - 1, -1, -1):
            rows.append("".join("#" if (d1, d2) in cells else "." for d1 in range(self.n)))
        return "\n".join(rows)


def parse_carpet(text: str) -> CarpetSpec:
    """Parse a carpet from JSON or from an ASCII grid ('#'/'.')."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return carpet_from_dict(json_decode(stripped, CarpetError))
    return _parse_grid(stripped)


def carpet_from_dict(data: dict) -> CarpetSpec:
    """The carpet of decoded JSON {"n", "m", "digits"}, with optional
    "hratios" and "vratios"."""

    def field(name, parse):
        return json_field(data, name, parse, CarpetError, "carpet")

    n = field("n", json_int)
    m = field("m", json_int)
    digits = field("digits", lambda ds: tuple((json_int(a), json_int(b)) for a, b in ds))
    hratios = field("hratios", _ratios) if "hratios" in data else None
    vratios = field("vratios", _ratios) if "vratios" in data else None
    return CarpetSpec(n, m, digits, hratios, vratios)


def _ratios(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(r) for r in values)


def _parse_grid(text: str) -> CarpetSpec:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CarpetError("empty grid")
    m = len(lines)
    n = len(lines[0])
    digits = []
    for row, line in enumerate(lines):
        if len(line) != n:
            raise CarpetError("ragged grid: all lines must have equal length")
        d2 = m - 1 - row  # first line is the top row
        for d1, ch in enumerate(line):
            if ch == "#":
                digits.append((d1, d2))
            elif ch != ".":
                raise CarpetError(f"unexpected grid character {ch!r}")
    return CarpetSpec(n, m, tuple(digits))


def digit_letter(spec: CarpetSpec, digit) -> int:
    return spec.digits.index(tuple(digit)) + 1


class ConditionReport(NamedTuple):
    cross_intersection: bool
    vertical_separation: bool
    top_isolated: bool
    top_letter: int | None

    def to_dict(self):
        return {
            "crossIntersection": self.cross_intersection,
            "verticalSeparation": self.vertical_separation,
            "topIsolated": self.top_isolated,
            "topLetter": self.top_letter,
        }


def check_conditions(spec: CarpetSpec, M: SigmaAutomaton | None = None) -> ConditionReport:
    """Evaluate the three separation conditions on the companion carpet.

    The first-order cylinders K_i and K_j touch exactly when the
    topology automaton ``M`` of the carpet (built when None) moves from
    Id on (i, j) to an offset state, and that state is the digit offset
    d_j - d_i: K_i ∩ K_j = φ_i(K ∩ (K + d_j - d_i)) up to affine scaling.
    """
    if M is None:
        M = build_topology_automaton(spec)
    touching = [(i, j, t) for (s, i, j), t in M.delta.items() if s == ID and t not in (ID, EXIT)]
    cross = all(t[0] == 0 or t[1] == 0 for _, _, t in touching)
    vertical = all(t[1] == 0 for _, _, t in touching)
    top = [i for i, d in enumerate(spec.digits, start=1) if d[1] == spec.m - 1]
    top_isolated = len(top) == 1 and not any(top[0] in (i, j) for i, j, _ in touching)
    return ConditionReport(cross, vertical, top_isolated, top[0] if top_isolated else None)


class HBlock(NamedTuple):
    row: int
    columns: tuple[int, ...]
    letters: tuple[int, ...]
    kind: str  # Full | Left | Right | Interior

    @property
    def size(self) -> int:
        return len(self.columns)


def h_blocks(spec: CarpetSpec) -> list[HBlock]:
    """Maximal runs of consecutive occupied columns, row by row.

    One pass over the digits, which `CarpetSpec` keeps bottom row first
    and left to right, so that the letter of the k-th digit is k + 1: a
    run ends where the row changes or a column is skipped.
    """
    digits = spec.digits
    blocks = []
    start = 0
    for k in range(1, len(digits) + 1):
        if k < len(digits) and digits[k] == (digits[k - 1][0] + 1, digits[k - 1][1]):
            continue
        columns = tuple(c for c, _ in digits[start:k])
        if len(columns) == spec.n:
            kind = "Full"
        elif columns[0] == 0:
            kind = "Left"
        elif columns[-1] == spec.n - 1:
            kind = "Right"
        else:
            kind = "Interior"
        blocks.append(HBlock(digits[start][1], columns, tuple(range(start + 1, k + 1)), kind))
        start = k
    return blocks


class HBlockProfile(NamedTuple):
    block_sizes: tuple[int, ...]  # sorted multiset
    pair_sizes: tuple[tuple[int, int], ...]  # sorted multiset of (left, right)
    fiber: tuple[int, ...]  # cylinder count per row, bottom first

    def to_dict(self):
        return {
            "blockSizes": list(self.block_sizes),
            "pairSizes": [list(p) for p in self.pair_sizes],
            "fiber": list(self.fiber),
        }


def row_pairs(blocks) -> list[tuple[HBlock, HBlock]]:
    """Each row's (Left, Right) block pair, bottom row first, from the
    blocks in the order `h_blocks` lists them; a row lacking either
    block has no pair."""
    lefts = {b.row: b for b in blocks if b.kind == "Left"}
    return [(lefts[b.row], b) for b in blocks if b.kind == "Right" and b.row in lefts]


def block_scan(spec: CarpetSpec):
    """(blocks, pairs): the carpet's `h_blocks` and their `row_pairs`, for
    a caller that reads them more than once."""
    blocks = h_blocks(spec)
    return blocks, row_pairs(blocks)


def profile(spec: CarpetSpec, scan=None) -> HBlockProfile:
    """The H-block profile, from the carpet's `block_scan` (`scan`, when
    the caller has made it already).

    The fiber, the digit count of each row, is summed over the blocks,
    whose letters must then run through 1..N in order: a check that the
    blocks partition the row-sorted digits.
    """
    blocks, pairs = scan or block_scan(spec)
    fiber = [0] * spec.m
    for b in blocks:
        fiber[b.row] += b.size
    if [a for b in blocks for a in b.letters] != list(spec.letters()):
        raise InternalError("the H-blocks do not partition the digits row by row")
    sizes = tuple(sorted(b.size for b in blocks))
    pair_sizes = tuple(sorted((left.size, right.size) for left, right in pairs))
    return HBlockProfile(sizes, pair_sizes, tuple(fiber))

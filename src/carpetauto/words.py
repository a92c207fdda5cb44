"""Eventually periodic words over the alphabet {1, ..., N}.

An infinite word is stored as a finite preperiod followed by a repeating
period.  Words are kept in canonical form so that two representations of
the same infinite sequence compare equal:

* the period is primitive (not a proper power of a shorter word);
* the preperiod is as short as possible (trailing letters that merely
  repeat the period are absorbed by rotating the period).
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .errors import InternalError


def _primitive_root(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for d in range(1, n):
        if n % d == 0 and period[:d] * (n // d) == period:
            return period[:d]
    return period


def check_letters(letters, where: str) -> None:
    """Refuse any letter that is not an int (a bool, 1.5, '3' or numpy
    integer) or that lies below 1, where every alphabet starts."""
    for a in letters:
        if type(a) is not int:
            raise ValueError(f"non-integer letter {a!r} in {where}")
        if a < 1:
            raise ValueError(f"letter {a} below 1 in {where}")


class PeriodicWord(namedtuple("PeriodicWord", "preperiod period")):
    """An eventually periodic infinite word ``preperiod . period^inf``,
    whose constructor builds it in canonical form."""

    __slots__ = ()

    def __new__(cls, preperiod, period):
        pre = tuple(preperiod)
        per = tuple(period)
        if not per:
            raise ValueError("period must be nonempty")
        check_letters(pre + per, "a word")
        if len(per) > 1:
            per = _primitive_root(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        return super().__new__(cls, pre, per)

    @classmethod
    def constant(cls, letter: int) -> "PeriodicWord":
        return cls((), (letter,))

    @classmethod
    def from_stem(cls, stem, tail_letter: int) -> "PeriodicWord":
        """The word ``stem`` followed by ``tail_letter`` repeated forever."""
        return cls(tuple(stem), (tail_letter,))

    def letter(self, k: int) -> int:
        """The k-th letter, 1-indexed."""
        if k < 1:
            raise IndexError(k)
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        return self.period[(k - 1 - len(self.preperiod)) % len(self.period)]

    def prefix(self, k: int) -> tuple[int, ...]:
        """The first k letters: the preperiod, then enough whole periods."""
        if k < 0:
            raise IndexError(k)
        pre, per = self.preperiod, self.period
        return (pre + per * -(-(k - len(pre)) // len(per)))[:k]

    def shift(self, k: int = 1) -> "PeriodicWord":
        """Drop the first k letters."""
        if k < 0:
            raise IndexError(k)
        if k <= len(self.preperiod):
            return PeriodicWord(self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return PeriodicWord((), self.period[r:] + self.period[:r])

    def __str__(self) -> str:
        head = ".".join(str(a) for a in self.preperiod)
        tail = "(" + ".".join(str(a) for a in self.period) + ")"
        return head + tail


_WORD_RE = re.compile(r"^\s*((?:\d+\.)*\d+)?\s*\(((?:\d+\.)*\d+)\)\s*$")


def parse_word(text: str) -> PeriodicWord:
    """Parse the CLI syntax ``1.3.2(4)`` meaning 132 followed by 4 forever."""
    m = _WORD_RE.match(text)
    if not m:
        raise ValueError(f"malformed word {text!r}; expected e.g. '1.3.2(4)' or '(2)'")
    pre = tuple(int(a) for a in m.group(1).split(".")) if m.group(1) else ()
    per = tuple(int(a) for a in m.group(2).split("."))
    return PeriodicWord(pre, per)


def common_prefix_length(x: PeriodicWord, y: PeriodicWord) -> float:
    """|x ∧ y|: length of the longest common prefix; inf when x == y."""
    if x == y:
        return math.inf
    bound = (
        max(len(x.preperiod), len(y.preperiod))
        + math.lcm(len(x.period), len(y.period))
        + 1
    )
    for k in range(1, bound + 1):
        if x.letter(k) != y.letter(k):
            return k - 1
    raise InternalError("unequal words agree beyond the periodicity bound")

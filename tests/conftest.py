"""Frozen fixtures shared by the test suite.

All digit sets below were derived and validated by
scripts/derive_fixtures.py and are re-validated structurally by the
tests that use them (separation conditions, profiles, automaton
classes), so a regression in the library cannot silently invalidate
them.
"""

import os
from fractions import Fraction
from pathlib import Path

from carpetauto.carpet import CarpetSpec
from carpetauto.cross import CrossAutomaton


def src_env() -> dict:
    """The environment for a child Python process, with this checkout's
    src first on PYTHONPATH, so the child imports the package under test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# 5x5 fractal square, top isolated: full bottom row, a (1,1) block pair,
# one size-2 block, one free size-1 block, isolated top cell.
TOP_ISOLATED_11 = CarpetSpec(
    5, 5,
    tuple(
        [(c, 0) for c in range(5)]
        + [(0, 1), (4, 1)]
        + [(1, 2), (2, 2)]
        + [(3, 3)]
        + [(1, 4)]
    ),
)

# 5x7 Bedford-McMullen carpet, vertically separated (occupied rows are
# pairwise non-adjacent), with the same block profile as TOP_ISOLATED_11.
VSEP_11 = CarpetSpec(
    5, 7,
    tuple(
        [(c, 0) for c in range(5)]
        + [(0, 2), (4, 2)]
        + [(1, 4), (2, 4)]
        + [(1, 6), (3, 6)]
    ),
)

# 3x3 fractal squares with five cells: one full block plus two size-1
# blocks; the first is vertically separated, the second top isolated.
SQUARE_VSEP_5 = CarpetSpec(3, 3, ((0, 0), (0, 1), (1, 1), (2, 1), (1, 2)))
SQUARE_TOP_5 = CarpetSpec(3, 3, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 2)))

# Small top-isolated carpets whose automata are Class 1 and whose whole
# simplification chain supports the symbolic bijection (4-letter
# alphabets keep exhaustive stem enumeration tractable).
DISTORTION_CARPETS = (
    CarpetSpec(3, 3, ((0, 0), (1, 0), (1, 1), (0, 2))),
    CarpetSpec(3, 3, ((0, 0), (2, 0), (2, 1), (0, 2))),
    CarpetSpec(3, 3, ((0, 0), (1, 0), (0, 1), (1, 2))),
    CarpetSpec(3, 3, ((1, 0), (2, 0), (2, 1), (1, 2))),
    CarpetSpec(3, 3, ((0, 0), (2, 0), (0, 1), (2, 2))),
    CarpetSpec(3, 3, ((1, 0), (2, 0), (1, 1), (2, 2))),
    CarpetSpec(3, 4, ((0, 0), (1, 0), (0, 1), (0, 3))),
    CarpetSpec(3, 4, ((0, 0), (0, 1), (1, 1), (0, 3))),
    CarpetSpec(3, 4, ((0, 0), (0, 1), (1, 2), (0, 3))),
    CarpetSpec(3, 4, ((0, 0), (2, 0), (0, 1), (0, 3))),
)

# Top-isolated carpet whose vertical relation is a length-2 chain, so
# its final simplification takes two steps.
CHAIN2_CARPET = CarpetSpec(3, 4, ((0, 0), (1, 0), (0, 1), (0, 2), (1, 3)))

# Ratio-bearing carpet for the projection checks.
BARANSKI_RATIO = CarpetSpec(
    2, 3,
    ((0, 0), (1, 0), (0, 1), (1, 2)),
    hratios=(Fraction(1, 3), Fraction(2, 3)),
    vratios=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
)

PROJECTION_CARPETS = (
    SQUARE_VSEP_5,
    SQUARE_TOP_5,
    TOP_ISOLATED_11,
    VSEP_11,
    BARANSKI_RATIO,
)

# Nine-letter automaton: the topology automaton of an eight-cylinder
# fractal square extended by a ninth letter glued to the right of 5.
# It violates the cross-automaton axioms: the entry (5,9) together with
# the e1 loop (5,1) gives triple codings such as (5), 9(1), 5.9(1) and
# so breaks feasibility (docs/nine_letter_example.md).
EXTENDED_9 = CrossAutomaton(
    9,
    {(1, 2), (2, 3), (3, 4), (4, 5), (5, 9)},
    {(7, 6), (6, 4)},
    {(5, 1)},
    {(8, 7)},
)

# The same automaton without the ninth letter.  It satisfies the axioms
# and feasibility with t0 = 1 (docs/nine_letter_example.md).
CARPET_8 = CrossAutomaton(
    8,
    {(1, 2), (2, 3), (3, 4), (4, 5)},
    {(7, 6), (6, 4)},
    {(5, 1)},
    {(8, 7)},
)

"""Topology automata of self-affine carpets.

Combinatorial models of Barański carpets, their topology and cross
automata, the simplification calculus, the symbolic bijection with
bounded surviving-time distortion, and the sufficient-condition
decision procedure for Hölder/Lipschitz equivalence.
"""

from .automaton import (
    EXIT,
    ID,
    INFINITE,
    SigmaAutomaton,
    build_topology_automaton,
    is_infinite,
    surviving_time,
)
from .carpet import (
    CarpetError,
    CarpetSpec,
    check_conditions,
    h_blocks,
    parse_carpet,
    profile,
)
from .classify import build_letter_bijection, decide_equivalence, decide_isometry
from .cross import CrossAutomaton, classify, from_topology_automaton
from .geometry import build_oracle, render_svg
from .gmap import GContext, OmegaWord, g_apply, h_apply
from .metric import holder_scale, rho
from .simplify import final_chain, one_step
from .words import PeriodicWord, parse_word

__all__ = [
    "EXIT",
    "ID",
    "INFINITE",
    "CarpetError",
    "CarpetSpec",
    "CrossAutomaton",
    "GContext",
    "OmegaWord",
    "PeriodicWord",
    "SigmaAutomaton",
    "build_letter_bijection",
    "build_oracle",
    "build_topology_automaton",
    "check_conditions",
    "classify",
    "decide_equivalence",
    "decide_isometry",
    "final_chain",
    "from_topology_automaton",
    "g_apply",
    "h_apply",
    "h_blocks",
    "holder_scale",
    "is_infinite",
    "one_step",
    "parse_carpet",
    "parse_word",
    "profile",
    "render_svg",
    "rho",
    "surviving_time",
]

__version__ = "0.1.0"

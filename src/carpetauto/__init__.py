"""Topology automata of self-affine carpets.

Combinatorial models of Barański carpets, their topology and cross
automata, the simplification calculus, the symbolic bijection with
bounded surviving-time distortion, and the sufficient-condition
decision procedure for Hölder/Lipschitz equivalence.

`_EXPORTS` lists each public name once, under its module; `__all__`
comes from it, and `__getattr__` (PEP 562) imports the module on first
use of a name.  The value is not cached here, so a tracer that swaps a
module attribute and puts it back leaves no stale binding.

`classify` is both the submodule `carpetauto.classify` and the exported
function `cross.classify`.  Importing a submodule binds it on the
package after any `__getattr__`, so a lazily loaded `.classify` would
later shadow the function: the submodule is imported first, here.
"""

import importlib

from . import classify  # noqa: F401  the submodule first; see above
from .cross import classify  # noqa: F811

_EXPORTS = {
    "automaton": ("EXIT", "ID", "INFINITE", "SigmaAutomaton", "build_topology_automaton",
                  "is_infinite", "surviving_time"),
    "carpet": ("CarpetError", "CarpetSpec", "check_conditions", "h_blocks", "parse_carpet",
               "profile"),
    "classify": ("build_letter_bijection", "decide_equivalence", "decide_isometry"),
    "cross": ("CrossAutomaton", "classify", "from_topology_automaton"),
    "geometry": ("build_oracle", "render_svg"),
    "gmap": ("GContext", "OmegaWord", "g_apply", "h_apply"),
    "metric": ("holder_scale", "rho"),
    "simplify": ("final_chain", "one_step"),
    "words": ("PeriodicWord", "parse_word"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

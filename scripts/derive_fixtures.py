"""Search and validate the frozen carpet fixtures used by the test suite.

Run from the repository root:  python3 scripts/derive_fixtures.py

The test suite hard-codes the digit sets printed here; this script is
the derivation record.  It checks the hand-constructed reconstruction
carpets and searches the space of small top-isolated carpets for the
distortion-suite fixtures (small alphabet, Class-2 automaton, and every
simplification step supporting a valid symbolic-map context).
"""

import itertools
import sys

sys.path.insert(0, "src")

from carpetauto.carpet import CarpetSpec, check_conditions, profile
from carpetauto.automaton import build_topology_automaton
from carpetauto.cross import (
    DiagonalStatePresent,
    classify,
    from_topology_automaton,
    validate,
)
from carpetauto.simplify import final_chain
from carpetauto.classify import decide_equivalence


EX_E = CarpetSpec(
    5, 5,
    tuple(
        [(c, 0) for c in range(5)]
        + [(0, 1), (4, 1)]
        + [(1, 2), (2, 2)]
        + [(3, 3)]
        + [(1, 4)]
    ),
)
EX_F = CarpetSpec(
    5, 7,
    tuple(
        [(c, 0) for c in range(5)]
        + [(0, 2), (4, 2)]
        + [(1, 4), (2, 4)]
        + [(1, 6), (3, 6)]
    ),
)
SQ_VSEP = CarpetSpec(3, 3, ((0, 0), (0, 1), (1, 1), (2, 1), (1, 2)))
SQ_TISO = CarpetSpec(3, 3, ((0, 0), (1, 0), (2, 0), (0, 1), (1, 2)))


def report(name, spec):
    M = build_topology_automaton(spec)
    rep = check_conditions(spec, M)
    prof = profile(spec)
    print(f"{name}: digits={spec.digits}")
    print(f"  conditions: {rep.to_dict()}")
    print(f"  profile: {prof.to_dict()}")
    C = from_topology_automaton(M)
    validate(C)
    cls = classify(C, origin=spec)
    print(f"  class: {cls.kind} top={cls.top} bottom={cls.bottom} PV={sorted(C.PV)}")
    return C, cls


def chain_is_g_supported(C):
    chain = final_chain(C)
    return chain.steps and all(s.g_supported for s in chain.steps), len(chain.steps)


def search_top_isolated(max_n=4, max_m=4, max_digits=5, want=20):
    """Top-isolated Class-1 carpets whose whole chain supports the map g."""
    found = []
    for n in range(3, max_n + 1):
        for m in range(3, max_m + 1):
            cells = [(a, b) for a in range(n) for b in range(m) if b < m - 1]
            for top_col in range(n):
                top = (top_col, m - 1)
                for count in range(3, max_digits):
                    for rest in itertools.combinations(cells, count):
                        digits = rest + (top,)
                        spec = CarpetSpec(n, m, digits)
                        M = build_topology_automaton(spec)
                        rep = check_conditions(spec, M)
                        if not (rep.cross_intersection and rep.top_isolated
                                and not rep.vertical_separation):
                            continue
                        try:
                            C = from_topology_automaton(M)
                        except DiagonalStatePresent:
                            continue
                        cls = classify(C, origin=spec)
                        if cls.kind != "Class1":
                            continue
                        ok, steps = chain_is_g_supported(C)
                        if not ok:
                            continue
                        found.append((spec, steps))
                        if len(found) >= want:
                            return found
    return found


def main():
    for name, spec in (("E", EX_E), ("F", EX_F), ("F1", SQ_VSEP), ("F3", SQ_TISO)):
        report(name, spec)
    print()
    v = decide_equivalence(EX_E, EX_F)
    print("E vs F:", v.status)
    v = decide_equivalence(SQ_VSEP, SQ_TISO)
    print("F1 vs F3:", v.status)
    print()
    print("top-isolated distortion fixtures:")
    for spec, steps in search_top_isolated():
        print(f"  CarpetSpec({spec.n}, {spec.m}, {spec.digits}),  # chain length {steps}")


if __name__ == "__main__":
    main()

"""Time the layers of a `simplify` request on the large-carpet family.

Run from the repository root:  python3 scripts/time_large.py

The family is the first three Class-1/2 carpets that
``bench/catalog.random_top_isolated(random.Random(7), 24, 20, 0.55)`` draws,
N 249-251; a draw of more than 255 digits, which ``CarpetSpec`` refuses, is
skipped.  ``bench/catalog.py`` is only imported, never changed.  For each
carpet the script prints, in ms, the best of REPEATS runs of each layer:

- parse: ``parse_carpet`` of the carpet's grid text;
- index: ``geometry.difference_index``;
- oracle: ``geometry.build_oracle`` on that index;
- build: ``build_topology_automaton``;
- search: ``cross.decide_triple_coding_free`` of its cross automaton, the
  triple search that validates the chain's input when it comes as JSON;
- final_chain: ``simplify.final_chain`` of that cross automaton with
  ``validate_stages=False``, the call ``simplify`` makes on a carpet;
- to_json: ``SimplificationChain.to_json`` of that chain;
- isometry: ``classify.decide_isometry`` of the carpet against itself, under
  the ``build_letter_bijection`` certificate built once beforehand.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from carpetauto import geometry  # noqa: E402
from carpetauto.automaton import build_topology_automaton  # noqa: E402
from carpetauto.carpet import CarpetError, parse_carpet  # noqa: E402
from carpetauto.classify import build_letter_bijection, decide_isometry  # noqa: E402
from carpetauto.cross import decide_triple_coding_free, from_topology_automaton  # noqa: E402
from carpetauto.simplify import final_chain  # noqa: E402

FAMILY_SIZE = 3
REPEATS = 5
LAYERS = ("parse", "index", "oracle", "build", "search", "final_chain", "to_json", "isometry")


def family(count: int = FAMILY_SIZE) -> list:
    """The first `count` Class-1/2 carpets of the seeded draw."""
    import catalog

    rng = random.Random(7)
    specs = []
    while len(specs) < count:
        try:
            spec = catalog.random_top_isolated(rng, 24, 20, 0.55)
        except CarpetError:
            continue
        if catalog.kind_of(spec) == "Class12":
            specs.append(spec)
    return specs


def best(fn, repeats: int):
    """(fastest time in s, the last result) of `repeats` calls of fn()."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return min(times), out


def layer_times(specs, repeats: int = REPEATS) -> list[dict]:
    """One dict per carpet: N and the best time in s of each of LAYERS."""
    rows = []
    for spec in specs:
        text = spec.to_grid()
        index = geometry.difference_index(spec)
        row = {"N": len(spec.digits)}
        row["parse"], _ = best(lambda: parse_carpet(text), repeats)
        row["index"], _ = best(lambda: geometry.difference_index(spec), repeats)
        row["oracle"], _ = best(lambda: geometry.build_oracle(spec, index), repeats)
        row["build"], M = best(lambda: build_topology_automaton(spec), repeats)
        C = from_topology_automaton(M)
        row["search"], _ = best(lambda: decide_triple_coding_free(C), repeats)
        row["final_chain"], chain = best(lambda: final_chain(C, validate_stages=False), repeats)
        row["to_json"], _ = best(chain.to_json, repeats)
        bij = build_letter_bijection(spec, spec)
        row["isometry"], _ = best(lambda: decide_isometry(spec, spec, bij), repeats)
        rows.append(row)
    return rows


def main() -> int:
    print(f"best of {REPEATS} runs, ms")
    print("N    " + "".join(f"{name:>12}" for name in LAYERS))
    for row in layer_times(family()):
        print(f"{row['N']:<5}" + "".join(f"{row[name] * 1e3:12.2f}" for name in LAYERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

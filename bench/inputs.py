"""Seeded request rounds for the three workloads.

Everything here is plain standard library: the program under test sees
only the files and argument lists produced from the run's seed and the
fixed catalog in data/catalog.json.  The same seed always gives the
same files and the same round.

A request is a dict with ``kind``, ``argv`` (CLI arguments; an element
naming a key of the returned files stands for that file's path) and
whatever its check needs.  A workload's seed makes one round, a shuffled
list of requests; a run sends that round again and again, so every
request is timed several times over the run (see run.py).  Every seed
uses the same catalog entries, so rounds of different seeds are alike
in cost; the seed draws words, gmap contexts, pairings and order.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CATALOG = Path(__file__).resolve().parent / "data" / "catalog.json"

# A run's latencies are each request's fastest repeat (see run.py), which
# is steady only for short requests repeated many times: every request
# takes at most about 12 ms alone, and a round 0.1-0.4 s, so a 40 s run
# repeats it 80-300 times.  The catalog is a pool, and every round takes
# the same entries from it, so rounds of different seeds cost alike
# (seed-chosen subsets moved the figures between seeds).
#
# Survey: the first SURVEY_PER_GROUP catalog carpets of each group (the
# paper's examples, NotCross, Class0, Unclassified, Class12, Ratio), the
# equivalence pairs among them, and GMAPS_PER_ROUND gmap requests.
SURVEY_PER_GROUP = 2
SURVIVES_PER_CARPET = 1
GMAPS_PER_ROUND = 5
GMAP_LETTERS = 6
# Simplify: the catalog's tiny class (N 6-11, 1-11 ms a request), besides
# CARPET_8 and EXTENDED_9.  The light, medium and heavy classes (N 12-24,
# 0.1-1.1 s a request) are left out: on a shared host, requests that
# long seldom run undisturbed, and their fastest repeats spread by 30 %.
SIMPLIFY_CLASSES = ("tiny",)
# Verify: the four library checks of checks.py on every catalog carpet.
VERIFY_CHECKS = ("oracles", "feasibility", "distortion", "projection")


def load_catalog() -> dict:
    return json.loads(CATALOG.read_text(encoding="utf-8"))


def _word(stem, tail) -> str:
    return ".".join(str(a) for a in stem) + f"({tail})"


def _eventually_constant(rng, N, max_stem=4):
    stem = [rng.randint(1, N) for _ in range(rng.randint(0, max_stem))]
    return stem, rng.randint(1, N)


def _carpet_file(entry) -> str:
    return f"{entry['id']}.txt"


def survey(seed: int, catalog: dict):
    """The first carpets of each catalog group and the pairs among them;
    the seed draws the survive words, the gmap requests and the order."""
    rng = random.Random(f"survey:{seed}")
    groups = {}
    for c in catalog["survey"]["carpets"]:
        groups.setdefault(c["id"].split("-")[0], []).append(c)
    carpets = [c for group in groups.values() for c in group[:SURVEY_PER_GROUP]]
    ids = {c["id"] for c in carpets}
    files = {_carpet_file(c): c["text"] for c in carpets}
    batch = []
    for c in carpets:
        f = _carpet_file(c)
        batch.append({"kind": "analyze", "argv": ["analyze", f], "carpet": c["id"]})
        batch.append({"kind": "automaton_json", "argv": ["automaton", f], "carpet": c["id"]})
        batch.append({"kind": "automaton_dot", "argv": ["automaton", f, "--format", "dot"],
                      "carpet": c["id"]})
        for _ in range(SURVIVES_PER_CARPET):
            x = _eventually_constant(rng, c["N"])
            y = _eventually_constant(rng, c["N"])
            batch.append({"kind": "survive", "argv": ["survive", f, _word(*x), _word(*y)],
                          "carpet": c["id"], "words": [x, y]})
    for p in catalog["survey"]["pairs"]:
        if p["e"] not in ids or p["f"] not in ids:
            continue
        batch.append({"kind": "equiv",
                      "argv": ["equiv", f"{p['e']}.txt", f"{p['f']}.txt"],
                      "pair": [p["e"], p["f"]]})
    for _ in range(GMAPS_PER_ROUND):
        gamma, lam, kappa = rng.sample(range(1, GMAP_LETTERS + 1), 3)
        tau = rng.choice([a for a in range(1, GMAP_LETTERS + 1) if a not in (gamma, kappa)])
        stem = [rng.randint(1, GMAP_LETTERS) for _ in range(rng.randint(0, 8))]
        while stem and stem[-1] == kappa:
            stem.pop()
        batch.append({"kind": "gmap",
                      "argv": ["gmap", "--ctx", f"{gamma},{lam},{kappa},{tau}",
                               _word(stem, kappa)],
                      "ctx": [gamma, lam, kappa, tau], "stem": stem})
    rng.shuffle(batch)
    return files, batch


def simplify(seed: int, catalog: dict):
    """The SIMPLIFY_CLASSES carpets, CARPET_8 and EXTENDED_9; the seed draws the order."""
    rng = random.Random(f"simplify:{seed}")
    spec = catalog["simplify"]
    entries = [c for name in SIMPLIFY_CLASSES for c in spec["classes"][name]]
    accepted, rejected = spec["accepted"], spec["rejected"]
    files = {_carpet_file(c): c["text"] for c in entries + [accepted, rejected]}
    batch = [{"kind": "simplify", "argv": ["simplify", _carpet_file(c)], "entry": c["id"]}
             for c in entries + [accepted]]
    batch.append({"kind": "rejected", "argv": ["simplify", _carpet_file(rejected)],
                  "entry": rejected["id"]})
    rng.shuffle(batch)
    return files, batch


def verify(seed: int, catalog: dict):
    """Every check on every catalog carpet; the seed draws the order.

    The random words of a check are fixed per carpet and check, not drawn
    from the seed: the cost of a projection check moves by 10 % with its
    words, and the slowest check sets latency_tail_s."""
    rng = random.Random(f"verify:{seed}")
    carpets = catalog["verify"]["carpets"]
    files = {_carpet_file(c): c["text"] for c in carpets}
    batch = [{"kind": check, "argv": [check, _carpet_file(c)], "carpet": c["id"],
              "seed": f"{check}:{c['id']}"} for c in carpets for check in VERIFY_CHECKS]
    rng.shuffle(batch)
    return files, batch


WORKLOADS = {"survey": survey, "simplify": simplify, "verify": verify}


def make_inputs(workload: str, seed: int, catalog: dict | None = None):
    """(files, round of requests) of one workload and seed."""
    return WORKLOADS[workload](seed, catalog if catalog is not None else load_catalog())

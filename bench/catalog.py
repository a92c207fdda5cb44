"""Build bench/data/catalog.json: the carpets the workloads draw from,
with the program's answers for each request recorded alongside.

    PYTHONPATH=src python3 bench/catalog.py

The catalog is fixed (its own seed below) and is a pool: every round of
a workload takes the same entries from it (inputs.py), and the run's
--seed draws only words, contexts and order.  The recorded answers are the reference the
run checks against, so rebuild the catalog only at a commit whose
answers are trusted, and say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from answers import decision  # noqa: E402

CATALOG_SEED = 20241201
SURVEY_PER_KIND = 30
RATIO_CARPETS = 20
EQUIV_PAIRS = 60
# Simplify classes: alphabet sizes, and bounds on the validation work
# (see validation_work), which sets a request's time to within about 20 %
# (1.1 us per unit on the defining machine).  Alike costs within a class
# let a run's median and tail fall inside one class.
SIMPLIFY_CLASSES = {
    "tiny": ((6, 11), (0, 20_000)),
    "light": ((12, 14), (160_000, 230_000)),
    "medium": ((15, 17), (400_000, 520_000)),
    "heavy": ((18, 24), (1_200_000, 1_400_000)),
}
SIMPLIFY_PER_CLASS = 10
VERIFY_CARPETS = 10


def cli_answer(argv, files):
    """Run one CLI request in-process on temporary files; (rc, out, err)."""
    from carpetauto import cli

    tmp = HERE.parent / ".bench_work" / "catalog"
    tmp.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, text in enumerate(files):
        p = tmp / f"in{k}"
        p.write_text(text, encoding="utf-8")
        paths.append(str(p))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run([a.format(*paths) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def random_uniform(rng, max_div=8, max_digits=16):
    from carpetauto.carpet import CarpetSpec

    n = rng.randint(2, max_div)
    m = rng.randint(2, max_div)
    cells = [(a, b) for a in range(n) for b in range(m)]
    count = rng.randint(2, min(max_digits, len(cells)))
    return CarpetSpec(n, m, tuple(rng.sample(cells, count)))


def random_top_isolated(rng, n, m, fill):
    """A carpet whose automaton is Class 1 unless a check below says otherwise:
    one top cell above an empty cell, in an inner column that also has a
    bottom cell, so no diagonal offset survives."""
    from carpetauto.carpet import CarpetSpec

    c = rng.randint(1, n - 2)
    cells = {(c, m - 1), (c, 0)}
    for y in range(m - 1):
        for x in range(n):
            if (x, y) != (c, m - 2) and rng.random() < fill:
                cells.add((x, y))
    return CarpetSpec(n, m, tuple(cells))


def random_ratios(rng, count):
    weights = [rng.randint(1, 4) for _ in range(count)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def kind_of(spec) -> str:
    from carpetauto.automaton import build_topology_automaton
    from carpetauto.cross import DiagonalStatePresent, classify, from_topology_automaton

    try:
        C = from_topology_automaton(build_topology_automaton(spec))
    except DiagonalStatePresent:
        return "NotCross"
    kind = classify(C, origin=spec).kind
    return "Class12" if kind in ("Class1", "Class2") else kind


def carpet_text(spec) -> str:
    return spec.to_grid() if spec.is_uniform() else spec.to_json()


def survey_entry(name, kind, spec):
    from carpetauto.metric import holder_scale

    text = carpet_text(spec)
    answers = {}
    for key, argv in (
        ("analyze", ["analyze", "{0}"]),
        ("automaton_json", ["automaton", "{0}"]),
        ("automaton_dot", ["automaton", "{0}", "--format", "dot"]),
    ):
        rc, out, err = cli_answer(argv, [text])
        if rc != 0:
            raise RuntimeError(f"{name}: {argv[0]} exit {rc}: {err}")
        answers[key] = decision(key, out)
    assert answers["automaton_dot"]["delta"] == answers["automaton_json"]["delta"]
    return {
        "id": name,
        "kind": kind,
        "N": spec.alphabet_size,
        "text": text,
        "xi": holder_scale(spec).xi,
        "analyze": answers["analyze"],
        "automaton": answers["automaton_json"],
    }


def build_survey(rng, examples):
    from carpetauto.carpet import CarpetSpec, parse_carpet

    carpets = []
    for name, text in examples["carpets"].items():
        spec = parse_carpet(text)
        carpets.append(survey_entry(name, kind_of(spec), spec))
    want = {"NotCross": SURVEY_PER_KIND, "Class0": SURVEY_PER_KIND,
            "Unclassified": SURVEY_PER_KIND, "Class12": SURVEY_PER_KIND}
    seen = {c["text"] for c in carpets}
    tries = 0
    while any(want.values()):
        tries += 1
        if tries % 3 == 0 and want["Class12"]:
            n, m = rng.randint(3, 8), rng.randint(3, 8)
            spec = random_top_isolated(rng, n, m, rng.uniform(0.15, 0.5))
            if spec.alphabet_size > 20:
                continue
        else:
            spec = random_uniform(rng)
        kind = kind_of(spec)
        text = carpet_text(spec)
        if want.get(kind, 0) and text not in seen:
            seen.add(text)
            want[kind] -= 1
            carpets.append(survey_entry(f"{kind}-{len(carpets)}", kind, spec))
    for k in range(RATIO_CARPETS):
        base = random_uniform(rng, max_div=5, max_digits=10)
        spec = CarpetSpec(base.n, base.m, base.digits,
                          random_ratios(rng, base.n), random_ratios(rng, base.m))
        carpets.append(survey_entry(f"Ratio-{k}", kind_of(spec), spec))
    print(f"survey: {len(carpets)} carpets after {tries} random draws", file=sys.stderr)
    return carpets


def build_pairs(rng, carpets, examples):
    """Equivalence requests: the paper's pairs, each candidate carpet
    against itself, and random pairs with equal horizontal divisions."""
    by_id = {c["id"]: c for c in carpets}
    candidates = [
        (v["e"], v["f"]) for v in examples["verdicts"]
    ] + [(v["f"], v["e"]) for v in examples["verdicts"]]
    selfable = [c["id"] for c in carpets if c["kind"] in ("Class0", "Class12")]
    candidates += [(i, i) for i in rng.sample(selfable, min(20, len(selfable)))]
    while len(candidates) < EQUIV_PAIRS * 2:
        e, f = rng.sample(carpets, 2)
        if e["analyze"]["carpet"]["n"] == f["analyze"]["carpet"]["n"]:
            candidates.append((e["id"], f["id"]))
    pairs = []
    skipped = []
    for e, f in candidates:
        rc, out, err = cli_answer(["equiv", "{0}", "{1}"], [by_id[e]["text"], by_id[f]["text"]])
        if rc != 0:
            skipped.append((e, f, rc, err.strip()))
            continue
        pairs.append({"e": e, "f": f, "answer": decision("equiv", out)})
        if len(pairs) == EQUIV_PAIRS:
            break
    for e, f, rc, err in skipped:
        print(f"equiv {e} {f}: exit {rc} ({err}); not used", file=sys.stderr)
    return pairs


def simplify_entry(name, text, pv_count):
    rc, out, err = cli_answer(["simplify", "{0}"], [text])
    if rc != 0:
        raise RuntimeError(f"{name}: simplify exit {rc}: {err}")
    return {"id": name, "text": text, "PV": pv_count, "answer": decision("simplify", out)}


def validation_work(C) -> int:
    """Input triples tried when validating every stage of C's chain.

    ``cross.decide_triple_coding_free`` tries all N^3 inputs in each
    joint state it reaches, and a valid stage has every reachable joint
    state explored; they are counted here by following only the
    transitions that exist.
    """
    from carpetauto.automaton import EXIT, ID
    from carpetauto.simplify import final_chain

    N = C.alphabet_size
    reached = 0
    for stage in final_chain(C, validate_stages=False).stages[1:]:
        M = stage.induced_automaton()
        succ = {}
        for (s, i, j), t in M.delta.items():
            succ.setdefault((s, i), []).append((j, t))
        start = (ID, ID, ID)
        seen = {start}
        frontier = [start]
        while frontier:
            s1, s2, s3 = frontier.pop()
            for i in range(1, N + 1):
                for j, t1 in succ.get((s1, i), ()):
                    for k, t2 in succ.get((s2, i), ()):
                        nxt = (t1, t2, M.step(s3, j, k))
                        if t1 != EXIT and t2 != EXIT and nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
        reached += len(seen)
    return reached * N**3


def build_simplify(rng, examples):
    from carpetauto.automaton import build_topology_automaton
    from carpetauto.cross import from_topology_automaton

    classes = {}
    for name, ((lo, hi), (wlo, whi)) in SIMPLIFY_CLASSES.items():
        entries = []
        seen = set()
        while len(entries) < SIMPLIFY_PER_CLASS:
            n, m = rng.randint(4, 8), rng.randint(3, 8)
            spec = random_top_isolated(rng, n, m, rng.uniform(0.3, 0.8))
            N = spec.alphabet_size
            text = carpet_text(spec)
            if not lo <= N <= hi or text in seen or kind_of(spec) != "Class12":
                continue
            C = from_topology_automaton(build_topology_automaton(spec))
            work = validation_work(C)
            if not wlo <= work <= whi:
                continue
            seen.add(text)
            entry = simplify_entry(f"{name}{len(entries)}-N{N}", text, len(C.PV))
            entries.append(dict(entry, work=work))
        classes[name] = entries
        print(f"simplify {name}: {len(entries)} carpets", file=sys.stderr)
    cross = examples["cross"]
    return {
        "classes": classes,
        "accepted": simplify_entry("CARPET_8", json.dumps(cross["CARPET_8"]),
                                   len(cross["CARPET_8"]["PV"])),
        "rejected": {
            "id": "EXTENDED_9",
            "text": json.dumps(cross["EXTENDED_9"]),
            "reason": examples["rejected"]["EXTENDED_9"],
        },
    }


def build_verify(rng):
    """Small Class-1/2 carpets whose every chain step supports the bijection."""
    from carpetauto.automaton import build_topology_automaton
    from carpetauto.carpet import CarpetError, CarpetSpec
    from carpetauto.cross import from_topology_automaton
    from carpetauto.simplify import final_chain

    out = []
    seen = set()
    while len(out) < VERIFY_CARPETS:
        n, m = rng.randint(3, 4), rng.randint(3, 4)
        cells = [(a, b) for a in range(n) for b in range(m)]
        try:
            spec = CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(4, 5))))
        except CarpetError:
            continue
        text = carpet_text(spec)
        if text in seen or kind_of(spec) != "Class12":
            continue
        chain = final_chain(from_topology_automaton(build_topology_automaton(spec)))
        if all(step.g_supported for step in chain.steps):
            seen.add(text)
            out.append({"id": f"V{len(out)}", "text": text, "N": spec.alphabet_size})
    return out


def main():
    examples = json.loads((HERE / "data" / "examples.json").read_text())
    rng = random.Random(CATALOG_SEED)
    survey = build_survey(rng, examples)
    catalog = {
        "survey": {"carpets": survey, "pairs": build_pairs(rng, survey, examples)},
        "simplify": build_simplify(rng, examples),
        "verify": {"carpets": build_verify(rng)},
    }
    check_examples(catalog, examples)
    path = HERE / "data" / "catalog.json"
    path.write_text(json.dumps(catalog, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


def check_examples(catalog, examples):
    """The recorded answers agree with the paper's worked examples."""
    by_id = {c["id"]: c for c in catalog["survey"]["carpets"]}
    for name, kind in examples["classes"].items():
        got = by_id[name]["analyze"]["class"]["kind"]
        assert got == kind, (name, got, kind)
    verdicts = {(p["e"], p["f"]): p["answer"]["status"] for p in catalog["survey"]["pairs"]}
    for v in examples["verdicts"]:
        assert verdicts[(v["e"], v["f"])] == v["status"], v


if __name__ == "__main__":
    main()

"""Summarise a benchmark record: parent against change, workload by workload.

Run from the repository root:  python3 scripts/bench_summary.py BENCH_<label>.json

The record holds runs of ``bench/run.py`` on the parent commit and on the
change (keys ``side``, ``workload``, ``seed``, ``trace`` and ``result``, as
in the ``BENCH_*.json`` files).  For each workload and each end-to-end
metric of ``BENCHMARK.json`` that every such run holds, from the
untraced runs, it prints:

- the parent's and the change's median and quartiles;
- whether the runs resolve the metric: not when the wider of the two
  sides' interquartile ranges, as a fraction of the parent's median,
  exceeds the metric's regression bound, unless every change run is
  better than every parent run;
- in how many seed-paired runs the change was better (runs of one
  workload with the same seed pair up in the order they are listed);
- whether the gap between the medians exceeds the parent's interquartile
  range, in the direction the metric counts as better;
- whether the change's median is within the metric's regression bound;
- whether the claim rule of the choosing-metrics guide holds: at least
  ten pairs, the change better in at least nine tenths of them, and the
  gap between the medians beyond the parent's interquartile range.

It also counts each side's runs that failed their correctness check or
had failed requests.  Both files are only read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SIDES = ("parent", "change")
CLAIM_PAIRS = 10  # the fewest pairs on which a gain may be claimed


def quartiles(values):
    """(q1, median, q3) of the values, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs, metrics):
    """One row per workload and metric, from the untraced runs.

    `metrics` is BENCHMARK.json's ``end_to_end`` list: name, better and
    bound of each metric.
    """
    untraced = [r for r in runs if r["trace"] == 0]
    rows = []
    for workload in sorted({r["workload"] for r in untraced}):
        by_side = {side: [r for r in untraced if r["workload"] == workload and r["side"] == side]
                   for side in SIDES}
        if not all(by_side.values()):
            continue
        pairs = []
        for seed in sorted({r["seed"] for r in by_side["change"]}):
            pairs += zip(*([r for r in by_side[side] if r["seed"] == seed] for side in SIDES))
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            if any(name not in r["result"]["metrics"] for side in SIDES for r in by_side[side]):
                continue

            def value(run):
                return run["result"]["metrics"][name]["value"]

            values = {side: [value(r) for r in by_side[side]] for side in SIDES}
            q = {side: quartiles(values[side]) for side in SIDES}
            parent, change = q["parent"][1], q["change"][1]
            spread = max(q[side][2] - q[side][0] for side in SIDES)
            if lower:
                apart = max(values["change"]) < min(values["parent"])
            else:
                apart = min(values["change"]) > max(values["parent"])
            gain = parent - change if lower else change - parent
            wins = sum(1 for p, c in pairs if (value(c) < value(p) if lower else value(c) > value(p)))
            limit = parent * (1 + metric["bound"] if lower else 1 - metric["bound"])
            gap_exceeds_iqr = gain > q["parent"][2] - q["parent"][0]
            claim = len(pairs) >= CLAIM_PAIRS and 10 * wins >= 9 * len(pairs) and gap_exceeds_iqr
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": q["parent"],
                "change": q["change"],
                "resolved": apart or spread <= metric["bound"] * parent,
                "delta": (change - parent) / parent if parent else 0.0,
                "wins": wins,
                "pairs": len(pairs),
                "gap_exceeds_iqr": gap_exceeds_iqr,
                "within_bound": change <= limit if lower else change >= limit,
                "claim": claim,
            })
    return rows


def failures(runs):
    """{side: (runs, runs not correct or with a failed request)}."""
    return {side: (sum(1 for r in runs if r["side"] == side),
                   sum(1 for r in runs if r["side"] == side
                       and (not r["result"]["correct"] or r["result"]["failed"])))
            for side in SIDES}


def format_rows(rows) -> str:
    def q(values):
        q1, median, q3 = values
        return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "resolved", "delta", "wins", "gap > parent IQR", "within bound", "claim rule")
    table = [header] + [(
        r["workload"], r["metric"], q(r["parent"]), q(r["change"]),
        "yes" if r["resolved"] else "no", f"{r['delta']:+.1%}",
        f"{r['wins']}/{r['pairs']}", "yes" if r["gap_exceeds_iqr"] else "no",
        "yes" if r["within_bound"] else "NO", "met" if r["claim"] else "no",
    ) for r in rows]
    widths = [max(len(line[k]) for line in table) for k in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                     for line in table)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("record", help="a BENCH_<label>.json file")
    args = p.parse_args(argv)
    runs = json.loads(Path(args.record).read_text())["runs"]
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print(format_rows(summarize(runs, metrics)))
    for side, (count, failed) in failures(runs).items():
        print(f"{side}: {count} runs, {failed} not correct or with failed requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

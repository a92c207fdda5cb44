import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

METRICS = [
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]


def run(side, workload, seed, p50, rps, trace=0, correct=True, failed=0):
    metrics = {"latency_p50_s": {"value": p50, "unit": "s"},
               "requests_per_s": {"value": rps, "unit": "1/s"}}
    return {"side": side, "commit": "x", "workload": workload, "seed": seed, "trace": trace,
            "seconds": 40, "result": {"correct": correct, "attempted": 100, "failed": failed,
                                      "metrics": metrics}}


def synthetic_runs():
    # simplify: the change is faster on seeds 1 and 2, slower on seed 3,
    # and its median p50 (0.8) sits beyond the parent's quartiles (1.05, 1.15)
    return [
        run("parent", "simplify", 1, 1.0, 100), run("change", "simplify", 1, 0.8, 125),
        run("change", "simplify", 2, 0.7, 140), run("parent", "simplify", 2, 1.1, 90),
        run("parent", "simplify", 3, 1.2, 80), run("change", "simplify", 3, 1.3, 70),
        # survey: the change is 30 % slower, beyond the 24 % bound
        run("parent", "survey", 1, 1.0, 100), run("change", "survey", 1, 1.3, 70, failed=2),
        # traced runs and a workload with one side only are left out
        run("parent", "simplify", 7, 9.0, 1, trace=1), run("change", "simplify", 7, 9.0, 1, trace=1),
        run("parent", "verify", 1, 1.0, 100),
    ]


def test_summary_of_a_synthetic_record():
    rows = {(r["workload"], r["metric"]): r
            for r in bench_summary.summarize(synthetic_runs(), METRICS)}
    assert sorted(rows) == [("simplify", "latency_p50_s"), ("simplify", "requests_per_s"),
                            ("survey", "latency_p50_s"), ("survey", "requests_per_s")]
    p50 = rows[("simplify", "latency_p50_s")]
    assert p50["parent"] == pytest.approx((1.05, 1.1, 1.15))
    assert p50["change"] == pytest.approx((0.75, 0.8, 1.05))
    assert p50["delta"] == pytest.approx(-0.3 / 1.1)
    assert (p50["wins"], p50["pairs"]) == (2, 3)
    assert p50["gap_exceeds_iqr"] and p50["within_bound"]
    assert not p50["claim"]  # 2 wins in 3 pairs, and fewer than ten pairs
    rps = rows[("simplify", "requests_per_s")]
    assert rps["parent"][1] == 90 and rps["change"][1] == 125
    assert (rps["wins"], rps["pairs"]) == (2, 3)
    assert rps["gap_exceeds_iqr"] and rps["within_bound"]
    slow = rows[("survey", "latency_p50_s")]
    assert slow["parent"] == (1.0, 1.0, 1.0)
    assert (slow["wins"], slow["pairs"]) == (0, 1)
    assert not slow["gap_exceeds_iqr"] and not slow["within_bound"]
    assert not rows[("survey", "requests_per_s")]["within_bound"]
    assert bench_summary.failures(synthetic_runs()) == {"parent": (6, 0), "change": (5, 1)}


def test_resolved_reads_the_wider_spread_unless_the_sides_separate():
    runs = [
        # the parent's p50 spreads by 0.5 / 1.5, beyond the 24 % bound, but
        # every change run is faster than every parent run
        run("parent", "simplify", 1, 1.0, 100), run("change", "simplify", 1, 0.5, 100),
        run("parent", "simplify", 2, 1.5, 100), run("change", "simplify", 2, 0.6, 101),
        run("parent", "simplify", 3, 2.0, 100), run("change", "simplify", 3, 0.9, 99),
        # the change's p50 spreads by 0.3 / 1.0, and its runs overlap the parent's
        run("parent", "survey", 1, 1.0, 100), run("change", "survey", 1, 0.8, 150),
        run("parent", "survey", 2, 1.0, 100), run("change", "survey", 2, 1.0, 200),
        run("parent", "survey", 3, 1.0, 100), run("change", "survey", 3, 1.4, 300),
    ]
    rows = {(r["workload"], r["metric"]): r for r in bench_summary.summarize(runs, METRICS)}
    assert rows[("simplify", "latency_p50_s")]["resolved"]
    assert rows[("simplify", "requests_per_s")]["resolved"]  # a spread of 1 / 100
    assert not rows[("survey", "latency_p50_s")]["resolved"]
    # every change run is faster than every parent run, however wide the spread
    assert rows[("survey", "requests_per_s")]["resolved"]
    assert [r["resolved"] for r in bench_summary.summarize(synthetic_runs(), METRICS)] == [
        False, False, True, True]


def test_script_prints_one_line_per_workload_and_metric(tmp_path, capsys):
    record = tmp_path / "BENCH_synthetic.json"
    record.write_text(json.dumps({"label": "synthetic", "runs": synthetic_runs()}))
    assert bench_summary.main([str(record)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the header, the two end-to-end metrics of BENCHMARK.json that the
    # record holds for each of the two workloads run on both sides, and
    # one failure count per side
    assert lines[0].split()[:2] == ["workload", "metric"]
    assert len(lines) == 1 + 4 + 2
    survey = next(line for line in lines if line.startswith("survey") and "latency_p50_s" in line)
    assert survey.split()[-5:] == ["+30.0%", "0/1", "no", "NO", "no"]
    assert lines[-1] == "change: 5 runs, 1 not correct or with failed requests"


def test_claim_rule_needs_nine_tenths_of_ten_pairs_and_a_gap_beyond_the_iqr(tmp_path, capsys):
    # the parent's p50 runs 1.00 ... 1.09 have quartiles 1.0225 and 1.0675;
    # the change reads 0.9 except on seed 3, where it loses: 9 wins in 10
    # pairs and a median gap of 0.145.  Its requests_per_s also wins 9 of
    # 10 pairs, but by a median gap of 1, inside the parent's spread of 4.5.
    runs = []
    for k in range(10):
        side_runs = [run("parent", "verify", k, 1.0 + k / 100, 100 + k),
                     run("change", "verify", k, 1.05 if k == 3 else 0.9,
                         99 if k == 0 else 101 + k)]
        runs += side_runs if k % 2 else side_runs[::-1]
    rows = {r["metric"]: r for r in bench_summary.summarize(runs, METRICS)}
    p50, rps = rows["latency_p50_s"], rows["requests_per_s"]
    assert (p50["wins"], p50["pairs"]) == (9, 10) and p50["gap_exceeds_iqr"]
    assert p50["claim"]
    assert (rps["wins"], rps["pairs"]) == (9, 10) and not rps["gap_exceeds_iqr"]
    assert not rps["claim"]
    # the same record less one pair: 8 wins in 9 pairs, and fewer than ten
    rows = bench_summary.summarize([r for r in runs if r["seed"] != 9], METRICS)
    assert not any(r["claim"] for r in rows)
    record = tmp_path / "BENCH_claim.json"
    record.write_text(json.dumps({"label": "claim", "runs": runs}))
    assert bench_summary.main([str(record)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["claim", "rule"]
    assert [line.split()[-1] for line in lines[1:3]] == ["met", "no"]

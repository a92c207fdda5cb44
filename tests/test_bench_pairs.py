import importlib.util
import json
import types
from pathlib import Path

import pytest

from test_bench_summary import METRICS, bench_summary

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SIDES = {"parent": ("aaa1111", Path("/parent-tree")), "change": ("bbb2222", Path("/change-tree"))}


def stub_runner(calls):
    """A runner that records its calls; the change side is faster."""
    def run(tree, argv):
        seed = int(argv[argv.index("--seed") + 1])
        calls.append((tree, seed, argv))
        p50 = (1.0 if tree == SIDES["parent"][1] else 0.8) + seed / 100
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"latency_p50_s": {"value": p50, "unit": "s"},
                            "requests_per_s": {"value": 1 / p50, "unit": "1/s"}}}
    return run


def test_sides_alternate_and_the_summary_reads_the_record(tmp_path):
    path = tmp_path / "BENCH_x.json"
    calls = []
    meta = {"label": "x", "change": "faster", "protocol": "alternating pairs"}
    bench_pairs.record_pairs(path, meta, SIDES, "simplify", [1, 2, 3], 40, 0, stub_runner(calls))
    order = [(tree.name, seed) for tree, seed, _ in calls]
    assert order == [("parent-tree", 1), ("change-tree", 1), ("change-tree", 2),
                     ("parent-tree", 2), ("parent-tree", 3), ("change-tree", 3)]
    assert calls[0][2] == ["--workload", "simplify", "--seed", "1", "--seconds", "40",
                           "--trace", "0"]
    record = json.loads(path.read_text())
    assert list(record) == ["label", "change", "command", "protocol", "runs"]
    assert record["label"] == "x" and record["command"] == bench_pairs.COMMAND
    first = record["runs"][0]
    assert {k: v for k, v in first.items() if k != "result"} == {
        "side": "parent", "commit": "aaa1111", "workload": "simplify", "seed": 1, "trace": 0,
        "seconds": 40}
    rows = bench_summary.summarize(record["runs"], METRICS)
    p50 = next(r for r in rows if r["metric"] == "latency_p50_s")
    assert (p50["wins"], p50["pairs"]) == (3, 3) and p50["gap_exceeds_iqr"]
    assert bench_summary.failures(record["runs"]) == {"parent": (3, 0), "change": (3, 0)}


def test_a_second_series_extends_the_record(tmp_path):
    path = tmp_path / "BENCH_x.json"
    calls = []
    bench_pairs.record_pairs(path, {"label": "x", "change": "c", "protocol": "p"}, SIDES,
                             "simplify", [11], 40, 0, stub_runner(calls))
    bench_pairs.record_pairs(path, {"label": "x", "change": None, "protocol": None}, SIDES,
                             "survey", [1, 2], 40, 0, stub_runner(calls))
    record = json.loads(path.read_text())
    assert (record["change"], record["protocol"]) == ("c", "p")
    assert [(r["workload"], r["seed"], r["side"]) for r in record["runs"]] == [
        ("simplify", 11, "parent"), ("simplify", 11, "change"),
        ("survey", 1, "parent"), ("survey", 1, "change"),
        ("survey", 2, "change"), ("survey", 2, "parent")]


def test_the_work_directory_must_lie_outside_the_repository():
    with pytest.raises(SystemExit):
        bench_pairs.main(["--label", "x", "--parent", "HEAD", "--change", "HEAD",
                          "--workload", "simplify", "--seeds", "1",
                          "--workdir", str(bench_pairs.ROOT / "scratch")])


def test_a_series_without_seconds_runs_forty_seconds(tmp_path, monkeypatch):
    # the int default 40 used to end main in AttributeError on 40.is_integer()
    seen = {}
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: types.SimpleNamespace(stdout="abc1234\n"))
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "record_pairs",
                        lambda path, meta, sides, workload, seeds, seconds, trace:
                        seen.update(seconds=seconds))
    assert bench_pairs.main(["--label", "x", "--parent", "HEAD", "--change", "HEAD",
                             "--workload", "simplify", "--seeds", "1",
                             "--workdir", str(tmp_path)]) == 0
    assert seen["seconds"] == 40 and type(seen["seconds"]) is int


@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf"])
def test_seconds_not_finite_and_positive_are_a_usage_error_before_any_unpack(seconds, tmp_path,
                                                                          monkeypatch, capsys):
    # 0 used to unpack both trees and fail in the first run; nan and inf never ended
    unpacked = []
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: types.SimpleNamespace(stdout="abc1234\n"))
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: unpacked.append(rev) or dest)
    monkeypatch.setattr(bench_pairs, "record_pairs", lambda *a: None)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--label", "x", "--parent", "HEAD", "--change", "HEAD",
                          "--workload", "simplify", "--seeds", "1", "--seconds", seconds,
                          "--workdir", str(tmp_path)])
    assert exc.value.code == 2 and unpacked == []
    assert "--seconds must be finite and positive" in capsys.readouterr().err

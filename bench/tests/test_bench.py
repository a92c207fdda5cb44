"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

They cover the seeded generator, the known-answer checks and the traced
run; the program under test is imported from src/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402


@pytest.fixture(scope="module")
def catalog():
    return inputs.load_catalog()


def dump(files, batch):
    return json.dumps([files, batch], sort_keys=True).encode()


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_inputs(workload, catalog):
    a = dump(*inputs.make_inputs(workload, 7, catalog))
    b = dump(*inputs.make_inputs(workload, 7, inputs.load_catalog()))
    assert a == b
    assert dump(*inputs.make_inputs(workload, 8, catalog)) != a


@pytest.fixture()
def client(tmp_path, catalog):
    files = {}
    for workload in inputs.WORKLOADS:
        files.update(inputs.make_inputs(workload, 1, catalog)[0])
    return run.Client(tmp_path, files)


def requests_of(kind, catalog, count=1):
    workload = {"simplify": "simplify", "rejected": "simplify", "oracles": "verify",
                "feasibility": "verify", "distortion": "verify", "projection": "verify"}.get(
        kind, "survey")
    _, batch = inputs.make_inputs(workload, 1, catalog)
    return [req for req in batch if req["kind"] == kind][:count]


def test_checker_accepts_the_program(client, catalog):
    checker = run.Checker(catalog)
    batch = [req for kind in ("analyze", "automaton_json", "automaton_dot", "equiv", "survive",
                              "gmap", "simplify", "rejected")
             for req in requests_of(kind, catalog, 3)]
    loop = run.Loop(client, batch, rounds=2)
    assert run.check_all(checker, batch, loop.outputs) == {}
    assert loop.differ == [0] * len(batch)
    assert run.tally(batch, loop, {}) == (0, [])


def test_tally_counts_wrong_and_unsteady_requests(client, catalog):
    batch = requests_of("gmap", catalog, 3)
    loop = run.Loop(client, batch, rounds=3)
    loop.differ[2] = 1
    failed, lines = run.tally(batch, loop, {0: "wrong"})
    assert failed == 3 + 1
    assert lines[0] == "wrong" and "1 of 2 repeats" in lines[1]


def corrupt_json(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("kind, edit", [
    ("analyze", lambda d: d["class"].update(kind="Class0" if d["class"]["kind"] != "Class0"
                                            else "Class2")),
    ("equiv", lambda d: d.update(status="Inconclusive" if d["status"] != "Inconclusive"
                                 else "HolderEquivalent")),
    ("survive", lambda d: d.update(T=(d["T"] or 0) + 1, infinite=False)),
    ("automaton_json", lambda d: d["delta"].popitem()),
    ("simplify", lambda d: d[0]["deleted"].reverse()),
])
def test_checker_catches_a_wrong_answer(kind, edit, client, catalog):
    checker = run.Checker(catalog)
    req = requests_of(kind, catalog)[0]
    rc, out, err = client.execute(req)
    bad = (rc, corrupt_json(out, edit), err)
    checker.prepare([req])
    assert checker(req, (rc, out, err)) is None
    assert checker(req, bad) is not None


def test_checker_catches_a_wrong_dot_edge(client, catalog):
    checker = run.Checker(catalog)
    req = requests_of("automaton_dot", catalog)[0]
    rc, out, err = client.execute(req)
    lines = out.splitlines()
    edge = next(k for k, ln in enumerate(lines) if "->" in ln)
    del lines[edge]
    assert checker(req, (rc, "\n".join(lines), err)) is not None


def test_checker_catches_an_accepted_invalid_automaton(client, catalog):
    checker = run.Checker(catalog)
    req = requests_of("rejected", catalog)[0]
    assert checker(req, client.execute(req)) is None
    assert checker(req, (0, "[]", "")) is not None


@pytest.mark.parametrize("kind", ["oracles", "feasibility", "distortion", "projection"])
def test_checker_catches_a_failed_verify_check(kind, client, catalog):
    checker = run.Checker(catalog)
    req = requests_of(kind, catalog)[0]
    out = client.execute(req)
    assert checker(req, out) is None
    for key in out:
        assert checker(req, dict(out, **{key: 1})) is not None


def test_traced_and_untraced_outputs_match(client, catalog):
    batch = []
    for kind in ("analyze", "automaton_dot", "equiv", "survive", "gmap", "simplify",
                 "rejected", "oracles", "feasibility", "distortion", "projection"):
        batch += requests_of(kind, catalog, 1)
    plain = run.Loop(client, batch, rounds=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.Loop(client, batch, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.outputs == plain.outputs
    values = tracer.metrics(0.0)
    assert set(values) == set(metric_names())
    for name in ("cli.run", "geometry.raster_overlap", "fastsim.time_matrix",
                 "cross.decide_triple_coding_free", "classify.decide_equivalence"):
        assert values[f"{name}.calls"] > 0, name
    from carpetauto import cli

    assert not hasattr(cli.run, "__wrapped__")


def test_tail_is_the_value_with_ten_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    value, label = run.tail([float(k) for k in range(201)])
    assert value == 190.0 and label == "p95.0"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

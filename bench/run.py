"""carpetauto benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload survey --seed 1 --seconds 40 --trace 0

Run from the repository root.  One client in one process sends the next
request only after the previous one returns; requests go through
``carpetauto.cli.run(argv)`` in-process with output captured, or through
the library where the CLI has no entry point (the verify workload's
checks).  The seed makes one round of short requests, and the run
sends that round again and again until its time is up.  A request's
latency is the fastest of its repeats: on a shared host the speed of a
core drifts by up to 40 % from one second to the next, and the fastest
of many repeats is what the program costs when the host leaves it
alone.  The
first round's outputs are checked against known answers after the clock
stops, and every later repeat must give the same output.  The last line
of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  The traced run
spends half its time traced and then repeats the same rounds untraced,
so the difference is the tracing overhead and the two sets of outputs
must be identical.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

# The tail is the highest percentile with at least TAIL_BEYOND requests
# beyond it; rounds smaller than TAIL_ROUND (simplify, verify) report
# their slowest request instead.
TAIL_BEYOND = 10
TAIL_ROUND = 50
# The modules each workload's requests use, imported by the set-up probe.
SETUP_IMPORTS = {
    "survey": ("carpetauto.cli",),
    "simplify": ("carpetauto.cli",),
    "verify": ("carpetauto.geometry", "carpetauto.fastsim", "carpetauto.simplify",
               "carpetauto.gmap", "carpetauto.metric"),
}
# Fresh-interpreter probes, taken between rounds every PROBE_EVERY
# seconds of the loop, at least PROBES of them: setup_s is their median.
# The cold start of the CLI is printed beside the metrics but is not one
# of them: it is mostly interpreter start, which the program does not
# control, and on a shared host even its fastest of 50 probes spread by
# 10-20 % between runs of the same code.
PROBE_EVERY = 2.0
PROBES = 8
COLD_START_CARPET = "SQUARE_TOP_5"

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv):
    """One in-process CLI request: (exit code, stdout, stderr)."""
    from carpetauto import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


class Client:
    """Executes requests against files written into a work directory."""

    def __init__(self, workdir: Path, files: dict):
        self.workdir = workdir
        self.files = files
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")

    def path(self, name):
        return str(self.workdir / name)

    def execute(self, req):
        argv = [self.path(a) if a in self.files else a for a in req["argv"]]
        if req["kind"] in checks.REQUESTS:  # a library request; argv names its carpet
            return checks.REQUESTS[req["kind"]](argv[1], req["seed"])
        return run_cli(argv)


class RequestError(str):
    """The exception that ended a request, as its output."""


def execute(client, req):
    try:
        return client.execute(req)
    except Exception as e:  # a failed request, counted, not fatal
        return RequestError(f"{type(e).__name__}: {e}")


class Loop:
    """One closed-loop run: the round sent ``rounds`` times.

    ``best[i]`` is the fastest time of request ``i``, ``outputs[i]`` its
    first output, and ``differ[i]`` the number of later repeats whose
    output was not the same.
    """

    def __init__(self, client, batch, seconds=None, rounds=None, tracer=None,
                 between=lambda: None):
        self.best = [math.inf] * len(batch)
        self.outputs = []
        self.differ = [0] * len(batch)
        self.rounds = 0
        start = time.perf_counter()
        while True:
            for i, req in enumerate(batch):
                if tracer is not None:
                    tracer.request = self.rounds * len(batch) + i
                t0 = time.perf_counter()
                output = execute(client, req)
                self.best[i] = min(self.best[i], time.perf_counter() - t0)
                if self.rounds == 0:
                    self.outputs.append(output)
                elif output != self.outputs[i]:
                    self.differ[i] += 1
            self.rounds += 1
            between()
            if rounds is not None and self.rounds >= rounds:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        self.wall = time.perf_counter() - start


class Checker:
    """Known answers for every request kind, computed after the clock stops."""

    def __init__(self, catalog):
        survey = catalog["survey"]
        self.carpets = {c["id"]: c for c in survey["carpets"]}
        self.pairs = {(p["e"], p["f"]): p["answer"] for p in survey["pairs"]}
        simplify = catalog["simplify"]
        self.chains = {c["id"]: c for entries in simplify["classes"].values() for c in entries}
        self.chains[simplify["accepted"]["id"]] = simplify["accepted"]
        self.rejected = simplify["rejected"]
        self._times = {}

    def __call__(self, req, output):
        kind = req["kind"]
        if kind in checks.REQUESTS:
            return answers.check_violations(output)
        rc, out, err = output
        if kind in ("analyze", "automaton_json", "automaton_dot"):
            entry = self.carpets[req["carpet"]]
            expected = entry["analyze"] if kind == "analyze" else dict(entry["automaton"])
            if kind == "automaton_dot":
                expected.pop("N")
            return answers.check_recorded(kind, expected, rc, out)
        if kind == "equiv":
            return answers.check_recorded(kind, self.pairs[tuple(req["pair"])], rc, out)
        if kind == "simplify":
            entry = self.chains[req["entry"]]
            return answers.check_simplify(entry["answer"], entry["PV"], rc, out)
        if kind == "rejected":
            return answers.check_rejected(self.rejected["reason"], rc, err)
        if kind == "survive":
            entry = self.carpets[req["carpet"]]
            return answers.check_survive(self.survive_time(req), entry["xi"], rc, out)
        if kind == "gmap":
            return answers.check_gmap(req["stem"], req["ctx"][2], rc, out,
                                      lambda g: self.h_of(req["ctx"], g))
        raise ValueError(f"unknown request kind {kind!r}")

    def prepare(self, requests):
        """All-pairs surviving times of every survive request, one matrix per carpet."""
        from carpetauto.automaton import build_topology_automaton
        from carpetauto.carpet import parse_carpet
        from carpetauto.fastsim import INF, time_matrix

        words = {}
        for req in requests:
            if req["kind"] == "survive":
                bucket = words.setdefault(req["carpet"], {})
                for stem, tail in req["words"]:
                    bucket.setdefault((tuple(stem), tail), len(bucket))
        for cid, index in words.items():
            M = build_topology_automaton(parse_carpet(self.carpets[cid]["text"]))
            pool = sorted(index, key=index.get)
            T = time_matrix(M, [s for s, _ in pool], [c for _, c in pool])
            for a, wa in enumerate(pool):
                for b, wb in enumerate(pool):
                    t = int(T[a, b])
                    self._times[(cid, wa, wb)] = None if t == INF else t

    def survive_time(self, req):
        (sx, tx), (sy, ty) = req["words"]
        return self._times[(req["carpet"], (tuple(sx), tx), (tuple(sy), ty))]

    @staticmethod
    def h_of(ctx, g_text):
        from carpetauto.gmap import GContext, OmegaWord, h_apply
        from carpetauto.words import parse_word

        gamma, lam, kappa, tau = ctx
        g = parse_word(g_text)
        if g.period != (kappa,):
            return None
        h = h_apply(GContext(gamma, lam, kappa, tau), OmegaWord(g.preperiod, kappa))
        return h.stem, h.kappa


def check_all(checker, batch, outputs):
    """Wrong answers among the first outputs: index in the round -> reason."""
    checker.prepare([req for req, out in zip(batch, outputs)
                     if not isinstance(out, RequestError)])
    failures = {}
    for i, (req, output) in enumerate(zip(batch, outputs)):
        reason = output if isinstance(output, RequestError) else None
        if reason is None:
            try:
                reason = checker(req, output)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                reason = f"unreadable output: {type(e).__name__}: {e}"
        if reason is not None:
            failures[i] = failure(req, reason)
    return failures


def tally(batch, loop, wrong):
    """(failed executions, failure lines) of a loop whose first outputs
    had the ``wrong`` answers: every repeat of a wrong request fails, and
    so does every other repeat whose output differs from the first."""
    failed = sum(loop.rounds if i in wrong else loop.differ[i] for i in range(len(batch)))
    lines = list(wrong.values()) + [
        failure(batch[i], f"{n} of {loop.rounds - 1} repeats gave another output")
        for i, n in enumerate(loop.differ) if n and i not in wrong
    ]
    return failed, lines


def failure(req, reason):
    return f"{req['kind']} {' '.join(req['argv'])}: {reason}"


def tail(best):
    """(latency, label): the highest percentile of ``best`` with
    TAIL_BEYOND values beyond it, or the maximum of a round smaller than
    TAIL_ROUND."""
    data = sorted(best)
    if len(data) < TAIL_ROUND:
        return data[-1], "max"
    k = len(data) - 1 - TAIL_BEYOND
    return data[k], f"p{100.0 * k / (len(data) - 1):.1f}"


def probe(argv, env):
    """Wall time and result of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


class Probes:
    """Fresh-interpreter samples of set-up and cold-start time.

    ``setup``: importing what the workload uses, timed inside the new
    interpreter.  ``cold``: wall time of ``python -m carpetauto analyze``.
    Samples are spread over the run, so that one quiet or busy moment of
    a shared machine does not set the figures.  A first, unreported
    sample writes the bytecode caches, which a user pays once per install.
    """

    def __init__(self, workload, client, expected, env):
        self.env = env
        self.expected = expected
        self.setup_code = (
            "import time; t = time.perf_counter(); "
            f"import {', '.join(SETUP_IMPORTS[workload])}; print(repr(time.perf_counter() - t))"
        )
        self.cold_argv = [sys.executable, "-m", "carpetauto", "analyze",
                          client.path(f"{COLD_START_CARPET}.txt")]
        self.setup, self.cold = [], []
        self.sample()
        self.setup.clear()
        self.cold.clear()
        self.last = -math.inf

    def sample(self):
        _, proc = probe([sys.executable, "-c", self.setup_code], self.env)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        self.setup.append(float(proc.stdout))
        wall, proc = probe(self.cold_argv, self.env)
        problem = answers.check_recorded("analyze", self.expected, proc.returncode, proc.stdout)
        if problem:
            raise RuntimeError(f"cold-start request failed: {problem}")
        self.cold.append(wall)

    def between_rounds(self):
        if time.perf_counter() - self.last >= PROBE_EVERY:
            self.sample()
            self.last = time.perf_counter()

    def top_up(self):
        while len(self.setup) < PROBES:
            self.sample()


def end_to_end(args, client, batch, checker, env):
    probes = Probes(args.workload, client, checker.carpets[COLD_START_CARPET]["analyze"], env)
    for module in SETUP_IMPORTS[args.workload]:  # set-up is measured in fresh interpreters
        importlib.import_module(module)

    loop = Loop(client, batch, seconds=args.seconds, between=probes.between_rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.top_up()
    failed, lines = tally(batch, loop, check_all(checker, batch, loop.outputs))
    attempted = loop.rounds * len(batch)
    tail_s, label = tail(loop.best)
    notes = [
        f"requests: {len(batch)} a round, {loop.rounds} rounds in {loop.wall:.3f} s,"
        " closed loop, one client; latencies are each request's fastest repeat",
        f"latency_tail_s is the {label} of {len(batch)} requests",
        f"probes: setup_s is the median of {len(probes.setup)}",
        f"cold start of the CLI (not a metric): {min(probes.cold):.4f} s fastest,"
        f" {statistics.median(probes.cold):.4f} s median of {len(probes.cold)}",
        f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted})",
    ]
    metrics = {
        "latency_p50_s": statistics.median(loop.best),
        "latency_tail_s": tail_s,
        "requests_per_s": len(batch) / sum(loop.best),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(probes.setup),
    }
    return attempted, failed, lines, notes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced(args, client, batch, checker):
    from tracing import Tracer, metric_names

    tracer = Tracer()
    tracer.install()
    try:
        loop = Loop(client, batch, seconds=args.seconds / 2, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = Loop(client, batch, rounds=loop.rounds)
    wrong = check_all(checker, batch, loop.outputs)
    failed, lines = tally(batch, loop, wrong)
    for i, req in enumerate(batch):
        if i not in wrong and (plain.outputs[i] != loop.outputs[i] or plain.differ[i]):
            failed += plain.rounds
            lines.append(failure(req, "traced and untraced outputs differ"))
    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    values = tracer.metrics(loop.wall - plain.wall)
    units = metric_names()
    total_self = sum(v for k, v in values.items() if k.endswith(".self_s")) or 1.0
    notes = [
        f"traced: {loop.rounds} rounds of {len(batch)} requests in {loop.wall:.3f} s;"
        f" untraced: {plain.wall:.3f} s",
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        "self-time shares:",
    ] + [
        f"  {k[:-len('.self_s')]:45s} {v / total_self:7.2%}  {v:.4f} s"
        for k, v in sorted(values.items(), key=lambda kv: -kv[1])
        if k.endswith(".self_s") and v > 0
    ]
    attempted = (loop.rounds + plain.rounds) * len(batch)
    return attempted, failed, lines, notes, {k: (v, units[k]) for k, v in values.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "carpetauto" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    catalog = inputs.load_catalog()
    files, batch = inputs.make_inputs(args.workload, args.seed, catalog)
    checker = Checker(catalog)
    files.setdefault(f"{COLD_START_CARPET}.txt", checker.carpets[COLD_START_CARPET]["text"])
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        client = Client(workdir, files)
        if args.trace:
            attempted, failed, lines, notes, metrics = traced(args, client, batch, checker)
        else:
            attempted, failed, lines, notes, metrics = end_to_end(args, client, batch, checker,
                                                                  program_env())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in notes:
        print(line)
    for line in lines[:10]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time ``import carpetauto.cli`` in fresh interpreters.

Run from the repository root:  python3 scripts/time_startup.py [--rounds R] [SRC ...]

Each SRC is a directory holding the ``carpetauto`` package (default: this
checkout's ``src``); give two, such as the ``src`` of a parent checkout and
this one, to compare them.  The package is copied to a temporary directory
first, so no bytecode cache of the source tree is read and none is written
there.  The import is timed inside the child, as the benchmark's set-up
probe times it, under two conditions:

- nocache: ``PYTHONDONTWRITEBYTECODE=1``, so every module of the package is
  compiled from source on each start, as in the benchmark's fresh checkout;
- cache: bytecode read from a temporary ``PYTHONPYCACHEPREFIX``, written by
  one untimed start beforehand.

The rounds are interleaved: each starts one interpreter per SRC and
condition in turn, so a drift of the host's speed touches all alike.  The
script prints the fastest and the median of each, in ms.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 15
CONDITIONS = ("nocache", "cache")
CODE = ("import time; t = time.perf_counter(); import carpetauto.cli; "
        "print(repr(time.perf_counter() - t))")


def start(env: dict) -> float:
    """Seconds one fresh interpreter takes to import the CLI."""
    proc = subprocess.run([sys.executable, "-c", CODE], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"import carpetauto.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def timings(srcs, rounds: int = ROUNDS) -> dict:
    """(src, condition) -> the `rounds` import times in s."""
    times = {(src, cond): [] for src in srcs for cond in CONDITIONS}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {}
        for k, src in enumerate(srcs):
            path = Path(tmp, str(k))
            shutil.copytree(Path(src, "carpetauto"), path / "carpetauto",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, PYTHONPATH=str(path))
            env.pop("PYTHONPYCACHEPREFIX", None)
            envs[src, "nocache"] = dict(env, PYTHONDONTWRITEBYTECODE="1")
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            envs[src, "cache"] = dict(env, PYTHONPYCACHEPREFIX=str(Path(tmp, f"pyc{k}")))
            start(envs[src, "cache"])  # writes the cache
        for _ in range(rounds):
            for key in times:
                times[key].append(start(envs[key]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", nargs="*", default=[str(ROOT / "src")], metavar="SRC")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, not {args.rounds}")
    print(f"import carpetauto.cli, {args.rounds} interleaved rounds, ms")
    print(f"{'condition':<10}{'fastest':>10}{'median':>10}  src")
    for (src, cond), times in timings(args.srcs, args.rounds).items():
        print(f"{cond:<10}{min(times) * 1e3:10.1f}{statistics.median(times) * 1e3:10.1f}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

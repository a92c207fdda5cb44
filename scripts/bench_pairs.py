"""Run the benchmark on two revisions alternately and record every run.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --label pr14 --parent HEAD~1 --change HEAD \\
        --workload simplify --seeds 11 12 13 --seconds 40 --trace 0 \\
        --workdir /tmp/bench-pairs

Each revision is unpacked with ``git archive`` into its own directory under
the work directory, which must lie outside the repository, so both sides
run from committed files only and with identical benchmark settings.  For
each seed the two sides run ``python3 bench/run.py`` one after the other:
the parent first on odd seeds, the change first on even seeds.

Every run is appended to ``BENCH_<label>.json`` in the repository root,
which is created if it is missing and extended if it exists.  The record
holds ``label``, ``change``, ``command``, ``protocol`` and ``runs``; a run
holds ``side``, ``commit``, ``workload``, ``seed``, ``trace``, ``seconds``
and ``result``, the JSON object on the last line of the run's output.  It
is the format ``scripts/bench_summary.py`` reads.  The record is written
after each run, so a series that is stopped keeps the runs it finished.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 bench/run.py --workload W --seed S --seconds T --trace X"


def unpack(rev: str, dest: Path) -> Path:
    """The committed files of `rev`, unpacked into `dest` (emptied first)."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {rev} failed")
    return dest


def bench_run(tree: Path, argv: list[str]) -> dict:
    """The last output line of one benchmark run in `tree`, decoded."""
    proc = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py {' '.join(argv)} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def order(seed: int) -> tuple[str, str]:
    """The sides in the order they run for a seed: parent first on odd seeds."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def record_pairs(path: Path, meta: dict, sides: dict, workload: str, seeds, seconds: float,
                 trace: int, run=bench_run) -> dict:
    """Run each seed on both sides and append the runs to the record at `path`.

    `meta` holds the record's label and, where given, its change and
    protocol text; `sides` maps "parent" and "change" to (commit, tree);
    `run(tree, argv)` gives the decoded result of one run.
    """
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update({key: value for key, value in meta.items() if value is not None})
    record.setdefault("command", COMMAND)
    runs = record.setdefault("runs", [])
    for seed in seeds:
        for side in order(seed):
            commit, tree = sides[side]
            argv = ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
                    "--trace", str(trace)]
            runs.append({"side": side, "commit": commit, "workload": workload, "seed": seed,
                         "trace": trace, "seconds": seconds, "result": run(tree, argv)})
            path.write_text(json.dumps({key: record[key] for key in
                                        ("label", "change", "command", "protocol", "runs")
                                        if key in record}, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    p.add_argument("--parent", required=True, help="revision of the parent side")
    p.add_argument("--change", required=True, help="revision of the change side")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", help="directory outside the repository for the unpacked trees "
                                     "(default: a temporary directory, removed afterwards)")
    p.add_argument("--change-text", help="the record's 'change' field")
    p.add_argument("--protocol", help="the record's 'protocol' field")
    args = p.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        p.error(f"--seconds must be finite and positive, not {args.seconds:g}")
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")).resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        p.error(f"the work directory {workdir} lies inside the repository")
    try:
        sides = {}
        for side in ("parent", "change"):
            commit = subprocess.run(["git", "rev-parse", "--short", getattr(args, side)],
                                    cwd=ROOT, check=True, capture_output=True,
                                    text=True).stdout.strip()
            sides[side] = (commit, unpack(commit, workdir / f"{side}-{commit}"))
        meta = {"label": args.label, "change": args.change_text, "protocol": args.protocol}
        seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
        record_pairs(ROOT / f"BENCH_{args.label}.json", meta, sides, args.workload, args.seeds,
                     seconds, args.trace)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

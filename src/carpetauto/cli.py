"""Command-line front end.

Subcommands: analyze, automaton, simplify, equiv, survive, gmap,
render, selftest.  Reports are JSON on stdout; DOT and SVG go to
stdout or --out.

A source file holds a carpet (ASCII grid or JSON), a cross automaton
(JSON with PH or PV and no delta) or a sigma automaton (other JSON with
delta or N, as `automaton` prints it).  `automaton`, `simplify` and
`survive` take all three kinds; `analyze`, `equiv` and `render` take
carpets only.

Exit codes: 0 success (any verdict), 1 selftest failure, 2 usage error,
3 bad input (any ValueError, which every parser and constructor raises
for a malformed or oversized input, and output that cannot be written:
an --out file, or a standard output whose reader has closed it), 4
internal error (a check of the program's own invariants failed; a fault
in the program, not the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import automaton as automaton_mod
from . import cross as cross_mod
from .automaton import SigmaAutomaton, build_topology_automaton, is_infinite
from .carpet import (
    CarpetError,
    CarpetSpec,
    carpet_from_dict,
    check_conditions,
    parse_carpet,
    profile,
)
from .cross import CrossAutomaton
from .errors import InternalError
from .words import parse_word

INPUT_ERROR = 3
INTERNAL_ERROR = 4


class InputError(ValueError):
    """Bad input found by the front end itself."""


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _load(path: str) -> CarpetSpec | CrossAutomaton | SigmaAutomaton:
    """The carpet, cross automaton or sigma automaton a file holds.

    JSON with PH or PV and no delta is a cross automaton; other JSON
    with delta or N is a sigma automaton; anything else is a carpet.
    JSON is decoded once, here, and the decoded object goes to its reader.
    """
    text = _read(path)
    stripped = text.strip()
    if not stripped.startswith("{"):
        return parse_carpet(text)
    data = automaton_mod.json_decode(stripped, InputError)
    if ("PH" in data or "PV" in data) and "delta" not in data:
        return cross_mod.cross_from_dict(data)
    if "delta" in data or "N" in data:
        return automaton_mod.from_dict(data)
    return carpet_from_dict(data)


def _sigma(source: CarpetSpec | CrossAutomaton | SigmaAutomaton) -> SigmaAutomaton:
    """The sigma automaton of a loaded source."""
    if isinstance(source, CarpetSpec):
        return build_topology_automaton(source)
    if isinstance(source, CrossAutomaton):
        return source.induced_automaton()
    return source


def _emit(text: str, out: str | None):
    if not out:
        try:
            print(text, flush=True)
        except BrokenPipeError as e:  # the reader closed the pipe
            _discard_stdout()
            raise InputError(f"cannot write standard output: {e}") from e
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as e:
        raise InputError(f"cannot write {out}: {e}") from e


def _discard_stdout():
    """Point the standard output's descriptor at os.devnull, so that the
    flush at exit drops what the closed pipe did not take and raises no
    second error."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # no descriptor (io.UnsupportedOperation is a ValueError)
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def cmd_analyze(args):
    spec = parse_carpet(_read(args.carpet))
    M = build_topology_automaton(spec)
    report = {
        "carpet": spec.to_dict(),
        "conditions": check_conditions(spec, M).to_dict(),
        "profile": profile(spec).to_dict(),
    }
    try:
        C = cross_mod.from_topology_automaton(M)
    except cross_mod.DiagonalStatePresent:
        report["class"] = {"kind": "NotCross", "reason": "diagonal offset state reachable"}
    else:
        report["class"] = cross_mod.classify(C, origin=spec)._asdict()
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def cmd_automaton(args):
    M = _sigma(_load(args.source))
    if args.format == "dot":
        _emit(automaton_mod.to_dot(M), args.out)
    else:
        _emit(automaton_mod.to_json(M), args.out)
    return 0


def cmd_simplify(args):
    from .simplify import final_chain

    source = _load(args.source)
    if isinstance(source, CrossAutomaton):
        C = source
    else:
        C = cross_mod.from_topology_automaton(_sigma(source))
    chain = final_chain(C, validate_stages=not isinstance(source, CarpetSpec))
    _emit(chain.to_json(), args.out)
    return 0


def cmd_equiv(args):
    from .classify import decide_equivalence

    if args.e == args.f == "-":
        raise InputError("standard input can stand for only one carpet")
    E = parse_carpet(_read(args.e))
    F = parse_carpet(_read(args.f))
    verdict = decide_equivalence(E, F)
    _emit(verdict.to_json(), args.out)
    return 0


def cmd_survive(args):
    from .metric import holder_scale, rho

    source = _load(args.source)
    M = _sigma(source)
    x, y = parse_word(args.x), parse_word(args.y)
    for w in (x, y):
        if not set(w.preperiod + w.period) <= set(M.letters()):
            raise InputError(f"word {w} has letters outside 1..{M.alphabet_size}")
    xi = args.xi
    if xi is None:
        xi = holder_scale(source).xi if isinstance(source, CarpetSpec) else 0.5
    dist = rho(M, xi, x, y)
    t = dist.time
    _emit(
        json.dumps(
            {
                "T": None if is_infinite(t) else t,
                "infinite": is_infinite(t),
                "xi": xi,
                "rho": dist.value,
            }
        ),
        args.out,
    )
    return 0


def cmd_gmap(args):
    from .gmap import GContext, OmegaWord, g_apply, h_apply, m_decompose, m_prime_decompose

    try:
        gamma, lam, kappa, tau = (int(a) for a in args.ctx.split(","))
        ctx = GContext(gamma, lam, kappa, tau)
    except ValueError as e:
        raise InputError(f"bad context: {e}") from e
    word = parse_word(args.word)
    if word.period != (ctx.kappa,):
        raise InputError("word must have period equal to the context kappa")
    x = OmegaWord(word.preperiod, ctx.kappa)
    g = g_apply(ctx, x)
    h = h_apply(ctx, x)
    _emit(
        json.dumps(
            {
                "input": str(word),
                "g": str(g.to_periodic()),
                "h": str(h.to_periodic()),
                "mDecomposition": [list(s) for s in m_decompose(ctx, x)],
                "mPrimeDecomposition": [list(s) for s in m_prime_decompose(ctx, x)],
            }
        ),
        args.out,
    )
    return 0


def cmd_render(args):
    from .geometry import render_svg

    spec = parse_carpet(_read(args.carpet))
    _emit(render_svg(spec, args.depth, size=args.size), args.out)
    return 0


def cmd_selftest(args):
    rng = random.Random(args.seed)
    lines, failures = [], []

    def check(name, ok):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    check("oracle-agreement", _selftest_oracles(rng))
    check("feasibility", _selftest_feasibility(rng, lines.append))
    check("gmap-bijection", _selftest_gmap())
    check("round-trips", _selftest_roundtrips())
    if not failures:
        lines.append("all selftests passed")
    _emit("\n".join(lines), args.out)
    if failures:
        print(f"{len(failures)} selftest failure(s)", file=sys.stderr)
        return 1
    return 0


def random_carpet(rng, max_div: int = 5, max_digits: int = 12) -> CarpetSpec:
    while True:
        n = rng.randint(2, max_div)
        m = rng.randint(2, max_div)
        cells = [(a, b) for a in range(n) for b in range(m)]
        count = rng.randint(2, min(max_digits, len(cells)))
        digits = tuple(rng.sample(cells, count))
        try:
            return CarpetSpec(n, m, digits)
        except CarpetError:
            continue


def _selftest_oracles(rng) -> bool:
    from .geometry import OFFSETS, build_oracle, chain_survivors, raster_overlap

    for _ in range(20):
        spec = random_carpet(rng, max_div=4)
        oracle = build_oracle(spec)
        if oracle.survivors != chain_survivors(spec):
            return False
        for b in OFFSETS:
            if b != (0, 0) and oracle.intersects(b) != raster_overlap(spec, b):
                return False
    return True


def _selftest_feasibility(rng, say) -> bool:
    """Decide feasibility at t0 = 1 on 5 random carpets; pass a witness to `say`."""
    for _ in range(5):
        spec = random_carpet(rng)
        ok, witness = automaton_mod.decide_feasibility(build_topology_automaton(spec), 1)
        if not ok:
            x, y, z = witness
            say(f"carpet\n{spec.to_grid()}\n"
                f"violates feasibility at t0 = 1 with x={x} y={y} z={z}")
            return False
    return True


def _selftest_gmap() -> bool:
    from itertools import product

    from .gmap import GContext, OmegaWord, g_apply, h_apply

    ctx = GContext(1, 2, 3, 4)
    for length in range(0, 5):
        for stem in product(range(1, 6), repeat=length):
            x = OmegaWord(stem, ctx.kappa)
            if h_apply(ctx, g_apply(ctx, x)) != x:
                return False
    return True


def _selftest_roundtrips() -> bool:
    spec = parse_carpet("#.#\n###\n#.#")
    if parse_carpet(spec.to_json()) != spec or parse_carpet(spec.to_grid()) != spec:
        return False
    M = build_topology_automaton(spec)
    return automaton_mod.from_json(automaton_mod.to_json(M)) == M


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later runs.

    Nothing mutates it after it is built: each parse fills a fresh
    namespace.  Its `commands` attribute is the subparsers action's own
    map from each command name to the command's parser.
    """
    parser = argparse.ArgumentParser(
        prog="carpetauto",
        description="Topology automata of self-affine carpets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("analyze", cmd_analyze, help="separation conditions, profile, and class")
    p.add_argument("carpet", help="carpet file (JSON or ASCII grid), '-' for stdin")

    p = add("automaton", cmd_automaton, help="emit the topology automaton")
    p.add_argument("source", help="carpet or automaton file")
    p.add_argument("--format", choices=("dot", "json"), default="json")

    p = add("simplify", cmd_simplify, help="full simplification chain")
    p.add_argument("source", help="carpet or cross-automaton file")

    p = add("equiv", cmd_equiv, help="sufficient-condition equivalence verdict")
    p.add_argument("e", help="first carpet file")
    p.add_argument("f", help="second carpet file")

    p = add("survive", cmd_survive, help="surviving time and pseudo-distance")
    p.add_argument("source", help="carpet, cross, or automaton file")
    p.add_argument("x", help="word, e.g. '1.3(2)'")
    p.add_argument("y", help="word")
    p.add_argument("--xi", type=float, default=None)

    p = add("gmap", cmd_gmap, help="apply the symbolic bijection")
    p.add_argument("--ctx", required=True, help="gamma,lambda,kappa,tau")
    p.add_argument("word", help="word with period (kappa)")

    p = add("render", cmd_render, help="SVG rendering of cylinder rectangles")
    p.add_argument("carpet", help="carpet file")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--size", type=int, default=512)

    p = add("selftest", cmd_selftest, help="run the built-in property suites")
    p.add_argument("--seed", type=int, default=20260824)

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """The namespace `parser.parse_args(argv)` gives, in one pass over argv.

    The subparsers action takes every string after the command name and
    hands them to the command's parser, so a known command's parser
    reads them here directly.  An unknown or missing command, or strings
    that parser leaves over, go to the full parser, so every usage error
    and help text is the one the full parser prints.
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def run(argv=None) -> int:
    args = _parse(build_parser(), sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

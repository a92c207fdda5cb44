"""Spans around calls into the program's public functions.

The traced run replaces each function named in ``TRACED`` by a wrapper
in every ``carpetauto`` module namespace that binds it, so calls made
through any import path are seen.  Nothing in the program changes;
``uninstall`` puts the originals back.  Spans are kept in memory as
(name, start, end, parent, request) and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# layer -> public functions timed in the traced run
TRACED = {
    "cli": ("build_parser", "run"),
    "carpet": ("parse_carpet", "check_conditions", "profile"),
    "geometry": ("build_oracle", "raster_overlap", "chain_survivors"),
    "automaton": (
        "build_topology_automaton",
        "to_json",
        "to_dot",
        "surviving_time",
        "check_feasibility",
    ),
    "cross": ("from_topology_automaton", "classify", "decide_triple_coding_free"),
    "classify": ("decide_equivalence", "build_letter_bijection"),
    "simplify": ("one_step", "final_chain"),
    "fastsim": ("time_matrix", "check_feasibility_matrix"),
    "gmap": ("g_apply",),
    "metric": ("check_projection_bounds",),
    "words": ("parse_word",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

# counters derived at the span boundaries, with their units
COUNTERS = {
    # builds over distinct (request, carpet) pairs; 1 when no request
    # builds the same carpet's oracle or automaton twice
    "geometry.build_oracle.per_carpet": "ratio",
    "automaton.build_topology_automaton.per_carpet": "ratio",
    "automaton.states": "count",
    "automaton.transitions": "count",
    "cross.triple_letters3": "count",
    "fastsim.pair_steps": "count",
    "fastsim.triples": "count",
}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for span in SPAN_NAMES:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
    names.update(COUNTERS)
    names["trace.overhead_s"] = "s"
    return names


def _carpet_key(spec):
    return (spec.n, spec.m, spec.digits)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.request = -1
        self._stack = []
        self._patched = []
        self._carpets = {"geometry.build_oracle": set(),
                         "automaton.build_topology_automaton": set()}
        self.counts = Counter()

    def install(self):
        for layer in TRACED:
            importlib.import_module(f"carpetauto.{layer}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "carpetauto" or name.startswith("carpetauto.")]
        for layer, fns in TRACED.items():
            module = sys.modules[f"carpetauto.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, args, kwargs, result)
            return result

        return traced

    def _count(self, name, args, kwargs, result):
        if name in self._carpets:
            self._carpets[name].add((self.request, _carpet_key(args[0])))
        if name == "automaton.build_topology_automaton":
            self.counts["automaton.states"] += len(result.states)
            self.counts["automaton.transitions"] += len(result.delta)
        elif name == "cross.decide_triple_coding_free":
            self.counts["cross.triple_letters3"] += args[0].alphabet_size ** 3
        elif name == "fastsim.time_matrix":
            M, stems = args[0], args[1]
            extra = args[3] if len(args) > 3 else kwargs.get("extra")
            if extra is None:
                extra = len(M.states) + 1
            steps = max((len(s) for s in stems), default=0) + extra
            self.counts["fastsim.pair_steps"] += len(stems) ** 2 * steps
        elif name == "fastsim.check_feasibility_matrix":
            self.counts["fastsim.triples"] += args[0].shape[0] ** 3

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics: calls and self time per span name, counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for name, keys in self._carpets.items():
            out[f"{name}.per_carpet"] = calls[name] / len(keys) if keys else 0.0
        for name in COUNTERS:
            out.setdefault(name, self.counts[name])
        out["trace.overhead_s"] = overhead_s
        return out

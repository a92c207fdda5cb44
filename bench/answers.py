"""Decision fields of each request's output, and the known-answer checks.

``catalog.py`` records ``decision(kind, output)`` of every catalog
request as produced by the program at the commit that defined the
benchmark; a run compares the same fields of its own output with that
record.  Keys present in a new output but absent from the record are
ignored, so reports may grow without failing the check.

A check returns ``None`` when the output is right and a one-line reason
when it is wrong.
"""

from __future__ import annotations

import hashlib
import json
import re

_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[label="([^"]*)"\];$')
_DOT_NODE = re.compile(r'^\s*"([^"]+)" \[label=')


def table_digest(items) -> str:
    """Order-free digest of a transition table given as (key, target) pairs."""
    blob = json.dumps(sorted(items), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def automaton_from_json(text: str) -> dict:
    data = json.loads(text)
    states = sorted(s for s in data["states"] if s != "Exit")
    delta = [(k, v) for k, v in data["delta"].items() if v != "Exit"]
    return {"N": data["N"], "states": states, "delta": table_digest(delta)}


def automaton_from_dot(text: str) -> dict:
    states = []
    delta = []
    for line in text.splitlines():
        edge = _DOT_EDGE.match(line)
        if edge:
            src, dst, labels = edge.groups()
            delta.extend((f"{src}|{pair.strip()}", dst) for pair in labels.split("|"))
            continue
        node = _DOT_NODE.match(line)
        if node:
            states.append(node.group(1))
    return {"states": sorted(states), "delta": table_digest(delta)}


def decision(kind: str, stdout: str):
    """The fields of a report that carry its answer."""
    if kind == "analyze":
        report = json.loads(stdout)
        return {k: report[k] for k in ("carpet", "conditions", "profile", "class")}
    if kind == "automaton_json":
        return automaton_from_json(stdout)
    if kind == "automaton_dot":
        return automaton_from_dot(stdout)
    if kind == "equiv":
        verdict = json.loads(stdout)
        cert = verdict["certificate"]
        return {"status": verdict["status"], "map": None if cert is None else cert["map"]}
    if kind == "simplify":
        steps = json.loads(stdout)
        return {
            "deleted": [s["deleted"] for s in steps],
            "final": steps[-1]["after"] if steps else None,
        }
    raise ValueError(f"no decision fields for {kind!r}")


def mismatch(expected, actual, path: str = "") -> str | None:
    """First difference between a recorded answer and a new one.

    Dictionaries compare on the recorded keys only; every other value
    must be equal.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path or 'answer'}: expected an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}/{key}: missing"
            found = mismatch(value, actual[key], f"{path}/{key}")
            if found:
                return found
        return None
    if expected != actual:
        return f"{path or 'answer'}: expected {expected!r}, got {actual!r}"
    return None


def check_recorded(kind: str, expected, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        got = decision(kind, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"unreadable output: {e!r}"
    return mismatch(expected, got)


def check_simplify(expected, pv_count: int, rc: int, stdout: str) -> str | None:
    """Recorded chain, plus the chain invariants: |PV| steps ending in Class 0."""
    problem = check_recorded("simplify", expected, rc, stdout)
    if problem:
        return problem
    steps = json.loads(stdout)
    if len(steps) != pv_count:
        return f"{len(steps)} steps for |PV| = {pv_count}"
    # a cross automaton is Class 0 exactly when its PV relation is empty
    if steps and steps[-1]["after"]["PV"]:
        return "final automaton is not Class 0"
    return None


def check_rejected(reason: str, rc: int, stderr: str) -> str | None:
    """An invalid automaton ends with exit 3 and names a witness."""
    if rc != 3:
        return f"exit code {rc}, expected 3"
    if reason not in stderr or "witness" not in stderr:
        return f"rejection without {reason!r} and a witness: {stderr.strip()[:80]!r}"
    return None


def check_survive(expected_t, xi: float, rc: int, stdout: str) -> str | None:
    """T agrees with the all-pairs simulator; rho is xi**T (0 when infinite)."""
    if rc != 0:
        return f"exit code {rc}"
    out = json.loads(stdout)
    t = None if expected_t is None else int(expected_t)
    if out["T"] != t or out["infinite"] != (t is None):
        return f"T = {out['T']}, expected {t}"
    if out["xi"] != xi:
        return f"xi = {out['xi']}, expected {xi}"
    rho = 0.0 if t is None else xi**t
    if abs(out["rho"] - rho) > 1e-12 * max(1.0, rho):
        return f"rho = {out['rho']}, expected {rho}"
    return None


def check_gmap(stem, kappa: int, rc: int, stdout: str, h_of_g) -> str | None:
    """Both decompositions spell the input, and h(g(x)) == x."""
    if rc != 0:
        return f"exit code {rc}"
    out = json.loads(stdout)
    for key in ("mDecomposition", "mPrimeDecomposition"):
        spelled = [a for seg in out[key] for a in seg]
        if tuple(spelled) != tuple(stem):
            return f"{key} spells {spelled}, not {list(stem)}"
    back = h_of_g(out["g"])
    if back != (tuple(stem), kappa):
        return f"h(g(x)) = {back}, expected {(tuple(stem), kappa)}"
    return None


def check_violations(out: dict) -> str | None:
    """Every violation count of a verify check is 0."""
    for key, value in out.items():
        if key.endswith("_violations") and value != 0:
            return f"{key} = {value}"
    return None

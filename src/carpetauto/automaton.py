"""Pair-alphabet automata: the generic engine plus the carpet builder.

States are ``ID``, ``EXIT``, or a nonzero offset vector (bx, by) with
components in {-1, 0, 1}.  The transition table maps (state, i, j) to a
state; missing entries mean EXIT.  Feeding a pair of infinite words
letter by letter yields an itinerary, and the surviving time is the last
step before the itinerary hits EXIT (infinity if it never does).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .words import PeriodicWord

ID = "Id"
EXIT = "Exit"

_OFFSET_NAMES = {
    (1, 0): "e1",
    (-1, 0): "-e1",
    (0, 1): "e2",
    (0, -1): "-e2",
    (1, 1): "e1+e2",
    (-1, -1): "-e1-e2",
    (1, -1): "e1-e2",
    (-1, 1): "-e1+e2",
}
_NAME_OFFSETS = {v: k for k, v in _OFFSET_NAMES.items()}


def neg(state):
    """Mirror state: offsets negate, Id and Exit are self-mirrored."""
    if state in (ID, EXIT):
        return state
    return (-state[0], -state[1])


def state_name(state) -> str:
    if state in (ID, EXIT):
        return state
    return _OFFSET_NAMES[state]


def state_from_name(name: str):
    if name in (ID, EXIT):
        return name
    try:
        return _NAME_OFFSETS[name]
    except KeyError:
        raise ValueError(f"unknown state name {name!r}") from None


def order_key(state):
    """Deterministic state order: Id first, offsets by name, Exit last."""
    return (0, "") if state == ID else (2, "") if state == EXIT else (1, state_name(state))


INFINITE = math.inf


def is_infinite(t) -> bool:
    return t == math.inf


class AutomatonError(ValueError):
    """Malformed automaton definition."""


# The largest alphabet, and the largest division count of a carpet.  The
# time matrices store letters as uint8, and the bound keeps a few bytes of
# input such as {"N": 100000000} from starting a loop over every letter or row.
MAX_LETTER = 255


def json_int(value) -> int:
    """A size read from JSON: an integer, not a float or a boolean, which
    int() would truncate or read as 0 and 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_decode(text: str, error: type[ValueError]):
    """The decoded JSON text, raising `error`, which says "invalid JSON",
    when the text is not JSON or nests deeper than the decoder can."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise error(f"invalid JSON: {e}") from e


def json_field(data: dict, name: str, parse, error: type[ValueError], kind: str):
    """parse(data[name]), raising `error` that names the field of the
    `kind` JSON when it is missing or malformed."""
    if name not in data:
        raise error(f"{kind} JSON lacks the field {name!r}")
    try:
        return parse(data[name])
    except (AttributeError, TypeError, ValueError, IndexError, ArithmeticError) as e:
        raise error(f"malformed {kind} JSON field {name!r}: {e}") from e


def successor_index(delta: dict) -> dict:
    """(state, i) -> [(j, target)] over the targets of a transition table
    that are not Exit, j ascending."""
    index = {}
    for (s, i, j), t in delta.items():
        if t != EXIT:
            index.setdefault((s, i), []).append((j, t))
    for moves in index.values():
        moves.sort()  # the letters j differ, so no two targets are compared
    return index


@dataclass(frozen=True)
class SigmaAutomaton:
    """Deterministic automaton over the pair alphabet of {1..N}."""

    alphabet_size: int
    states: frozenset
    delta: dict = field(hash=False)

    def __post_init__(self):
        N = self.alphabet_size
        if N < 1:
            raise AutomatonError(f"alphabet of N = {N} letters: N must be at least 1")
        if N > MAX_LETTER:
            raise AutomatonError(f"alphabet of {N} letters exceeds {MAX_LETTER}")
        if ID not in self.states or EXIT not in self.states:
            raise AutomatonError("the states must include Id and Exit")
        for (s, i, j), t in self.delta.items():
            if s == EXIT or s not in self.states or t not in self.states:
                raise AutomatonError(f"transition ({s}, {i}, {j}) -> {t} leaves the state set")
            if not (1 <= i <= N and 1 <= j <= N):
                raise AutomatonError(f"letter outside 1..{N} in transition ({s}, {i}, {j})")
        bad = [(i, j) for (s, i, j), t in self.delta.items() if s == ID and t == ID and i != j]
        bad += [(i, i) for i in self.letters() if self.delta.get((ID, i, i)) != ID]
        if bad:
            i, j = min(bad)
            raise AutomatonError(f"delta(Id,({i},{j})) must be Id exactly when i == j")

    def step(self, state, i: int, j: int):
        if state == EXIT:
            return EXIT
        return self.delta.get((state, i, j), EXIT)

    def letters(self):
        return range(1, self.alphabet_size + 1)


def build_topology_automaton(spec) -> SigmaAutomaton:
    """Topology automaton of a carpet, built through its companion.

    From state with vector s on input (i, j) the joint descent moves to
    v = (n*s_x + d_j1 - d_i1, m*s_y + d_j2 - d_i2): stay at Id when v is
    zero, move to the offset v when it is a surviving unit offset, and
    exit otherwise.  So the transitions from s into a surviving v are
    exactly the letter pairs whose digit difference is v - (n*s_x, m*s_y),
    read from the digit difference index; the pairs of difference zero
    are the Id self-loops.  The survivors are those of the companion,
    which shares the carpet's n, m and digits, the only fields the oracle
    reads, so the carpet itself is passed.  Transitions are read only
    from states reached from Id, in one breadth-first pass, so states
    unreachable from Id never enter the table.
    """
    from .geometry import build_oracle, difference_index

    index = difference_index(spec)
    oracle = build_oracle(spec, index)
    delta = {(ID, i, j): ID for i, j in index[(0, 0)]}
    targets = [v for v in oracle.survivors if v != (0, 0)]
    reached = [ID]
    for s in reached:  # the list grows while it is read: a breadth-first search
        sx, sy = (0, 0) if s == ID else s
        for v in targets:
            pairs = index.get((v[0] - spec.n * sx, v[1] - spec.m * sy), ())
            for i, j in pairs:
                delta[(s, i, j)] = v
            if pairs and v not in reached:
                reached.append(v)
    return SigmaAutomaton(len(spec.digits), frozenset({*reached, EXIT}), delta)


def surviving_time(M: SigmaAutomaton, x: PeriodicWord, y: PeriodicWord):
    """T_M(x, y): the last step whose state is not Exit, or INFINITE.

    Once both words are inside their periodic parts the pair of inputs is
    periodic with period lcm(|per_x|, |per_y|), so if no exit occurs
    within one full sweep of (state, phase) combinations the itinerary
    repeats forever.  The k-th letters are read by index from the
    preperiod and period tuples, and each step is one lookup in the
    transition table, a missing entry being Exit.  Most pairs exit within
    a step or two, so the loop builds nothing before its first step.
    """
    xp, xq, yp, yq = x.preperiod, x.period, y.preperiod, y.period
    nxp, nxq, nyp, nyq = len(xp), len(xq), len(yp), len(yq)
    bound = max(nxp, nyp) + math.lcm(nxq, nyq) * len(M.states) + 1
    delta = M.delta
    state = ID
    for k in range(bound):
        i = xp[k] if k < nxp else xq[(k - nxp) % nxq]
        j = yp[k] if k < nyp else yq[(k - nyp) % nyq]
        state = delta.get((state, i, j), EXIT)
        if state == EXIT:
            return k
    return INFINITE


def mirror_check(M: SigmaAutomaton) -> bool:
    """delta(S,(i,j)) == -delta(-S,(j,i)) over the whole table.

    Once the states are closed under negation it suffices to check every
    table entry against its mirror: a pair whose entry is missing on one
    side (Exit) is caught from the entry present on the other side.
    """
    if any(neg(s) not in M.states for s in M.states):
        return False
    return all(M.step(neg(s), j, i) == neg(t) for (s, i, j), t in M.delta.items())


def check_feasibility(M: SigmaAutomaton, t0: int, triples):
    """Violations of min{T(x,y), T(x,z)} <= T(y,z) + t0 over the samples.

    Each (x, y, z) triple is checked in all three apex roles, from the
    three times of its pairs, computed once per triple.  A pair's time
    is T(a, b) with a the word of the smaller (preperiod, period), so
    both orders of a pair read the same time.  Infinite plus t0 is
    infinite, so an infinite right-hand side never fails.  A violation
    is (apex, u, v, lhs, rhs) for the apexes x, y, z in turn.

    Only the benchmark's verify workload calls this sampled check; it
    stays until that workload times the exact `decide_feasibility`
    instead (ROADMAP item 5).
    """

    def t(a, b):
        if (a.preperiod, a.period) <= (b.preperiod, b.period):
            return surviving_time(M, a, b)
        return surviving_time(M, b, a)

    violations = []
    for x, y, z in triples:
        txy, txz, tyz = t(x, y), t(x, z), t(y, z)
        for apex, u, v, lhs, rhs in ((x, y, z, min(txy, txz), tyz),
                                     (y, x, z, min(txy, tyz), txz),
                                     (z, x, y, min(txz, tyz), txy)):
            if lhs > rhs + t0:
                violations.append((apex, u, v, lhs, rhs))
    return violations


def search_triples(delta: dict, wanted, lasso: bool, cap: int = 0):
    """Breadth-first search for words x, y, z whose joint run meets `wanted`.

    `delta` is the transition table the three pairs read, (state, i, j)
    -> state with Exit for a missing entry, as in `SigmaAutomaton`: the
    table of a sigma automaton or of a cross automaton
    (`CrossAutomaton.transition_table`).  A joint state (s_xy, s_xz,
    s_yz) holds the states of the three pairs; once (y,z) exits, its
    component counts the steps since the exit, up to `cap`.  Moves are
    the input triples (i, j, k), in lexicographic order, that keep (x,y)
    and (x,z) alive.  The search picks the first reached joint state that
    is wanted or, with `lasso`, from which some run stays among wanted
    states forever: the greatest fixed point of "wanted, with a move into
    the set" over the reached states.  The pruning toward it stops as
    soon as the set is empty, so a search where no wanted state moves
    into a wanted state (every coding-free cross automaton) ends after
    one pass over the wanted states.

    Returns (True, None), or (False, (x, y, z)): a shortest path to the
    picked state, then the letter 1 forever or, with `lasso`, the first
    move into the set from each state until a state repeats, whose
    repeated part is the period.
    """
    succ = successor_index(delta)
    rows = {}  # state -> [(i, [(j, target)])] over the letters i it reads without exiting
    for (state, i), moves in succ.items():
        rows.setdefault(state, []).append((i, moves))
    for row in rows.values():
        row.sort(key=lambda entry: entry[0])
    targets = {key: dict(moves) for key, moves in succ.items()}  # (state, j) -> {k: target}

    def moves(js):
        s1, s2, s3 = js
        # (y,z) steps to Exit on every input without a target, and so does
        # a count, which is no state: the count after the exit
        after = 0 if type(s3) is not int else s3 + 1 if s3 < cap else cap
        out = []
        for i, moves1 in rows.get(s1, ()):
            moves2 = succ.get((s2, i))
            if moves2 is None:
                continue
            for j, t1 in moves1:
                row3 = targets.get((s3, j), {})
                for k, t2 in moves2:
                    out.append(((i, j, k), (t1, t2, row3.get(k, after))))
        return out

    def path_to(js):
        path = []
        while parent[js] is not None:
            js, trip = parent[js]
            path.append(trip)
        path.reverse()
        return path

    def words(path, period):
        return tuple(PeriodicWord(tuple(t[r] for t in path), tuple(t[r] for t in period))
                     for r in range(3))

    start = (ID, ID, ID)
    parent = {start: None}  # joint state -> (its predecessor on a shortest path, the move)
    reached = [start]
    graph = {}  # joint state -> its moves
    for js in reached:  # the list grows while it is read: a breadth-first search
        graph[js] = out = moves(js)
        for trip, nxt in out:
            if nxt not in parent:
                parent[nxt] = (js, trip)
                if not lasso and wanted(nxt):
                    return False, words(path_to(nxt), [(1, 1, 1)])
                reached.append(nxt)
    if not lasso:
        return True, None
    kept = {js for js in reached if wanted(js)}
    while True:
        pruned = {js for js in kept if any(nxt in kept for _, nxt in graph[js])}
        if not pruned:
            return True, None
        if pruned == kept:
            break
        kept = pruned
    js = next(js for js in reached if js in kept)
    path, walk = path_to(js), {}  # walk: kept state -> its step on the path
    while js not in walk:
        walk[js] = len(path)
        trip, js = next(move for move in graph[js] if move[1] in kept)
        path.append(trip)
    return False, words(path[:walk[js]], path[walk[js]:])


def decide_feasibility(M: SigmaAutomaton, t0: int):
    """Decide min{T(x,y), T(x,z)} <= T(y,z) + t0 over all words exactly.

    If (y,z) exits at step e, then T(y,z) = e - 1, and the bound fails
    exactly when (x,y) and (x,z) are both alive at step e + t0: the search
    reaches a count of t0, whatever the words read afterwards.  Returns
    (True, None) or (False, (x, y, z)), a shortest violating path
    followed by the letter 1 forever.
    """
    if t0 < 0:
        raise ValueError(f"t0 must be at least 0, got {t0}")
    return search_triples(M.delta, lambda js: js[2] == t0, lasso=False, cap=t0)


def random_word(rng, N: int) -> PeriodicWord:
    """A word over 1..N with a preperiod of 0-3 and a period of 1-3 letters."""
    pre = tuple(rng.randint(1, N) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(1, N) for _ in range(rng.randint(1, 3)))
    return PeriodicWord(pre, per)


def _state_tables(M: SigmaAutomaton):
    """Every state's name, keyed in `order_key` order, and its rank in
    that order: built once per automaton, not once per transition."""
    states = sorted(M.states, key=order_key)
    return {s: state_name(s) for s in states}, {s: r for r, s in enumerate(states)}


def _ordered_delta(M: SigmaAutomaton, rank: dict):
    """The transitions by source state in `order_key` order, then letters."""
    return sorted(M.delta.items(), key=lambda kv: (rank[kv[0][0]], kv[0][1:]))


def to_dot(M: SigmaAutomaton, include_exit: bool = False) -> str:
    """Graphviz rendering with deterministic node and edge order."""
    name, rank = _state_tables(M)
    lines = ["digraph automaton {", "  rankdir=LR;", '  node [shape=circle];']
    for s, label in name.items():
        if s == EXIT and not include_exit:
            continue
        shape = ' shape=doublecircle' if s == ID else ""
        lines.append(f'  "{label}" [label="{label}"{shape}];')
    edges = {}
    for (s, i, j), t in _ordered_delta(M, rank):
        if t == EXIT and not include_exit:
            continue
        edges.setdefault((name[s], name[t]), []).append(f"{i},{j}")
    for (src, dst), labels in sorted(edges.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{" | ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json(M: SigmaAutomaton) -> str:
    name, rank = _state_tables(M)
    delta = {f"{name[s]}|{i},{j}": name[t] for (s, i, j), t in _ordered_delta(M, rank)}
    return json.dumps({"N": M.alphabet_size, "states": list(name.values()), "delta": delta})


def from_json(text: str) -> SigmaAutomaton:
    return from_dict(json_decode(text, AutomatonError))


def from_dict(data: dict) -> SigmaAutomaton:
    """The sigma automaton of decoded JSON {"N", "states", "delta"}, in the
    form `to_json` prints."""

    def field(name, parse):
        return json_field(data, name, parse, AutomatonError, "automaton")

    N = field("N", json_int)
    states = field("states", lambda names: frozenset(map(state_from_name, names)))
    return SigmaAutomaton(N, states | {ID, EXIT}, field("delta", _parse_delta))


def _parse_delta(entries) -> dict:
    """The transition table from its JSON form {"state|i,j": "target"}."""
    delta = {}
    for key, target in entries.items():
        sname, pair = key.split("|")
        i, j = (int(a) for a in pair.split(","))
        delta[(state_from_name(sname), i, j)] = state_from_name(target)
    return delta

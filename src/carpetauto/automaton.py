"""Pair-alphabet automata: the generic engine plus the carpet builder.

States are ``ID``, ``EXIT``, or a nonzero offset vector (bx, by) with
components in {-1, 0, 1}.  The transition table maps (state, i, j) to a
state; missing entries mean EXIT.  Feeding a pair of infinite words
letter by letter yields an itinerary, and the surviving time is the last
step before the itinerary hits EXIT (infinity if it never does).
"""

from __future__ import annotations

import math
from collections import deque
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


def json_field(data: dict, name: str, parse, error: type[ValueError], kind: str):
    """parse(data[name]), raising `error` that names the field of the
    `kind` JSON when it is missing or malformed."""
    if name not in data:
        raise error(f"{kind} JSON lacks the field {name!r}")
    try:
        return parse(data[name])
    except (AttributeError, TypeError, ValueError, IndexError, ArithmeticError) as e:
        raise error(f"malformed {kind} JSON field {name!r}: {e}") from e


@dataclass(frozen=True)
class SigmaAutomaton:
    """Deterministic automaton over the pair alphabet of {1..N}."""

    alphabet_size: int
    states: frozenset
    delta: dict = field(hash=False)

    def __post_init__(self):
        N = self.alphabet_size
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

    def successors(self) -> dict:
        """(state, i) -> [(j, target)] over the targets that are not Exit, j ascending."""
        index = {}
        for (s, i, j), t in self.delta.items():
            if t != EXIT:
                index.setdefault((s, i), []).append((j, t))
        for moves in index.values():
            moves.sort(key=lambda move: move[0])
        return index

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
    are the Id self-loops.  States unreachable from Id are pruned.
    """
    from .geometry import build_oracle, difference_index

    index = difference_index(spec)
    oracle = build_oracle(spec.companion(), index)
    delta = {(ID, i, j): ID for i, j in index[(0, 0)]}
    targets = [v for v in oracle.survivors if v != (0, 0)]
    for s in [ID] + targets:
        sx, sy = (0, 0) if s == ID else s
        for v in targets:
            for i, j in index.get((v[0] - spec.n * sx, v[1] - spec.m * sy), ()):
                delta[(s, i, j)] = v
    return _pruned(len(spec.digits), delta)


def _pruned(N: int, delta: dict) -> SigmaAutomaton:
    """Keep only states reachable from Id."""
    reachable = {ID}
    while True:
        grown = reachable | {t for (s, _, _), t in delta.items() if s in reachable and t != EXIT}
        if grown == reachable:
            break
        reachable = grown
    kept = {k: v for k, v in delta.items() if k[0] in reachable and v in reachable}
    return SigmaAutomaton(N, frozenset(reachable | {EXIT}), kept)


def surviving_time(M: SigmaAutomaton, x: PeriodicWord, y: PeriodicWord):
    """T_M(x, y): the last step whose state is not Exit, or INFINITE.

    Once both words are inside their periodic parts the pair of inputs is
    periodic with period lcm(|per_x|, |per_y|), so if no exit occurs
    within one full sweep of (state, phase) combinations the itinerary
    repeats forever.
    """
    pre = max(len(x.preperiod), len(y.preperiod))
    cycle = math.lcm(len(x.period), len(y.period))
    bound = pre + cycle * len(M.states) + 1
    state = ID
    for k in range(1, bound + 1):
        state = M.step(state, x.letter(k), y.letter(k))
        if state == EXIT:
            return k - 1
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

    Each (x, y, z) triple is checked in all three apex roles.  Infinite
    plus t0 is infinite, so an infinite right-hand side never fails.
    """
    violations = []
    cache = {}

    def t(a, b):
        key = (a, b) if (a.preperiod, a.period) <= (b.preperiod, b.period) else (b, a)
        if key not in cache:
            cache[key] = surviving_time(M, key[0], key[1])
        return cache[key]

    for x, y, z in triples:
        for apex, u, v in ((x, y, z), (y, x, z), (z, x, y)):
            lhs = min(t(apex, u), t(apex, v))
            rhs = t(u, v)
            if lhs > rhs + t0:
                violations.append((apex, u, v, lhs, rhs))
    return violations


def search_triples(M: SigmaAutomaton, accept):
    """Breadth-first search for words x, y, z whose joint run a rule accepts.

    A joint state (s_xy, s_xz, s_yz) holds the states of the three pairs;
    once (y,z) exits, its component counts the steps since the exit.  Moves
    are the input triples (i, j, k), in lexicographic order, that keep (x,y)
    and (x,z) alive.  At each newly reached joint state js the rule
    accept(js, moves), where moves(js) yields (triple, next joint state),
    returns None or a tail triple.  It must accept or strand every joint
    state at some count, so that the search ends.

    Returns (True, None), or (False, (x, y, z)): a shortest path to an
    accepted state followed by the tail's letters forever.
    """
    succ = M.successors()
    inputs = {}  # state -> the letters i it reads without exiting, ascending
    for state, i in sorted(succ, key=lambda key: key[1]):
        inputs.setdefault(state, []).append(i)

    def moves(js):
        s1, s2, s3 = js
        for i in inputs.get(s1, ()):
            for j, t1 in succ[(s1, i)]:
                for k, t2 in succ.get((s2, i), ()):
                    t3 = M.step(s3, j, k)
                    if t3 == EXIT:  # a count is no state, so it steps to Exit too
                        t3 = s3 + 1 if type(s3) is int else 0
                    yield (i, j, k), (t1, t2, t3)

    start = (ID, ID, ID)
    seen = {start: None}  # joint state -> (previous joint state, input triple)
    frontier = deque([start])
    while frontier:
        js = frontier.popleft()
        for trip, nxt in moves(js):
            if nxt in seen:
                continue
            seen[nxt] = (js, trip)
            tail = accept(nxt, moves)
            if tail is not None:
                path = []
                while seen[nxt] is not None:
                    nxt, trip = seen[nxt]
                    path.append(trip)
                return False, tuple(PeriodicWord(w[::-1], (c,)) for w, c in zip(zip(*path), tail))
            frontier.append(nxt)
    return True, None


def decide_feasibility(M: SigmaAutomaton, t0: int):
    """Decide min{T(x,y), T(x,z)} <= T(y,z) + t0 over all words exactly.

    If (y,z) exits at step e, then T(y,z) = e - 1, and the bound fails
    exactly when (x,y) and (x,z) are both alive at step e + t0: the search
    accepts a count of t0, whatever the words read afterwards.  Returns
    (True, None) or (False, (x, y, z)), a shortest violating path
    followed by the letter 1 forever.
    """
    if t0 < 0:
        raise ValueError(f"t0 must be at least 0, got {t0}")
    return search_triples(M, lambda js, moves: (1, 1, 1) if js[2] == t0 else None)


def random_word(rng, N: int) -> PeriodicWord:
    """A word over 1..N with a preperiod of 0-3 and a period of 1-3 letters."""
    pre = tuple(rng.randint(1, N) for _ in range(rng.randint(0, 3)))
    per = tuple(rng.randint(1, N) for _ in range(rng.randint(1, 3)))
    return PeriodicWord(pre, per)


def to_dot(M: SigmaAutomaton, include_exit: bool = False) -> str:
    """Graphviz rendering with deterministic node and edge order."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  node [shape=circle];']
    for s in sorted(M.states, key=order_key):
        if s == EXIT and not include_exit:
            continue
        shape = ' shape=doublecircle' if s == ID else ""
        lines.append(f'  "{state_name(s)}" [label="{state_name(s)}"{shape}];')
    edges = {}
    for (s, i, j), t in sorted(M.delta.items(), key=lambda kv: (order_key(kv[0][0]), kv[0][1:])):
        if t == EXIT and not include_exit:
            continue
        edges.setdefault((state_name(s), state_name(t)), []).append(f"{i},{j}")
    for (src, dst), labels in sorted(edges.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{" | ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json(M: SigmaAutomaton) -> str:
    import json

    states = [state_name(s) for s in sorted(M.states, key=order_key)]
    delta = {
        f"{state_name(s)}|{i},{j}": state_name(t)
        for (s, i, j), t in sorted(
            M.delta.items(), key=lambda kv: (order_key(kv[0][0]), kv[0][1:])
        )
    }
    return json.dumps({"N": M.alphabet_size, "states": states, "delta": delta})


def from_json(text: str) -> SigmaAutomaton:
    import json

    data = json.loads(text)

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

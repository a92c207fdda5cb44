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
from collections import namedtuple
from operator import itemgetter

from .words import PeriodicWord

ID = "Id"
EXIT = "Exit"

# The ten states by their JSON names, in report order: Id, the eight unit
# offsets by name, then Exit.  Names, ranks and the state order read it.
STATES = {ID: ID,
          "-e1": (-1, 0), "-e1+e2": (-1, 1), "-e1-e2": (-1, -1), "-e2": (0, -1),
          "e1": (1, 0), "e1+e2": (1, 1), "e1-e2": (1, -1), "e2": (0, 1),
          EXIT: EXIT}
STATE_NAME = {state: name for name, state in STATES.items()}
STATE_RANK = {state: rank for rank, state in enumerate(STATES.values())}


def neg(state):
    """Mirror state: offsets negate, Id and Exit are self-mirrored."""
    if state in (ID, EXIT):
        return state
    return (-state[0], -state[1])


def state_name(state) -> str:
    return STATE_NAME[state]


def _shown_state(state) -> str:
    """The state's name as the JSON form writes it, or its repr when it
    has none; for messages about states that may be malformed."""
    try:
        return STATE_NAME[state]
    except (KeyError, TypeError):  # TypeError: an unhashable state
        return repr(state)


def state_from_name(name: str):
    try:
        return STATES[name]
    except KeyError:
        raise ValueError(f"unknown state name {name!r}") from None


def order_key(state) -> int:
    """Deterministic state order: the state's rank in `STATES`."""
    return STATE_RANK[state]


INFINITE = math.inf


def is_infinite(t) -> bool:
    return t == math.inf


class AutomatonError(ValueError):
    """Malformed automaton definition."""


# The largest alphabet, and the largest division count of a carpet.  The
# bound keeps a few bytes of input such as {"N": 100000000} from starting
# a loop over every letter or row.
MAX_LETTER = 255


def check_alphabet_size(N, error: type[ValueError]) -> None:
    """Raise `error` unless the alphabet size N is an int in 1..MAX_LETTER."""
    if type(N) is not int:  # a bool or 2.0 is no alphabet size
        raise error(f"alphabet size {N!r} is not an integer")
    if N < 1:
        raise error(f"alphabet of N = {N} letters: N must be at least 1")
    if N > MAX_LETTER:
        raise error(f"alphabet of {N} letters exceeds {MAX_LETTER}")


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
    except (AttributeError, TypeError, ValueError, LookupError, ArithmeticError) as e:
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


class SigmaAutomaton(namedtuple("SigmaAutomaton", "alphabet_size states delta")):
    """Deterministic automaton over the pair alphabet of {1..N}.

    The hash leaves out the transition table, a dict; equality reads it."""

    __slots__ = ()

    def __new__(cls, alphabet_size, states, delta):
        N = alphabet_size
        check_alphabet_size(N, AutomatonError)
        if ID not in states or EXIT not in states:
            raise AutomatonError("the states must include Id and Exit")
        unknown = sorted(name for name in map(_shown_state, states) if name not in STATES)
        if unknown:
            raise AutomatonError(f"unknown state {unknown[0]}: a state is Id, Exit "
                                 "or one of the eight unit offsets")
        for (s, i, j), t in delta.items():
            if s == EXIT or s not in states or t not in states:
                raise AutomatonError(f"transition ({_shown_state(s)}, {i}, {j}) -> "
                                     f"{_shown_state(t)} leaves the state set")
            if not type(i) is type(j) is int:  # a bool, 1.5 or '3' is no letter
                raise AutomatonError(
                    f"non-integer letter in transition ({_shown_state(s)}, {i!r}, {j!r})")
            if not (1 <= i <= N and 1 <= j <= N):
                raise AutomatonError(
                    f"letter outside 1..{N} in transition ({_shown_state(s)}, {i}, {j})")
        bad = [(i, j) for (s, i, j), t in delta.items() if s == ID and t == ID and i != j]
        bad += [(i, i) for i in range(1, N + 1) if delta.get((ID, i, i)) != ID]
        if bad:
            i, j = min(bad)
            raise AutomatonError(f"delta(Id,({i},{j})) must be Id exactly when i == j")
        return super().__new__(cls, alphabet_size, states, delta)

    def __hash__(self):
        return hash((self.alphabet_size, self.states))

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
    are the Id self-loops.  Only the targets in `geometry.MOVES[s]`, Id
    reading as (0, 0), can have such pairs, so the others are skipped and
    the rest read in the order the survivors list them.  The survivors are those of the
    companion, which shares the carpet's n, m and digits, the only fields
    the oracle reads, so the carpet itself is passed.  Transitions are
    read only from states reached from Id, in one breadth-first pass, so
    states unreachable from Id never enter the table.

    The automaton is made with `SigmaAutomaton._make`, which skips the
    checks of `SigmaAutomaton.__new__`, as `gmap._apply` makes its words,
    since each holds by construction:

    - `CarpetSpec` holds 1 to 255 distinct digits, each a pair of
      integers, and the letters are their positions 1..N;
    - the Id self-loops are exactly the pairs of `index[(0, 0)]`, the
      diagonal (i, i) by distinct digits, and no other entry targets Id,
      which is not among the targets;
    - every source and target is in `reached`, and Exit is neither.
    """
    from .geometry import MOVES, build_oracle, difference_index

    index = difference_index(spec)
    oracle = build_oracle(spec, index)
    delta = {(ID, i, j): ID for i, j in index[(0, 0)]}
    targets = [v for v in oracle.survivors if v != (0, 0)]
    reached = [ID]
    for s in reached:  # the list grows while it is read: a breadth-first search
        sx, sy = (0, 0) if s == ID else s
        moves = MOVES[(sx, sy)]
        for v in targets:
            if v not in moves:
                continue
            pairs = index.get((v[0] - spec.n * sx, v[1] - spec.m * sy), ())
            for i, j in pairs:
                delta[(s, i, j)] = v
            if pairs and v not in reached:
                reached.append(v)
    return SigmaAutomaton._make((len(spec.digits), frozenset({*reached, EXIT}), delta))


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
    instead (ROADMAP item 1, the benchmark switch), and then goes with
    the deletion ledger (ROADMAP item 7).
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


def infinite_core(nodes, successors) -> set:
    """The greatest subset of `nodes` in which every node has one of its
    successors(node) inside the subset: the nodes that start an endless walk
    in it.  Each round keeps the nodes with a successor kept last round."""
    core = set(nodes)
    while (kept := {v for v in core if not core.isdisjoint(successors(v))}) != core:
        core = kept
    return core


def explore(start, moves, wanted, lasso: bool):
    """Breadth-first search from `start` for a wanted state or a lasso.

    moves(state) lists (move, next state) pairs; a state's first reaching
    move is its parent pointer, so paths are shortest, ties broken in move
    order.  Without `lasso` the first reached wanted state is picked, never
    the start.  With `lasso` every state is reached, and the first, in
    breadth-first order, in the `infinite_core` of the wanted ones is picked.

    Returns None, or (path, period): the moves of a shortest path to the
    picked state, then [] or, with `lasso`, the first move into the core
    from each state until a state repeats, whose repeated part is the period.
    """

    def path_to(state):
        path = []
        while parent[state] is not None:
            state, move = parent[state]
            path.append(move)
        path.reverse()
        return path

    parent = {start: None}  # state -> (its predecessor on a shortest path, the move)
    reached = [start]
    graph = {}  # state -> its moves
    for state in reached:  # the list grows while it is read: a breadth-first search
        graph[state] = out = moves(state)
        for move, nxt in out:
            if nxt not in parent:
                parent[nxt] = (state, move)
                if not lasso and wanted(nxt):
                    return path_to(nxt), []
                reached.append(nxt)
    if not lasso:
        return None
    second = itemgetter(1)  # a move's next state
    core = infinite_core(filter(wanted, reached), lambda s: map(second, graph[s]))
    if not core:
        return None
    state = next(state for state in reached if state in core)
    path, walk = path_to(state), {}  # walk: core state -> its step on the path
    while state not in walk:
        walk[state] = len(path)
        move, state = next(move for move in graph[state] if move[1] in core)
        path.append(move)
    return path[:walk[state]], path[walk[state]:]


def search_triples(delta: dict, wanted, lasso: bool, cap: int = 0):
    """`explore` the joint run of words x, y, z for a state that meets `wanted`.

    `delta` is the (state, i, j) -> state table the three pairs read, Exit
    when missing: a sigma automaton's or `CrossAutomaton.transition_table`.
    A joint state (s_xy, s_xz, s_yz) starts at (Id, Id, Id); once (y,z)
    exits, its component counts the steps since, up to `cap`.  Moves are the
    input triples (i, j, k), in lexicographic order, that keep (x,y) and
    (x,z) alive.  Returns (True, None), or (False, (x, y, z)): the words of
    the found path, then of its period or else the letter 1 forever.
    """
    succ = successor_index(delta)
    rows = {}  # state -> [(i, [(j, target)])] over the letters i it reads without exiting
    for (state, i), moves in sorted(succ.items(), key=lambda entry: entry[0][1]):
        rows.setdefault(state, []).append((i, moves))
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

    found = explore((ID, ID, ID), moves, wanted, lasso)
    if found is None:
        return True, None
    path, period = found[0], found[1] or [(1, 1, 1)]
    return False, tuple(PeriodicWord(tuple(t[r] for t in path), tuple(t[r] for t in period))
                        for r in range(3))


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
    """A word over 1..N with a preperiod of 0-3 and a period of 1-3 letters.

    randrange(k) + a draws what randint(a, a + k - 1) draws and leaves
    `rng` in the same state, without randint's argument handling.
    """
    pre = tuple([rng.randrange(N) + 1 for _ in range(rng.randrange(4))])
    per = tuple([rng.randrange(N) + 1 for _ in range(rng.randrange(3) + 1)])
    return PeriodicWord(pre, per)


def _ordered_delta(M: SigmaAutomaton):
    """The transitions by source state in `STATES` order, then letters."""
    return sorted(M.delta.items(), key=lambda kv: (STATE_RANK[kv[0][0]], kv[0][1:]))


def to_dot(M: SigmaAutomaton) -> str:
    """Graphviz rendering without Exit, in deterministic node and edge order."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  node [shape=circle];']
    for name, s in STATES.items():
        if s in M.states and s != EXIT:
            shape = ' shape=doublecircle' if s == ID else ""
            lines.append(f'  "{name}" [label="{name}"{shape}];')
    edges = {}
    for (s, i, j), t in _ordered_delta(M):
        if t != EXIT:
            edges.setdefault((STATE_NAME[s], STATE_NAME[t]), []).append(f"{i},{j}")
    for (src, dst), labels in sorted(edges.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{" | ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json(M: SigmaAutomaton) -> str:
    states = [name for name, s in STATES.items() if s in M.states]
    delta = {f"{STATE_NAME[s]}|{i},{j}": STATE_NAME[t] for (s, i, j), t in _ordered_delta(M)}
    return json.dumps({"N": M.alphabet_size, "states": states, "delta": delta})


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

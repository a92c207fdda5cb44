import itertools
import json
import random
from pathlib import Path
from collections import Counter, deque
from fractions import Fraction

import pytest

from carpetauto.automaton import (
    ID,
    build_topology_automaton,
    is_infinite,
    mirror_check,
    search_triples,
    successor_index,
    surviving_time,
)
from carpetauto.cross import (
    Classification,
    CrossAutomaton,
    CrossAutomatonError,
    DiagonalStatePresent,
    check_uniqueness,
    classify,
    cross_from_json,
    decide_triple_coding_free,
    from_topology_automaton,
    has_cycle,
    touches,
    validate,
)
from carpetauto.carpet import CarpetSpec, parse_carpet
from carpetauto.cli import random_carpet
from carpetauto.words import PeriodicWord

from conftest import (
    CARPET_8,
    CHAIN2_CARPET,
    EXTENDED_9,
    SQUARE_TOP_5,
    SQUARE_VSEP_5,
    TOP_ISOLATED_11,
    VSEP_11,
)
from test_carpet import reference_conditions


def test_constructor_rejects_bad_relations():
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 1)}, set(), set(), set())  # reflexive entry
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 2)}, {(1, 2)}, set(), set())  # PH/PV overlap
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 2), (2, 1)}, set(), set(), set())  # transpose
    with pytest.raises(CrossAutomatonError):
        CrossAutomaton(3, {(1, 4)}, set(), set(), set())  # out of range


def test_constructor_refuses_letters_that_are_not_integers():
    # int() used to read the letter 1.9 as 1 and '3' as 3
    for bad in ((1.9, 2), ("3", 2), (1, True)):
        for k, name in enumerate(("PH", "PV", "Pe1", "Pe2")):
            relations = [set(), set(), set(), set()]
            relations[k] = {bad}
            with pytest.raises(CrossAutomatonError, match=f"non-integer letter in {name}"):
                CrossAutomaton(3, *relations)
    C = CrossAutomaton(3, {(1, 2)}, set(), set(), {(3, 2)})
    assert C.PH == {(1, 2)} and C.Pe2 == {(3, 2)}


def test_json_round_trip():
    again = cross_from_json(CARPET_8.to_json())
    assert again == CARPET_8


def test_alphabet_of_fewer_than_one_letter_is_rejected():
    for N in (0, -3):
        with pytest.raises(CrossAutomatonError, match=f"N = {N} letters"):
            CrossAutomaton(N, set(), set(), set(), set())


def test_json_letters_must_be_integers():
    for pairs in ([[1.9, 2.5]], [[1, True]], [["1", 2]]):
        with pytest.raises(CrossAutomatonError, match="field 'PH': expected an integer"):
            cross_from_json(json.dumps({"N": 3, "PH": pairs}))
    assert cross_from_json('{"N": 3, "PH": [[1, 2]]}').PH == {(1, 2)}


def test_induced_automaton_mirrors_relations():
    M = CARPET_8.induced_automaton()
    assert M.step(ID, 1, 2) == (1, 0)
    assert M.step(ID, 2, 1) == (-1, 0)
    assert M.step((1, 0), 5, 1) == (1, 0)
    assert M.step((-1, 0), 1, 5) == (-1, 0)
    assert M.step(ID, 7, 6) == (0, 1)
    assert M.step((0, 1), 8, 7) == (0, 1)
    assert mirror_check(CARPET_8.induced_automaton())


def reference_table(C):
    """The transition table of C from the definition, entry by entry over
    every state and input pair: Id stays on the diagonal and enters ±e1
    (±e2) on PH (PV) and its transpose; e1 (e2) loops on Pe1 (Pe2) and
    -e1 (-e2) on its transpose."""
    E1, E2, W, S = (1, 0), (0, 1), (-1, 0), (0, -1)
    delta = {}
    letters = range(1, C.alphabet_size + 1)
    for i, j in itertools.product(letters, letters):
        rules = ((ID, ID, i == j), (ID, E1, (i, j) in C.PH), (ID, W, (j, i) in C.PH),
                 (ID, E2, (i, j) in C.PV), (ID, S, (j, i) in C.PV),
                 (E1, E1, (i, j) in C.Pe1), (W, W, (j, i) in C.Pe1),
                 (E2, E2, (i, j) in C.Pe2), (S, S, (j, i) in C.Pe2))
        for state, target, holds in rules:
            if holds:
                assert (state, i, j) not in delta, (C, state, i, j)
                delta[(state, i, j)] = target
    return delta


def test_transition_table_is_the_definition_and_a_valid_sigma_table():
    """The table the triple search reads, on random cross automata whose
    relations need not be matchings: it is the definition's table, the
    SigmaAutomaton constructor accepts it unchanged, and extraction reads
    the same relations back from it."""
    rng = random.Random(20261020)
    checked = matchings = 0
    while checked < 2000:
        N = rng.randint(1, 7)
        pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
        try:
            C = CrossAutomaton(N, *(set(rng.sample(pairs, rng.randint(0, min(N + 2, len(pairs)))))
                                    for _ in range(4)))
        except CrossAutomatonError:
            continue
        checked += 1
        matchings += not check_uniqueness(C)
        table = C.transition_table()
        assert table == reference_table(C), C
        assert C.induced_automaton().delta == table, C
        assert mirror_check(C.induced_automaton()), C
        assert from_topology_automaton(C.induced_automaton()) == C, C
    assert 200 <= matchings <= 1800, matchings


def test_extraction_round_trip_from_carpets():
    for spec in (SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11, VSEP_11):
        M = build_topology_automaton(spec)
        C = from_topology_automaton(M)
        assert C.induced_automaton().delta.keys() >= M.delta.keys()
        # rebuilding from the relations reproduces the original table
        assert {k: v for k, v in C.induced_automaton().delta.items() if k in M.delta} == M.delta


def test_diagonal_state_raises():
    spec = parse_carpet("#.#\n###\n#.#")
    # all four diagonals are reached; the message names the first in state
    # order, whatever order string hashing gives the state set
    with pytest.raises(DiagonalStatePresent, match=r"state \(-1, 1\) present"):
        from_topology_automaton(build_topology_automaton(spec))


def test_uniqueness_detects_double_successor():
    C = CrossAutomaton(4, {(1, 2), (1, 3)}, set(), set(), set())
    problems = check_uniqueness(C)
    assert ("H", "two successors", 1) in problems


def test_carpet_8_is_a_cross_automaton():
    validate(CARPET_8)
    ok, witness = decide_triple_coding_free(CARPET_8)
    assert ok and witness is None


def test_extended_9_has_a_triple_coding():
    ok, witness = decide_triple_coding_free(EXTENDED_9)
    assert not ok
    x, y, z = witness
    M = EXTENDED_9.induced_automaton()
    times = [
        surviving_time(M, x, y),
        surviving_time(M, x, z),
        surviving_time(M, y, z),
    ]
    assert sum(1 for t in times if is_infinite(t)) >= 2
    assert len({x, y, z}) == 3
    with pytest.raises(CrossAutomatonError):
        validate(EXTENDED_9)


def test_a_carpets_cross_automaton_satisfies_the_axioms_by_construction():
    """docs/carpet_cross_axioms.md: a carpet whose topology automaton
    reaches no diagonal state has a cross automaton with matchings for
    relations and no triple coding, so `final_chain` on it needs no
    triple search.  The diagonal carpets show the search finds codings
    in topology automata, so the test is not vacuous."""
    rng = random.Random(1)
    sizes = list(itertools.product((3, 4, 5, 6, 8), (8, 12, 20, 30)))
    seen = Counter()
    for k in range(4000):
        max_div, max_digits = sizes[k % len(sizes)]
        spec = random_carpet(rng, max_div=max_div, max_digits=max_digits)
        M = build_topology_automaton(spec)
        try:
            C = from_topology_automaton(M)
        except DiagonalStatePresent:
            coded = not search_triples(M.delta, lambda js: ID not in js, lasso=True)[0]
            seen["diagonal coded" if coded else "diagonal free"] += 1
            continue
        assert C.transition_table() == M.delta, spec
        assert check_uniqueness(C) == [], spec
        assert decide_triple_coding_free(C) == (True, None), spec
        seen["cross"] += 1
    assert seen["cross"] >= 2000 and seen["diagonal coded"] >= 1000, seen


def test_triple_coding_decision_matches_word_enumeration():
    # exhaustive witness search over short eventually-constant words
    def brute(C, max_pre=2):
        M = C.induced_automaton()
        words = [
            PeriodicWord(pre, (c,))
            for k in range(max_pre + 1)
            for pre in itertools.product(range(1, C.alphabet_size + 1), repeat=k)
            for c in range(1, C.alphabet_size + 1)
        ]
        words = sorted(set(words), key=str)
        infinite = {
            (a, b): is_infinite(surviving_time(M, a, b))
            for a, b in itertools.combinations(words, 2)
        }
        for x, y, z in itertools.combinations(words, 3):
            inf = infinite[(x, y)] + infinite[(x, z)] + infinite[(y, z)]
            if inf >= 2:
                return False
        return True

    def random_cross(rng):
        while True:
            N = rng.randint(2, 4)
            pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
            try:
                return CrossAutomaton(N, *(set(rng.sample(pairs, rng.randint(0, N)))
                                           for _ in range(4)))
            except CrossAutomatonError:
                continue

    small_free = CrossAutomaton(3, {(1, 2)}, set(), {(2, 1)}, set())
    small_coded = CrossAutomaton(3, {(1, 2), (2, 3)}, set(), {(2, 1)}, set())
    rng = random.Random(4)
    samples = [small_free, small_coded] + [random_cross(rng) for _ in range(10)]
    verdicts = [decide_triple_coding_free(C)[0] for C in samples]
    assert verdicts == [brute(C) for C in samples]
    assert True in verdicts[2:] and False in verdicts[2:]


def reference_triple_coding_free(C):
    """The hand-written search that decide_triple_coding_free ran before
    it became a rule of automaton.search_triples, kept as a reference."""
    M = C.induced_automaton()
    succ = successor_index(M.delta)
    inputs = {}
    for state, i in sorted(succ, key=lambda key: key[1]):
        inputs.setdefault(state, []).append(i)

    def moves(js):
        s1, s2, s3 = js
        for i in inputs.get(s1, ()):
            for j, t1 in succ[(s1, i)]:
                for k, t2 in succ.get((s2, i), ()):
                    yield (i, j, k), (t1, t2, M.step(s3, j, k))

    start = (ID, ID, ID)
    seen = {start: None}
    frontier = deque([start])
    while frontier:
        js = frontier.popleft()
        for trip, nxt in moves(js):
            if nxt in seen:
                continue
            seen[nxt] = (js, trip)
            if ID not in nxt:
                loop = next((t for t, (u1, u2, _) in moves(nxt) if (u1, u2) == nxt[:2]), None)
                if loop is not None:
                    path = []
                    cur = nxt
                    while seen[cur] is not None:
                        cur, trip = seen[cur]
                        path.append(trip)
                    path.reverse()
                    return False, tuple(
                        PeriodicWord(tuple(t[r] for t in path), (loop[r],)) for r in range(3)
                    )
            frontier.append(nxt)
    return True, None


def test_triple_coding_search_matches_the_reference_search():
    rng = random.Random(2026)
    samples = [EXTENDED_9, CARPET_8]
    while len(samples) < 2002:
        N = rng.randint(2, 6)
        pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
        try:
            samples.append(CrossAutomaton(N, *(set(rng.sample(pairs, rng.randint(0, N + 1)))
                                               for _ in range(4))))
        except CrossAutomatonError:
            continue
    verdicts = Counter()
    for C in samples:
        got = decide_triple_coding_free(C)
        assert repr(got) == repr(reference_triple_coding_free(C)), C
        verdicts[got[0]] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def test_touches_and_has_cycle():
    # CARPET_8's H relation: 1 -> ... -> 5 is a path, 8 lies on no edge
    assert touches(CARPET_8.PH, 1) and touches(CARPET_8.PH, 5)
    assert not touches(CARPET_8.PH, 8)
    assert not touches(frozenset(), 1)
    assert not has_cycle(CARPET_8.PH)
    assert not has_cycle(frozenset())
    assert not has_cycle({(1, 2), (2, 3), (1, 3), (4, 3)})
    assert has_cycle({(1, 2), (2, 3), (3, 1)})
    assert has_cycle({(4, 1), (1, 2), (2, 1)})
    assert has_cycle({(3, 3)})


def reference_has_cycle(rel) -> bool:
    """The depth-first search has_cycle ran before it read the relation's
    infinite core, kept as a reference."""
    succ = {}
    for i, j in rel:
        succ.setdefault(i, []).append(j)
    color = {}

    def visit(v):
        color[v] = 1
        for w in succ.get(v, ()):
            c = color.get(w, 0)
            if c == 1 or (c == 0 and visit(w)):
                return True
        color[v] = 2
        return False

    return any(color.get(v, 0) == 0 and visit(v) for v in succ)


def test_has_cycle_matches_the_depth_first_search():
    """Empty relations, self-loops, random relations and paths of up to
    255 letters, open, closed into a cycle, or with forward chords."""
    rng = random.Random(22)
    kinds = Counter()
    for _ in range(2000):
        kind = rng.choice(("empty", "loop", "random", "path", "closed", "chords"))
        letters = rng.sample(range(1, 256), rng.randint(2, 255))
        rel = set(zip(letters, letters[1:]))
        if kind == "empty":
            rel = set()
        elif kind == "loop":
            rel = {(i, i) for i in rng.sample(letters, rng.randint(1, 2))}
        elif kind == "random":
            rel = {tuple(rng.choices(letters[:12], k=2)) for _ in range(rng.randint(1, 12))}
        elif kind == "closed":
            rel.add((letters[-1], rng.choice(letters)))
        elif kind == "chords":
            for _ in range(rng.randint(1, 20)):
                a, b = sorted(rng.sample(range(len(letters)), 2))
                rel.add((letters[a], letters[b]))
        got = has_cycle(frozenset(rel))
        assert got == reference_has_cycle(rel), (kind, sorted(rel))
        kinds[kind, got] += 1
    assert kinds["path", False] > 250 and kinds["closed", True] > 250, kinds
    assert kinds["random", True] > 50 and kinds["random", False] > 50, kinds


def test_classify_class0():
    C = from_topology_automaton(build_topology_automaton(SQUARE_VSEP_5))
    assert not C.PV
    assert classify(C).kind == "Class0"


def test_classify_class1_requires_origin():
    M = build_topology_automaton(SQUARE_TOP_5)
    C = from_topology_automaton(M)
    assert classify(C).kind == "Class2"
    got = classify(C, origin=SQUARE_TOP_5)
    assert got.kind == "Class1"
    assert got.top is not None and got.bottom is not None


def test_classify_chain2_fixture():
    C = from_topology_automaton(build_topology_automaton(CHAIN2_CARPET))
    got = classify(C, origin=CHAIN2_CARPET)
    assert got.kind == "Class1"
    assert len(C.PV) == 2


def class12_carpet(rng):
    """A random carpet of at most 6x6 biased towards Class 1 and 2: one
    top cell above a bottom cell, random fill below, and often a second
    top cell."""
    n, m = rng.randint(2, 6), rng.randint(2, 6)
    c = rng.randrange(n)
    cells = {(c, m - 1), (c, 0)}
    fill = 0.6 * rng.random()
    cells |= {(x, y) for y in range(m - 1) for x in range(n) if rng.random() < fill}
    if rng.random() < 0.6:
        cells.add((rng.randrange(n), m - 1))
    return CarpetSpec(n, m, tuple(cells))


def test_class1_rule_matches_the_conditions_and_the_rebuild():
    """Reference: a Class 2 automaton with an origin is Class 1 when the
    origin is top isolated, cross intersecting and not vertically
    separated by the digit-pair adjacency, and the cross automaton
    rebuilt from the origin is C."""
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(2000):
        spec = class12_carpet(rng)
        try:
            C = from_topology_automaton(build_topology_automaton(spec))
        except DiagonalStatePresent:
            continue
        expected = classify(C)
        cross, vertical, isolated, _ = reference_conditions(spec)
        if (
            expected.kind == "Class2"
            and isolated and cross and not vertical
            and from_topology_automaton(build_topology_automaton(spec)) == C
        ):
            expected = Classification("Class1", top=expected.top, bottom=expected.bottom)
        got = classify(C, origin=spec)
        assert got == expected, spec
        kinds[got.kind] += 1
    assert kinds["Class1"] >= 50 and kinds["Class2"] >= 50, kinds


def test_classify_unclassified_reasons():
    # two bottom loops at e2
    C = CrossAutomaton(4, set(), {(1, 2)}, set(), {(3, 2), (4, 2)})
    assert check_uniqueness(C)  # also fails uniqueness, but classify is local
    assert classify(C).kind == "Unclassified"
    # top vertex participates in PH
    C = CrossAutomaton(4, {(3, 4)}, {(1, 2)}, set(), {(3, 2)})
    got = classify(C)
    assert got.kind == "Unclassified"
    assert "not isolated" in got.reason


def test_alphabet_bound():
    assert CrossAutomaton(255, {(1, 255)}, set(), set(), set()).alphabet_size == 255
    with pytest.raises(CrossAutomatonError, match="256 letters exceeds 255"):
        CrossAutomaton(256, {(1, 256)}, set(), set(), set())


def reference_classify(C):
    """classify without an origin as it read the (lam lam, t1 t2) exit test
    before: from the successor index of the induced automaton."""
    if not C.PV:
        return Classification("Class0")
    if len(C.Pe2) != 1:
        return Classification("Unclassified", reason="Pe2 is not a singleton")
    ((gamma, lam),) = C.Pe2
    if gamma == lam:
        return Classification("Unclassified", reason="top and bottom vertices coincide")
    for which, rel in (("H", C.PH), ("V", C.PV), ("e1", C.Pe1)):
        if touches(rel, gamma):
            return Classification(
                "Unclassified", top=gamma, bottom=lam,
                reason=f"top vertex not isolated in {which}",
            )
    succ = successor_index(C.induced_automaton().delta)
    for t1, s1 in succ.get((ID, lam), ()):
        if t1 != lam and (s1, lam) in succ:
            t2 = succ[(s1, lam)][0][0]
            return Classification(
                "Unclassified", top=gamma, bottom=lam,
                reason=f"(lam lam, {t1}{t2}) does not exit in two steps",
            )
    if has_cycle(C.PV):
        return Classification(
            "Unclassified", top=gamma, bottom=lam, reason="PV graph has a cycle"
        )
    return Classification("Class2", top=gamma, bottom=lam)


def test_classify_reads_the_exit_test_like_the_induced_automaton():
    """Random cross automata whose relations need not be matchings
    (final_chain classifies before it checks uniqueness), biased towards
    a singleton Pe2 = {(gamma, lam)} with gamma on no other edge, so that
    the (lam lam) exit test is reached often."""
    rng = random.Random(20261019)
    reasons = Counter()
    checked = 0
    while checked < 2400:
        N = rng.randint(3, 7)
        gamma, lam = rng.sample(range(1, N + 1), 2)
        pairs = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1)]
        pool = [p for p in pairs if gamma not in p] if rng.random() < 0.8 else pairs
        rels = [set(rng.sample(pool, rng.randint(0, N + 1))) for _ in range(3)]
        rels.append({(gamma, lam)} if rng.random() < 0.85 else set(rng.sample(pairs, 2)))
        try:
            C = CrossAutomaton(N, *rels)
        except CrossAutomatonError:
            continue
        checked += 1
        got = classify(C)
        assert got == reference_classify(C), C
        reasons[got.reason] += 1
    lamlam = sum(count for reason, count in reasons.items() if reason and "lam lam" in reason)
    assert lamlam >= 100 and reasons[None] >= 100, reasons


def ratio_carpets():
    """The catalog's Ratio carpets and seeded random ratio-bearing carpets."""
    catalog = Path(__file__).resolve().parents[1] / "bench" / "data" / "catalog.json"
    carpets = [parse_carpet(c["text"]) for c in json.loads(catalog.read_text())["survey"]["carpets"]
               if c["id"].startswith("Ratio")]
    rng = random.Random(20261019)

    def ratios(count):
        weights = [rng.randint(1, 4) for _ in range(count)]
        return tuple(Fraction(w, sum(weights)) for w in weights)

    while len(carpets) < 1000:
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        cells = [(a, b) for a in range(n) for b in range(m)]
        carpets.append(CarpetSpec(n, m, tuple(rng.sample(cells, rng.randint(1, len(cells)))),
                                  ratios(n) if rng.random() < 0.8 else None, ratios(m)))
    return carpets


def test_topology_automaton_of_a_ratio_carpet_is_that_of_its_companion():
    carpets = ratio_carpets()
    assert sum(1 for spec in carpets if spec.hratios is not None) > 500
    for spec in carpets:
        assert not spec.is_uniform()
        assert build_topology_automaton(spec) == build_topology_automaton(spec.companion()), spec

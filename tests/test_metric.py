import hashlib
import json
import math
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from carpetauto.automaton import (
    EXIT,
    ID,
    SigmaAutomaton,
    build_topology_automaton,
    decide_feasibility,
    is_infinite,
    neg,
    random_word,
    surviving_time,
)
from carpetauto.carpet import CarpetSpec
from carpetauto.cli import random_carpet
from carpetauto.metric import (
    AsymmetricAutomaton,
    HolderScale,
    IntransitivitySample,
    check_projection_bounds,
    holder_scale,
    quotient_classes,
    rho,
)
from carpetauto.words import PeriodicWord, parse_word

from conftest import (
    BARANSKI_RATIO,
    EXTENDED_9,
    PROJECTION_CARPETS,
    SQUARE_TOP_5,
    SQUARE_VSEP_5,
    TOP_ISOLATED_11,
    VSEP_11,
    src_env,
)


def test_holder_scale_of_uniform_carpet():
    scale = holder_scale(SQUARE_TOP_5)
    assert scale.r_star == scale.r_sub == Fraction(1, 3)
    assert scale.s == 1.0
    assert scale.xi == pytest.approx(1 / 3)


def test_holder_scale_rejects_bad_inputs_also_under_optimize():
    with pytest.raises(ValueError, match="r_sub <= r_star"):
        HolderScale(Fraction(1, 2), Fraction(3, 4), 1.0, 0.5)
    with pytest.raises(ValueError, match="exponent s"):
        HolderScale(Fraction(1, 2), Fraction(1, 3), 1.5, 0.5)
    code = (
        "from fractions import Fraction\n"
        "from carpetauto.metric import HolderScale\n"
        "try:\n"
        "    HolderScale(Fraction(1, 2), Fraction(3, 4), 1.0, 0.5)\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_holder_scale_of_ratio_carpet():
    scale = holder_scale(BARANSKI_RATIO)
    assert scale.r_star == Fraction(2, 3)
    assert scale.r_sub == Fraction(1, 4)
    assert scale.s == pytest.approx(
        math.sqrt(math.log(2 / 3) / math.log(1 / 4))
    )
    assert scale.xi == pytest.approx(0.25**scale.s)
    assert 0 < scale.xi < 1


def reference_holder_scale(spec) -> HolderScale:
    """The scale as holder_scale computed it from all n + m ratios."""
    ratios = spec.horizontal_ratios() + spec.vertical_ratios()
    r_star, r_sub = max(ratios), min(ratios)
    s = math.sqrt(math.log(r_star) / math.log(r_sub))
    return HolderScale(r_star, r_sub, s, float(r_sub) ** s)


def test_holder_scale_is_the_scale_of_all_n_plus_m_ratios():
    rng = random.Random(22)
    axes_with_ratios = Counter()
    for spec in (*PROJECTION_CARPETS, *(random_carpet(rng, max_div=9) for _ in range(800))):
        ratios = {}
        for name, count in (("hratios", spec.n), ("vratios", spec.m)):
            if spec.is_uniform() and rng.random() < 0.5:
                weights = [rng.randint(1, 4) for _ in range(count)]
                ratios[name] = [Fraction(w, sum(weights)) for w in weights]
        spec = CarpetSpec(spec.n, spec.m, spec.digits, **ratios) if ratios else spec
        axes_with_ratios[(spec.hratios is not None) + (spec.vratios is not None)] += 1
        assert holder_scale(spec) == reference_holder_scale(spec), spec
    assert min(axes_with_ratios[k] for k in (0, 1, 2)) >= 150, axes_with_ratios


def test_rho_values():
    M = build_topology_automaton(SQUARE_TOP_5)
    d = rho(M, 0.5, PeriodicWord.constant(1), PeriodicWord.constant(5))
    assert d.time == 0 and d.value == 1.0
    w = parse_word("2.1(3)")
    same = rho(M, 0.5, w, w)
    assert is_infinite(same.time) and same.value == 0.0
    with pytest.raises(ValueError):
        rho(M, 1.5, w, w)


def test_rho_is_an_ultrametric_up_to_factor():
    # feasibility min{T(x,y),T(x,z)} <= T(y,z)+1 translates to
    # rho(y,z) <= (1/xi) * max(rho(x,y), rho(x,z))
    M = build_topology_automaton(SQUARE_TOP_5)
    xi = holder_scale(SQUARE_TOP_5).xi
    rng = random.Random(17)
    for _ in range(120):
        x, y, z = (random_word(rng, 5) for _ in range(3))
        dyz = rho(M, xi, y, z).value
        dxy = rho(M, xi, x, y).value
        dxz = rho(M, xi, x, z).value
        assert dyz <= max(dxy, dxz) / xi + 1e-12


def test_projection_upper_bound_on_fixtures():
    rng = random.Random(23)
    for spec in PROJECTION_CARPETS:
        M = build_topology_automaton(spec)
        N = len(spec.digits)
        pairs = [(random_word(rng, N), random_word(rng, N)) for _ in range(60)]
        pairs += [(PeriodicWord.constant(1), PeriodicWord.constant(1))]
        report = check_projection_bounds(spec, M, pairs)
        assert report.violations == 0
        assert all(r.upper_ok for r in report.records)
        assert report.fitted_lower_c is None or report.fitted_lower_c > 0


def test_projection_reports_on_fixtures_are_pinned():
    # recorded while `project` still summed Fraction products, before it
    # computed in scaled integers: every record must be bit-identical
    rng = random.Random(29)
    reports = []
    for spec in PROJECTION_CARPETS:
        M = build_topology_automaton(spec)
        N = len(spec.digits)
        pairs = [(random_word(rng, N), random_word(rng, N)) for _ in range(40)]
        pairs.append((PeriodicWord.constant(1), PeriodicWord.constant(N)))
        reports.append(check_projection_bounds(spec, M, pairs).to_dict())
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "947a2a8dd0eeaf8cd1153a105c20e72f7dbbaa438cdf7161f8671a0b6c2cf37f"


def test_projection_zero_distance_pairs_coincide():
    # two spellings of one point: cylinders sharing an edge
    spec = SQUARE_TOP_5
    M = build_topology_automaton(spec)
    x = parse_word("1(3)")  # right edge of cell 1 ...
    y = parse_word("2(1)")  # ... equals left edge of cell 2
    t = rho(M, 0.5, x, y).time
    assert is_infinite(t)
    report = check_projection_bounds(spec, M, [(x, y)])
    assert report.violations == 0
    (rec,) = report.records
    assert rec.euclidean < 1e-8


def test_projection_check_rejects_letters_outside_the_alphabet():
    spec = SQUARE_TOP_5
    M = build_topology_automaton(spec)
    for word in (PeriodicWord.constant(9), PeriodicWord((2, 6), (1,))):
        for pair in ((PeriodicWord.constant(1), word), (word, PeriodicWord.constant(1))):
            message = rf"word {re.escape(str(word))} has letters outside the alphabet 1\.\.5"
            with pytest.raises(ValueError, match=message):
                check_projection_bounds(spec, M, [pair])
    # a letter below 1 lies in no alphabet: the word itself refuses it
    with pytest.raises(ValueError, match="letter 0 below 1 in a word"):
        check_projection_bounds(spec, M, [(PeriodicWord.constant(1), PeriodicWord.constant(0))])


def test_report_dict_shape():
    spec = SQUARE_TOP_5
    M = build_topology_automaton(spec)
    report = check_projection_bounds(
        spec, M, [(PeriodicWord.constant(1), PeriodicWord.constant(2))]
    )
    d = report.to_dict()
    assert set(d) == {"pairs", "summary"}
    assert set(d["summary"]) == {"fittedLowerC", "violations"}
    assert set(d["pairs"][0]) == {"T", "rho", "euclidean", "upperOk"}


def test_quotient_classes_merge_equal_points():
    M = build_topology_automaton(SQUARE_TOP_5)
    words = [
        parse_word("1(3)"),
        parse_word("2(1)"),
        PeriodicWord.constant(1),
        PeriodicWord.constant(5),
    ]
    classes = quotient_classes(M, words)
    assert sorted(len(c) for c in classes) == [1, 1, 2]
    merged = next(c for c in classes if len(c) == 2)
    assert set(merged) == {words[0], words[1]}


def test_quotient_classes_on_random_sample():
    M = build_topology_automaton(SQUARE_TOP_5)
    rng = random.Random(31)
    words = list({random_word(rng, 5) for _ in range(40)})
    classes = quotient_classes(M, words)
    assert sum(len(c) for c in classes) == len(words)


def reference_quotient_classes(M, words):
    """The classes by union-find over all pairs, as quotient_classes
    found them before it decided transitivity exactly."""
    words = list(words)
    parent = list(range(len(words)))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a in range(len(words)):
        for b in range(a + 1, len(words)):
            if is_infinite(surviving_time(M, words[a], words[b])):
                parent[find(a)] = find(b)
    classes = {}
    for idx, w in enumerate(words):
        classes.setdefault(find(idx), []).append(w)
    return [tuple(group) for _, group in sorted(classes.items())]


def test_quotient_classes_match_the_union_find_classes():
    rng = random.Random(77)
    merged = 0
    for spec in (SQUARE_TOP_5, SQUARE_VSEP_5, TOP_ISOLATED_11, VSEP_11):
        M = build_topology_automaton(spec)
        N = spec.alphabet_size
        for _ in range(5):
            words = [random_word(rng, N) for _ in range(30)]
            # 1(3) and 2(1) code one point of SQUARE_TOP_5
            words += [parse_word("1(3)"), parse_word("2(1)")]
            rng.shuffle(words)
            classes = quotient_classes(M, words)
            assert classes == reference_quotient_classes(M, words)
            merged += len(words) - len(classes)
    assert merged > 0


def test_quotient_classes_refuse_an_intransitive_automaton_on_any_sample():
    # two words with distinct constant tails: no triple of the sample is
    # intransitive, but the automaton has one, and it is raised
    M = EXTENDED_9.induced_automaton()
    with pytest.raises(IntransitivitySample) as exc:
        quotient_classes(M, [parse_word("(1)"), parse_word("(2)")])
    x, y, z = exc.value.args[0]
    # the triple stated in docs/nine_letter_example.md
    assert (str(x), str(y), str(z)) == ("1(5)", "1.9(1)", "2(1)")
    times = [surviving_time(M, x, y), surviving_time(M, x, z), surviving_time(M, y, z)]
    assert is_infinite(times[0]) and is_infinite(times[1]) and times[2] == 1


def random_mirror_automaton(rng):
    """A random sigma automaton whose table is closed under
    (s,i,j) -> t  =>  (-s,j,i) -> -t, with offsets that may return to Id."""
    N = rng.randint(2, 3)
    offsets = rng.sample([(1, 0), (0, 1), (1, 1), (1, -1)], rng.randint(1, 2))
    states = [ID] + offsets + [neg(v) for v in offsets]
    delta = {}
    for s in states:
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if (s, i, j) in delta or (s == ID and i == j):
                    continue
                choices = [t for t in states if s != ID or t != ID] + [EXIT] * 2
                t = rng.choice(choices)
                if t != EXIT:
                    delta[(s, i, j)] = t
                    delta[(neg(s), j, i)] = neg(t)
    delta.update({(ID, i, i): ID for i in range(1, N + 1)})
    return SigmaAutomaton(N, frozenset(states + [EXIT]), delta)


def dying_chain_automaton():
    """Id -(1,2)-> a -(1,1)-> b -(1,1)-> c, with c a dead end, and the
    mirror.  x = 1(1), y = 2(1), z = 1.2(1) keep (x,y) and (x,z) alive at
    the step where (y,z) exits and at the next, so a single pruning pass
    keeps the joint state of the exit step although no run from it lives
    forever."""
    a, b, c = (1, 0), (0, 1), (1, 1)
    delta = {(ID, 1, 1): ID, (ID, 2, 2): ID}
    for s, i, j, t in ((ID, 1, 2, a), (a, 1, 1, b), (b, 1, 1, c)):
        delta[(s, i, j)] = t
        delta[(neg(s), j, i)] = neg(t)
    return SigmaAutomaton(2, frozenset({ID, EXIT, a, b, c, neg(a), neg(b), neg(c)}), delta)


def test_quotient_classes_decide_transitivity_like_feasibility_at_the_pumping_bound():
    # zero distance is intransitive exactly when feasibility fails at
    # t0 = P = (|states| - 1)^2: a violation at P repeats a pair of live
    # states after (y,z) exits, and pumping that stretch gives the triple
    rng = random.Random(1212)
    automata = [dying_chain_automaton()] + [random_mirror_automaton(rng) for _ in range(100)]
    while len(automata) < 151:
        M = build_topology_automaton(random_carpet(rng, max_div=4, max_digits=7))
        if any(s not in (ID, EXIT) and 0 not in s for s in M.states):
            automata.append(M)
    verdicts = []
    for M in automata:
        transitive, _ = decide_feasibility(M, (len(M.states) - 1) ** 2)
        try:
            quotient_classes(M, [])
        except IntransitivitySample as exc:
            assert not transitive, M
            x, y, z = exc.args[0]
            assert is_infinite(surviving_time(M, x, y)) and is_infinite(surviving_time(M, x, z))
            assert not is_infinite(surviving_time(M, y, z))
        else:
            assert transitive, M
        verdicts.append(transitive)
    assert True in verdicts and False in verdicts


def test_quotient_classes_refuse_an_asymmetric_automaton():
    # states closed under negation, but Id reads (1,2) into e1 and (2,1) into Exit
    delta = {(ID, 1, 1): ID, (ID, 2, 2): ID, (ID, 1, 2): (1, 0)}
    M = SigmaAutomaton(2, frozenset({ID, EXIT, (1, 0), (-1, 0)}), delta)
    with pytest.raises(AsymmetricAutomaton, match="mirror-symmetric"):
        quotient_classes(M, [PeriodicWord.constant(1)])
    assert issubclass(AsymmetricAutomaton, ValueError)

import hashlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from carpetauto.automaton import build_topology_automaton, is_infinite, random_word, surviving_time
from carpetauto.metric import (
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
    times = [surviving_time(M, x, y), surviving_time(M, x, z), surviving_time(M, y, z)]
    assert is_infinite(times[0]) and is_infinite(times[1]) and not is_infinite(times[2])

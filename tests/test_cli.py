import ast
import importlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetauto import automaton, cli, cross, geometry
from carpetauto.carpet import CarpetSpec
from carpetauto.cli import build_parser, run
from carpetauto.errors import InternalError

import conftest
from conftest import CHAIN2_CARPET, EXTENDED_9, SQUARE_TOP_5, SQUARE_VSEP_5, src_env

# the package exports the function cross.classify under the module's name
classify = importlib.import_module("carpetauto.classify")


@pytest.fixture
def carpet_file(tmp_path):
    path = tmp_path / "carpet.txt"
    path.write_text(SQUARE_TOP_5.to_grid())
    return str(path)


@pytest.fixture
def cross_file(tmp_path):
    path = tmp_path / "cross.json"
    path.write_text(EXTENDED_9.to_json())
    return str(path)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_analyze(carpet_file, capsys):
    assert run(["analyze", carpet_file]) == 0
    data = out_json(capsys)
    assert data["conditions"]["topIsolated"] is True
    assert data["class"]["kind"] == "Class1"
    assert data["profile"]["blockSizes"] == [1, 1, 3]


def test_analyze_reports_non_cross(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("#.#\n###\n#.#")
    assert run(["analyze", str(path)]) == 0
    assert out_json(capsys)["class"]["kind"] == "NotCross"


def test_automaton_json_and_dot(carpet_file, tmp_path, capsys):
    assert run(["automaton", carpet_file]) == 0
    data = out_json(capsys)
    assert data["N"] == 5 and "delta" in data
    out = tmp_path / "m.dot"
    assert run(["automaton", carpet_file, "--format", "dot", "--out", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_automaton_accepts_its_own_output(carpet_file, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["automaton", carpet_file, "--out", str(out)]) == 0
    assert run(["automaton", str(out)]) == 0
    assert out_json(capsys)["N"] == 5


def test_simplify(carpet_file, capsys):
    assert run(["simplify", carpet_file]) == 0
    steps = out_json(capsys)
    assert len(steps) == 1
    assert steps[0]["after"]["PV"] == []


def test_equiv(tmp_path, capsys):
    e = tmp_path / "e.txt"
    f = tmp_path / "f.txt"
    e.write_text(SQUARE_VSEP_5.to_grid())
    f.write_text(SQUARE_TOP_5.to_grid())
    assert run(["equiv", str(e), str(f)]) == 0
    data = out_json(capsys)
    assert data["status"] == "LipschitzEquivalent"
    assert data["certificate"]["map"]


def test_equiv_is_inconclusive_when_an_automaton_reaches_a_diagonal_state(tmp_path, capsys):
    # The first-level cylinders meet only along edges, so crossIntersection
    # holds, but the topology automaton reaches (-1, -1) through an axis
    # state.  equiv used to exit 3 with "state (-1, -1) present".
    grid = tmp_path / "g.txt"
    grid.write_text(".#\n..\n##\n..\n#.\n##")
    assert run(["equiv", str(grid), str(grid)]) == 0
    data = out_json(capsys)
    assert data["status"] == "Inconclusive" and data["certificate"] is None
    assert all(h["passed"] for h in data["hypotheses"][:-1])
    assert data["hypotheses"][-1] == {
        "name": "noDiagonalState",
        "passed": False,
        "detail": "E: state (-1, -1) present: diagonal offset state reachable",
    }
    assert run(["analyze", str(grid)]) == 0
    data = out_json(capsys)
    assert data["conditions"]["crossIntersection"] is True
    assert data["class"]["kind"] == "NotCross"


@pytest.mark.parametrize("text", ['{"n":2,"m":2,"digits":[[0,0],[1,1]]}', "#.\n.#"])
def test_equiv_refuses_stdin_for_both_carpets_before_reading_it(text, carpet_file, monkeypatch,
                                                                capsys):
    # both names used to read stdin, and F found it empty: "error: empty grid"
    stdin = io.StringIO(text)
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run(["equiv", "-", "-"]) == 3
    assert capsys.readouterr() == ("", "error: standard input can stand for only one carpet\n")
    assert stdin.tell() == 0
    assert run(["equiv", "-", carpet_file]) == 0
    assert out_json(capsys)["status"]


def test_survive_on_cross_automaton(cross_file, capsys):
    assert run(["survive", cross_file, "(1)", "(3)"]) == 0
    data = out_json(capsys)
    assert data["T"] == 0 and not data["infinite"]
    assert data["rho"] == 1.0

    assert run(["survive", cross_file, "(5)", "(9)"]) == 0
    data = out_json(capsys)
    assert data["T"] == 1
    assert data["rho"] == pytest.approx(data["xi"])

    assert run(["survive", cross_file, "1(5)", "1.9(1)"]) == 0
    data = out_json(capsys)
    assert data["infinite"] and data["T"] is None and data["rho"] == 0.0


def test_survive_default_xi_from_carpet(carpet_file, capsys):
    assert run(["survive", carpet_file, "(1)", "(2)"]) == 0
    data = out_json(capsys)
    assert data["xi"] == pytest.approx(1 / 3)


def test_survive_reads_stdin_once_and_takes_xi_from_its_carpet(monkeypatch, capsys):
    # the source is parsed once: a second read of stdin would find it empty
    monkeypatch.setattr(sys, "stdin", io.StringIO(SQUARE_TOP_5.to_grid()))
    assert run(["survive", "-", "(1)", "(2)"]) == 0
    assert out_json(capsys)["xi"] == pytest.approx(1 / 3)


def test_survive_explicit_xi(cross_file, capsys):
    assert run(["survive", cross_file, "--xi", "0.25", "(5)", "(9)"]) == 0
    assert out_json(capsys)["rho"] == pytest.approx(0.25)


def test_gmap(capsys):
    assert run(["gmap", "--ctx", "1,2,3,4", "4.1.1.1(3)"]) == 0
    data = out_json(capsys)
    assert data["g"] == "3.2.3.1(3)"
    assert data["mDecomposition"] == [[4, 1, 1, 1]]


def test_gmap_rejects_wrong_tail(capsys):
    assert run(["gmap", "--ctx", "1,2,3,4", "4.1(2)"]) == 3


def test_gmap_refuses_letters_below_one(capsys):
    # both used to exit 0 with a report, though every alphabet is 1..N
    assert run(["gmap", "--ctx", "0,2,3,4", "1(3)"]) == 3
    assert "letter 0 below 1 in a context" in capsys.readouterr().err
    assert run(["gmap", "--ctx", "1,2,3,4", "0.2(3)"]) == 3
    captured = capsys.readouterr()
    assert "letter 0 below 1 in a word" in captured.err and not captured.out


def test_render(carpet_file, tmp_path):
    out = tmp_path / "c.svg"
    assert run(["render", carpet_file, "--depth", "2", "--out", str(out)]) == 0
    assert out.read_text().lstrip().startswith("<?xml")


def test_render_refuses_a_huge_depth_before_any_work(carpet_file, capsys):
    start = time.perf_counter()
    assert run(["render", carpet_file, "--depth", "10000000"]) == 3
    assert time.perf_counter() - start < 1
    assert "depth 10000000 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-5"])
def test_render_refuses_a_size_below_one(carpet_file, size, capsys):
    assert run(["render", carpet_file, "--size", size]) == 3
    assert capsys.readouterr().err == "error: size must be positive\n"


def test_bad_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("#x#")
    assert run(["analyze", str(path)]) == 3
    assert run(["analyze", str(tmp_path / "missing.txt")]) == 3


def test_survive_rejects_letters_outside_the_alphabet(carpet_file, capsys):
    for word in ("(9)", "1.6(2)"):
        assert run(["survive", carpet_file, word, "(1)"]) == 3
        assert "outside 1..5" in capsys.readouterr().err
    # a letter below 1 lies in no alphabet, so the word itself refuses it
    assert run(["survive", carpet_file, "(0)", "(1)"]) == 3
    assert "letter 0 below 1 in a word" in capsys.readouterr().err


def test_malformed_automaton_is_rejected_under_optimize(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"N": 2, "states": ["Id"], "delta": {"Id|1,1": "Id", "Id|2,2": "Id", "Id|1,3": "Id"}}
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "carpetauto", "survive", str(path), "(1)", "(2)"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 3
    assert "outside 1..2" in proc.stderr and "Traceback" not in proc.stderr


def test_the_package_has_no_assert_statement():
    """python -O drops assert statements, so input checks and invariants
    raise typed exceptions instead."""
    package = Path(cli.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(package.glob("*.py"))) > 10 and found == []


def test_every_module_parses_at_the_declared_python_floor():
    """pyproject.toml declares Python >= 3.10: no module uses a newer
    grammar, as far as ast's feature_version can tell."""
    root = Path(__file__).resolve().parent.parent
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    package = root / "src" / "carpetauto"
    paths = sorted(package.glob("*.py"))
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
    assert len(paths) > 10


def test_malformed_automaton_json_is_rejected(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"states": ["Id"], "delta": {"Id|1,1": "Id"}}))
    assert run(["survive", str(path), "(1)", "(1)"]) == 3
    assert "'N'" in capsys.readouterr().err
    for data in (
        {"N": None, "states": [], "delta": {}},
        {"N": 2, "states": ["Id"], "delta": []},
        {"N": 2, "states": [["Id"]], "delta": {}},
        {"N": 2.0, "states": ["Id"], "delta": {"Id|1,1": "Id", "Id|2,2": "Id"}},
    ):
        path.write_text(json.dumps(data))
        assert run(["survive", str(path), "(1)", "(1)"]) == 3
        assert "malformed automaton JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simplify", "survive"])
def test_malformed_cross_automaton_json_is_rejected(command, tmp_path, capsys):
    path = tmp_path / "c.json"
    cases = (
        ({"PV": None}, "lacks the field 'N'"),
        ({"N": 6, "PH": None}, "field 'PH'"),
        ({"N": 5, "PV": [6]}, "field 'PV'"),
        ({"N": [], "PV": []}, "field 'N'"),
        ({"N": 1e8, "PV": []}, "expected an integer"),
        ({"N": 3, "PH": [[1.9, 2.5]]}, "field 'PH': expected an integer"),
        ({"N": 3, "PV": [], "Pe2": [[True, 2]]}, "field 'Pe2': expected an integer"),
    )
    for data, message in cases:
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["(1)", "(1)"] if command == "survive" else [])
        assert run(argv) == 3, data
        assert message in capsys.readouterr().err


def test_malformed_carpet_json_is_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    base = {"n": 3, "m": 3, "digits": [[0, 0], [1, 2]]}
    cases = (
        ({"vratios": 0}, "field 'vratios'"),
        ({"hratios": [[1], [1], [1]]}, "field 'hratios'"),
        ({"hratios": ["1/0", "1/2", "1/2"]}, "field 'hratios'"),
        ({"n": None}, "field 'n'"),
        ({"m": 3.0}, "field 'm': expected an integer"),
        ({"digits": [[0]]}, "field 'digits'"),
        ({"digits": [[0.7, 0], [1, 1.2], [True, 2]]}, "field 'digits': expected an integer"),
        ({"digits": [[0, 0, 7], [1, 1]]}, "field 'digits': too many values"),
        ({"digits": [{"a": 1}]}, "field 'digits': not enough values"),
    )
    for extra, message in cases:
        path.write_text(json.dumps({**base, **extra}))
        assert run(["analyze", str(path)]) == 3, extra
        assert message in capsys.readouterr().err
    path.write_text(json.dumps({"m": 3, "digits": []}))
    assert run(["analyze", str(path)]) == 3
    assert "lacks the field 'n'" in capsys.readouterr().err


def test_internal_error_exits_4_without_a_traceback(carpet_file, tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalError("invariant broken")

    # a carpet's own cross automaton is not searched: inject through its JSON
    path = tmp_path / "cross.json"
    path.write_text(cross.from_topology_automaton(automaton.build_topology_automaton(
        SQUARE_TOP_5)).to_json())
    monkeypatch.setattr(cross, "decide_triple_coding_free", broken)
    assert run(["simplify", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: invariant broken\n"
    # a letter bijection that breaks adjacency preservation is internal too
    identity = classify.LetterBijection({i: i for i in SQUARE_VSEP_5.letters()}, ())
    monkeypatch.setattr(classify, "_match_blocks", lambda E, F: identity)
    e = tmp_path / "e.txt"
    e.write_text(SQUARE_VSEP_5.to_grid())
    assert run(["equiv", str(e), carpet_file]) == 4
    assert capsys.readouterr().err.startswith("internal error: H-relation not preserved")


def spy(monkeypatch, module, name):
    """Count the calls of module.name through every carpetauto module
    that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "carpetauto":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_request_builds_each_carpet_once(carpet_file, tmp_path, monkeypatch, capsys):
    e = tmp_path / "e.txt"
    e.write_text(SQUARE_VSEP_5.to_grid())
    for argv, carpets in (
        (["analyze", carpet_file], 1),
        (["equiv", str(e), carpet_file], 2),
        (["survive", carpet_file, "(1)", "(2)"], 1),
    ):
        with monkeypatch.context() as patch:
            oracles = spy(patch, geometry, "build_oracle")
            automata = spy(patch, automaton, "build_topology_automaton")
            assert run(argv) == 0
        assert (len(oracles), len(automata)) == (carpets, carpets), argv[0]


def test_simplify_classifies_the_input_once(tmp_path, monkeypatch, capsys):
    # the class of each stage follows from the input's: see
    # test_simplify.py::test_each_step_carries_the_class_classify_gives
    path = tmp_path / "chain2.txt"
    path.write_text(CHAIN2_CARPET.to_grid())
    calls = spy(monkeypatch, cross, "classify")
    assert run(["simplify", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2
    assert len(calls) == 1


def test_simplify_decides_triple_coding_once_per_chain(tmp_path, monkeypatch, capsys):
    """Once for cross or sigma automaton JSON; never for a carpet, whose
    cross automaton has no triple coding (docs/carpet_cross_axioms.md)."""
    grid = tmp_path / "chain2.txt"
    grid.write_text(CHAIN2_CARPET.to_grid())
    C = cross.from_topology_automaton(automaton.build_topology_automaton(CHAIN2_CARPET))
    cross_json = tmp_path / "chain2-cross.json"
    cross_json.write_text(C.to_json())
    sigma_json = tmp_path / "chain2-sigma.json"
    assert run(["automaton", str(grid), "--out", str(sigma_json)]) == 0
    reports = set()
    for path, searches in ((grid, 0), (cross_json, 1), (sigma_json, 1)):
        with monkeypatch.context() as patch:
            calls = spy(patch, cross, "decide_triple_coding_free")
            assert run(["simplify", str(path)]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)) == 2 and len(calls) == searches, path.name
        reports.add(out)
    assert len(reports) == 1


def test_simplify_rejects_a_triple_coding_the_first_deletion_would_hide(tmp_path, capsys):
    # x=2(3), y=1(2), z=3(4) is coded three ways, with times (inf, inf, 0);
    # deleting the only PV edge (3, 2) removes the witness
    path = tmp_path / "four.json"
    path.write_text(json.dumps(
        {"N": 4, "PH": [[2, 1]], "PV": [[3, 2]], "Pe1": [[3, 2]], "Pe2": [[4, 3]]}
    ))
    assert run(["simplify", str(path)]) == 3
    assert "triple coding present" in capsys.readouterr().err


def test_simplify_rejects_extended_9_as_cross_and_as_sigma_json(cross_file, tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    assert run(["automaton", cross_file, "--out", str(sigma)]) == 0
    witness = ("witness (PeriodicWord(preperiod=(1,), period=(5,)), "
               "PeriodicWord(preperiod=(1, 9), period=(1,)), "
               "PeriodicWord(preperiod=(2,), period=(1,)))")
    for path in (cross_file, str(sigma)):
        assert run(["simplify", path]) == 3
        assert capsys.readouterr().err == f"error: triple coding present, {witness}\n", path


def test_survive_walks_the_itinerary_once(carpet_file, monkeypatch, capsys):
    calls = spy(monkeypatch, automaton, "surviving_time")
    assert run(["survive", carpet_file, "1.2(3)", "2.1(3)"]) == 0
    assert len(calls) == 1


def test_json_with_n_goes_to_the_automaton_parser(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"N": 2}))
    assert run(["automaton", str(path)]) == 3
    err = capsys.readouterr().err
    assert "'states'" in err and "'n'" not in err


CARPET_FIXTURES = {name: value for name, value in vars(conftest).items()
                   if isinstance(value, CarpetSpec)}


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = run([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CARPET_FIXTURES))
def test_simplify_reads_the_automaton_json_of_a_carpet_as_the_carpet(name, tmp_path):
    carpet = tmp_path / "carpet.json"
    carpet.write_text(CARPET_FIXTURES[name].to_json())
    code, sigma_json, _ = run_captured(["automaton", carpet])
    assert code == 0
    sigma = tmp_path / "sigma.json"
    sigma.write_text(sigma_json)
    assert run_captured(["simplify", sigma]) == run_captured(["simplify", carpet])


# exit code by command and input kind, as README's table of inputs states
INPUT_KINDS = ("grid", "carpet", "cross", "sigma")
ACCEPTS = {
    "analyze": (0, 0, 3, 3),
    "automaton": (0, 0, 0, 0),
    "simplify": (0, 0, 0, 0),
    "equiv": (0, 0, 3, 3),
    "survive": (0, 0, 0, 0),
    "render": (0, 0, 3, 3),
}


@pytest.mark.parametrize("command", sorted(ACCEPTS))
def test_each_command_takes_the_input_kinds_readme_states(command, tmp_path):
    M = automaton.build_topology_automaton(SQUARE_TOP_5)
    texts = {
        "grid": SQUARE_TOP_5.to_grid(),
        "carpet": SQUARE_TOP_5.to_json(),
        "cross": cross.from_topology_automaton(M).to_json(),
        "sigma": automaton.to_json(M),
    }
    extra = {"equiv": [tmp_path / "grid"], "survive": ["(1)", "(2)"], "render": ["--depth", "1"]}
    for kind in INPUT_KINDS:
        (tmp_path / kind).write_text(texts[kind])
    codes = tuple(
        run_captured([command, tmp_path / kind, *extra.get(command, [])])[0]
        for kind in INPUT_KINDS
    )
    assert codes == ACCEPTS[command]


@pytest.mark.parametrize("command", sorted(ACCEPTS))
def test_every_command_words_invalid_json_alike(command, tmp_path):
    extra = {"equiv": [tmp_path / "grid"], "survive": ["(1)", "(2)"], "render": ["--depth", "1"]}
    (tmp_path / "grid").write_text(SQUARE_TOP_5.to_grid())
    cases = (
        ("{oops", "error: invalid JSON: Expecting property name"),
        # deeper than the decoder's recursion: exit 3, not a traceback
        ('{"N": ' + "[" * 100_000 + "]" * 100_000 + "}", "error: invalid JSON: maximum recursion"),
    )
    for text, message in cases:
        (tmp_path / "bad.json").write_text(text)
        code, out, err = run_captured([command, tmp_path / "bad.json", *extra.get(command, [])])
        assert (code, out) == (3, ""), text[:8]
        assert err.startswith(message) and "Traceback" not in err, err


def test_a_json_source_is_decoded_once(tmp_path, monkeypatch):
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or loads(text, **kw))
    M = automaton.build_topology_automaton(SQUARE_TOP_5)
    sources = {
        "carpet": SQUARE_TOP_5.to_json(),
        "cross": cross.from_topology_automaton(M).to_json(),
        "sigma": automaton.to_json(M),
    }
    for kind, text in sources.items():
        (tmp_path / kind).write_text(text)
        for argv in (["automaton", tmp_path / kind], ["simplify", tmp_path / kind],
                     ["survive", tmp_path / kind, "(1)", "(2)"]):
            decoded.clear()
            assert run_captured(argv)[0] == 0, (kind, argv[0])
            assert len(decoded) == 1, (kind, argv[0])


def test_cross_json_with_delta_means_one_thing_to_every_command(tmp_path):
    # PH beside delta: a sigma automaton for automaton, survive and simplify
    data = json.loads(automaton.to_json(automaton.build_topology_automaton(SQUARE_TOP_5)))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**data, "PH": "ignored"}))
    for argv in (["automaton", path], ["survive", path, "(1)", "(2)"], ["simplify", path]):
        assert run_captured(argv)[0] == 0, argv[0]
    path.write_text(json.dumps({**data, "N": None, "PH": []}))
    for argv in (["automaton", path], ["survive", path, "(1)", "(2)"], ["simplify", path]):
        code, _, err = run_captured(argv)
        assert code == 3 and "malformed automaton JSON field 'N'" in err, argv[0]


def test_malformed_delta_names_the_field(tmp_path):
    path = tmp_path / "m.json"
    for key, target in (("Id11", "Id"), ("Id|1,1", "Zz"), ("Id|a,1", "Id")):
        path.write_text(json.dumps({"N": 1, "states": ["Id"], "delta": {key: target}}))
        for argv in (["automaton", path], ["survive", path, "(1)", "(1)"], ["simplify", path]):
            code, _, err = run_captured(argv)
            assert code == 3 and "field 'delta'" in err, (key, target, argv[0], err)


@pytest.mark.parametrize("data", [
    {"N": -3, "PH": []},
    {"N": 0, "PV": []},
    {"N": -1, "states": ["Id"], "delta": {}},
    {"N": 0, "states": ["Id"], "delta": {}},
])
def test_alphabet_of_fewer_than_one_letter_exits_3(data, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    for argv in (["automaton", path], ["survive", path, "(1)", "(1)"], ["simplify", path]):
        code, out, err = run_captured(argv)
        assert code == 3 and not out, (data, argv[0], out)
        assert f"N = {data['N']} letters" in err, (data, argv[0], err)


def test_sizes_beyond_the_letter_bound_exit_3(tmp_path):
    path = tmp_path / "big"
    cases = (
        ({"N": 100_000_000, "PV": []}, "exceeds 255"),
        ({"N": 100_000_000, "states": ["Id"], "delta": {}}, "exceeds 255"),
        ({"n": 100_000_000, "m": 2, "digits": [[0, 0]]}, "at most 255"),
        ({"n": 2, "m": 256, "digits": [[0, 0]]}, "at most 255"),
    )
    for data, message in cases:
        path.write_text(json.dumps(data))
        code, _, err = run_captured(["survive", path, "(1)", "(1)"])
        assert code == 3 and message in err, (data, err)
    path.write_text("\n".join(["#" * 16] * 16))
    for argv in (["analyze", path], ["survive", path, "(1)", "(1)"], ["render", path]):
        code, _, err = run_captured(argv)
        assert code == 3 and "256 digits exceed the 255 letters" in err, argv[0]


def test_one_parser_serves_many_calls(carpet_file, tmp_path, capsys):
    build_parser.cache_clear()
    assert run(["survive", carpet_file, "(1)", "(2)"]) == 0
    fresh = capsys.readouterr().out
    parser = build_parser()

    assert run(["survive", carpet_file, "--xi", "0.3", "(1)", "(2)"]) == 0
    assert out_json(capsys)["xi"] == 0.3
    assert run(["survive", carpet_file, "(1)", "(2)"]) == 0
    assert out_json(capsys)["xi"] == pytest.approx(1 / 3)

    dot = tmp_path / "m.dot"
    assert run(["automaton", carpet_file, "--format", "dot", "--out", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")
    assert run(["automaton", carpet_file]) == 0
    assert out_json(capsys)["N"] == 5

    with pytest.raises(SystemExit) as exc:
        run(["survive", carpet_file, "(1)"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["survive", carpet_file, "(1)", "(2)"]) == 0
    assert capsys.readouterr().out == fresh
    assert build_parser() is parser


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


# valid calls, help, abbreviations, "--", "-" for stdin, bad choices and
# values, missing and surplus arguments, unknown commands
PARSE_CORPUS = (
    [], ["-h"], ["--help"], ["--he"], ["-x"], ["--", "analyze", "c"], ["nosuch"],
    ["analyz", "c"], ["-h", "analyze"],
    ["analyze", "c"], ["analyze", "-"], ["analyze"], ["analyze", "-h"], ["analyze", "--he"],
    ["analyze", "c", "--out", "o"], ["analyze", "--out=o", "c"], ["analyze", "c", "--ou", "o"],
    ["analyze", "c", "--out"], ["analyze", "c", "--out", "a", "--out", "b"],
    ["analyze", "--", "-c"], ["analyze", "c", "--"], ["analyze", "c", "extra"],
    ["analyze", "c", "--bogus"], ["analyze", "c", "-o"], ["analyze", "c", "-h"],
    ["automaton", "c"], ["automaton", "c", "--format", "dot"], ["automaton", "c", "--form", "dot"],
    ["automaton", "--format=json", "c"], ["automaton", "c", "--format", "svg"],
    ["automaton", "c", "--format"],
    ["simplify", "c"], ["simplify"], ["simplify", "a", "b"],
    ["equiv", "a", "b"], ["equiv", "-", "-"], ["equiv", "a"], ["equiv", "a", "b", "c"],
    ["equiv", "a", "--", "-b"], ["equiv", "a", "b", "--out", "o", "c"],
    ["survive", "c", "(1)", "(2)"], ["survive", "c", "--xi", "0.25", "(1)", "(2)"],
    ["survive", "c", "(1)", "(2)", "--xi", "abc"], ["survive", "c", "(1)", "(2)", "--xi=-0.5"],
    ["survive", "c", "(1)"], ["survive", "c", "-1", "(2)"],
    ["gmap", "--ctx", "1,2,3,4", "1.2(3)"], ["gmap", "1.2(3)"], ["gmap", "--ctx=1,2,3,4", "(3)", "x"],
    ["render", "c", "--depth", "2", "--size", "64"], ["render", "c", "--depth", "x"],
    ["render", "c", "--dep", "2"], ["render", "c", "--size", "1.5"],
    ["selftest"], ["selftest", "--seed", "7"], ["selftest", "--seed"], ["selftest", "7"],
)


def parse_outcome(parse, argv):
    """(exit code or None, stdout, stderr, namespace or None) of one parse."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        try:
            args, code = vars(parse(list(argv))), None
        except SystemExit as e:
            args, code = None, e.code
    return code, out.getvalue(), err.getvalue(), args


def test_run_parses_every_command_line_as_the_full_parser_does(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line on every Python version
    parser = build_parser()
    for argv in PARSE_CORPUS:
        ours = parse_outcome(lambda a: cli._parse(parser, a), argv)
        assert ours == parse_outcome(parser.parse_args, argv), argv
    assert parse_outcome(lambda a: cli._parse(parser, a), ["equiv", "a", "b", "c"])[1:3] == (
        "",
        "usage: carpetauto [-h] {analyze,automaton,simplify,equiv,survive,gmap,render,selftest}"
        " ...\ncarpetauto: error: unrecognized arguments: c\n",
    )


def test_selftest_fast(capsys):
    assert run(["selftest", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all selftests passed" in out
    assert out.count("PASS") == 4


def test_selftest_prints_the_feasibility_witness(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_topology_automaton", lambda spec: EXTENDED_9.induced_automaton())
    assert run(["selftest", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert "FAIL feasibility" in out
    assert "x=1.5.5(1) y=1.9(1) z=2(1)" in out


def test_selftest_out_writes_what_stdout_gets(monkeypatch, tmp_path, capsys):
    """--out takes exactly the lines standard output gets without it, on a
    pass and on a failure, and the exit codes stay 0 and 1."""
    out = tmp_path / "selftest.txt"

    def same_both_ways(code):
        assert run(["selftest", "--seed", "7"]) == code
        shown = capsys.readouterr()
        assert run(["selftest", "--seed", "7", "--out", str(out)]) == code
        written = capsys.readouterr()
        assert written.out == "" and written.err == shown.err
        assert out.read_text(encoding="utf-8") == shown.out
        return shown.out

    assert same_both_ways(0).endswith("all selftests passed\n")
    monkeypatch.setattr(cli, "build_topology_automaton", lambda spec: EXTENDED_9.induced_automaton())
    assert "FAIL feasibility" in same_both_ways(1)


def test_console_script_entry_point(carpet_file):
    proc = subprocess.run(
        [sys.executable, "-m", "carpetauto", "analyze", carpet_file],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"]["kind"] == "Class1"


def test_out_to_a_missing_directory_or_to_a_directory_is_an_input_error(carpet_file, tmp_path,
                                                                        capsys):
    missing = str(tmp_path / "nowhere" / "x")
    for argv, path in ((["gmap", "--ctx", "1,2,3,4", "1.2(3)", "--out", missing], missing),
                       (["analyze", carpet_file, "--out", str(tmp_path)], str(tmp_path))):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err
    proc = subprocess.run([sys.executable, "-m", "carpetauto", "analyze", carpet_file,
                           "--out", str(tmp_path)], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 3 and proc.stderr.startswith("error: cannot write")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_is_an_input_error(carpet_file, buffered):
    """The reader closes the pipe before the child writes: like an
    unwritable --out, one error line and exit 3, also from the flush at
    exit of a buffered stdout."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["analyze", carpet_file], ["simplify", carpet_file],
                 ["automaton", carpet_file, "--format", "dot"], ["selftest"]):
        proc = subprocess.Popen([sys.executable, "-m", "carpetauto", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 3, (argv, err)
        assert err.startswith("error: cannot write standard output: ") and err.count("\n") == 1, err


def test_a_stdout_that_refuses_writes_is_an_input_error(carpet_file, monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run(["analyze", carpet_file]) == 3
    assert capsys.readouterr().err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


def test_a_file_that_is_not_utf8_is_named_in_the_error(carpet_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff" + SQUARE_TOP_5.to_grid().encode())
    assert run(["equiv", carpet_file, str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec") and err.count("\n") == 1, err
    assert carpet_file not in err


def test_the_cli_loads_no_numpy(carpet_file):
    """numpy is an optional extra that only fastsim needs: a fresh
    interpreter that imports the CLI, or runs analyze, loads none of it."""
    code = "import sys, carpetauto.cli; print(sorted(m for m in sys.modules if 'numpy' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stdout + proc.stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "carpetauto", "analyze",
                           carpet_file], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "carpetauto.cli" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def test_the_cli_loads_no_dataclasses():
    """Records are named tuples: a fresh interpreter that imports the CLI
    loads neither dataclasses nor the inspect module it pulls in.  Nor does
    it load numpy or the modules that only some subcommands run."""
    unused = ("dataclasses", "inspect", "numpy",
              "carpetauto.geometry", "carpetauto.gmap", "carpetauto.metric")
    code = f"import sys, carpetauto.cli; print(sorted(m for m in {unused} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stdout + proc.stderr


def test_the_package_exports_each_name_from_its_module(tmp_path):
    """Every exported name resolves on first use to its module's object;
    the exported `classify` stays the function cross.classify, not the
    submodule of the same name, after every subcommand that loads more."""
    import carpetauto

    assert len(carpetauto.__all__) == 31
    for name in carpetauto.__all__:
        module = importlib.import_module(f"carpetauto.{carpetauto._MODULE_OF[name]}")
        value = getattr(carpetauto, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        carpetauto.no_such_name
    carpet = tmp_path / "carpet.txt"
    carpet.write_text(SQUARE_TOP_5.to_grid())
    out = str(tmp_path / "out")
    runs = [["equiv", str(carpet), str(carpet)], ["simplify", str(carpet)],
            ["gmap", "--ctx", "1,2,3,4", "5.1(3)"], ["survive", str(carpet), "(1)", "(3)"]]
    code = (f"import carpetauto, carpetauto.cli\n"
            f"assert carpetauto.classify is carpetauto.cross.classify\n"
            f"for argv in {runs!r}:\n"
            f"    assert carpetauto.cli.run(argv + ['--out', {out!r}]) == 0, argv\n"
            f"    from carpetauto import classify\n"
            f"    assert classify is carpetauto.cross.classify, argv\n"
            f"import carpetauto.classify as m\n"
            f"assert m is carpetauto.cross.classify\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr


json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 6), st.floats(),
    st.sampled_from(["1/2", "1/0", "x", "Id", "e1"]),
)
json_value = st.recursive(json_leaf, lambda inner: st.lists(inner, max_size=4), max_leaves=8)


@st.composite
def cells(draw):
    """(n, m, occupied cells) of a grid of at most 4x4."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    grid = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    return n, m, sorted(draw(st.sets(grid, min_size=1, max_size=n * m)))


@st.composite
def corrupted(draw, data):
    """The JSON of `data`, often with one field dropped or replaced."""
    data = dict(data)
    key = draw(st.sampled_from(sorted(data)))
    action = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
    if action == "drop":
        del data[key]
    elif action == "replace":
        data[key] = draw(json_value)
    return json.dumps(data)


@st.composite
def grids(draw):
    n, m, occupied = draw(cells())
    rows = ["".join("#" if (x, y) in occupied else "." for x in range(n)) for y in range(m)]
    if draw(st.integers(0, 3)) == 0:
        y = draw(st.integers(0, m - 1))
        rows[y] = draw(st.text(alphabet="#.x", max_size=5))
    return "\n".join(reversed(rows))


@st.composite
def carpet_json(draw):
    n, m, occupied = draw(cells())
    data = {"n": n, "m": m, "digits": [list(c) for c in occupied]}
    for name, count in (("hratios", n), ("vratios", m)):
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
            data[name] = [f"{w}/{sum(weights)}" for w in weights]
    return draw(corrupted(data))


@st.composite
def cross_json(draw):
    N = draw(st.integers(1, 6))
    letters = st.integers(1, N)
    relation = st.lists(st.tuples(letters, letters), max_size=3)
    data = {name: draw(relation) for name in ("PH", "PV", "Pe1", "Pe2")}
    return draw(corrupted({"N": N, **data}))


@st.composite
def sigma_json(draw):
    n, m, occupied = draw(cells())
    M = automaton.build_topology_automaton(CarpetSpec(n, m, tuple(occupied)))
    return draw(corrupted(json.loads(automaton.to_json(M))))


carpet_sources = st.one_of(grids(), carpet_json())
sources = st.one_of(carpet_sources, cross_json(), sigma_json())
words = st.sampled_from(["(1)", "(2)", "1.2(3)", "2(1)", "1.2(1.3)", "(7)", "1.", "(x)"])


@settings(max_examples=300, deadline=None)
@given(first=sources, second=carpet_sources, x=words, y=words)
def test_cli_never_ends_in_a_traceback(tmp_path_factory, first, second, x, y):
    directory = tmp_path_factory.mktemp("fuzz")
    a, b = directory / "a", directory / "b"
    a.write_text(first)
    b.write_text(second)
    for argv in (
        ["analyze", a], ["automaton", a], ["automaton", a, "--format", "dot"],
        ["simplify", a], ["survive", a, x, y], ["equiv", a, b],
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = run([str(arg) for arg in argv])
        assert code in (0, 3), (argv[0], first, second, err.getvalue())

import json
import subprocess
import sys

import pytest

from carpetauto.cli import build_parser, run

from conftest import EXTENDED_9, SQUARE_TOP_5, SQUARE_VSEP_5


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


def test_render(carpet_file, tmp_path):
    out = tmp_path / "c.svg"
    assert run(["render", carpet_file, "--depth", "2", "--out", str(out)]) == 0
    assert out.read_text().lstrip().startswith("<?xml")


def test_bad_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("#x#")
    assert run(["analyze", str(path)]) == 3
    assert run(["analyze", str(tmp_path / "missing.txt")]) == 3


def test_survive_rejects_letters_outside_the_alphabet(carpet_file, capsys):
    for word in ("(9)", "(0)", "1.6(2)"):
        assert run(["survive", carpet_file, word, "(1)"]) == 3
        assert "outside 1..5" in capsys.readouterr().err


def test_malformed_automaton_is_rejected_under_optimize(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"N": 2, "states": ["Id"], "delta": {"Id|1,1": "Id", "Id|2,2": "Id", "Id|1,3": "Id"}}
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "carpetauto", "survive", str(path), "(1)", "(2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "outside 1..2" in proc.stderr and "Traceback" not in proc.stderr


def test_malformed_automaton_json_is_rejected(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"states": ["Id"], "delta": {"Id|1,1": "Id"}}))
    assert run(["survive", str(path), "(1)", "(1)"]) == 3
    assert "'N'" in capsys.readouterr().err
    for data in (
        {"N": None, "states": [], "delta": {}},
        {"N": 2, "states": ["Id"], "delta": []},
        {"N": 2, "states": [["Id"]], "delta": {}},
    ):
        path.write_text(json.dumps(data))
        assert run(["survive", str(path), "(1)", "(1)"]) == 3
        assert "malformed automaton JSON" in capsys.readouterr().err


def test_json_with_n_goes_to_the_automaton_parser(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"N": 2}))
    assert run(["automaton", str(path)]) == 3
    err = capsys.readouterr().err
    assert "'states'" in err and "'n'" not in err


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


def test_selftest_fast(capsys):
    assert run(["selftest", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "all selftests passed" in out
    assert out.count("PASS") == 4


def test_console_script_entry_point(carpet_file):
    proc = subprocess.run(
        [sys.executable, "-m", "carpetauto", "analyze", carpet_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"]["kind"] == "Class1"

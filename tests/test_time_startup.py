import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "time_startup.py"
spec = importlib.util.spec_from_file_location("time_startup", SCRIPT)
time_startup = importlib.util.module_from_spec(spec)
spec.loader.exec_module(time_startup)


def test_one_round_times_both_conditions_and_leaves_no_cache_in_the_source():
    src = str(ROOT / "src")
    cached = set((ROOT / "src").rglob("__pycache__"))
    times = time_startup.timings([src], rounds=1)
    assert set(times) == {(src, "nocache"), (src, "cache")}
    assert all(len(t) == 1 and 0 < t[0] < 10 for t in times.values())
    assert set((ROOT / "src").rglob("__pycache__")) == cached


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_a_round_count_below_one_is_a_usage_error_before_any_start(rounds, monkeypatch, capsys):
    # it used to end in "min() arg is an empty sequence" after the cache starts
    started = []
    monkeypatch.setattr(time_startup, "start", started.append)
    with pytest.raises(SystemExit) as exc:
        time_startup.main(["--rounds", rounds])
    assert exc.value.code == 2 and started == []
    assert f"--rounds must be at least 1, not {rounds}" in capsys.readouterr().err

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "time_large.py"
spec = importlib.util.spec_from_file_location("time_large", SCRIPT)
time_large = importlib.util.module_from_spec(spec)
spec.loader.exec_module(time_large)


def test_layer_times_of_a_two_carpet_family():
    specs = time_large.family(2)
    assert [len(s.digits) for s in specs] == [251, 249]  # draws of 258 and 271 digits skipped
    rows = time_large.layer_times(specs, repeats=1)
    assert [row["N"] for row in rows] == [251, 249]
    for row in rows:
        assert set(row) == {"N", *time_large.LAYERS}
        assert all(row[name] > 0 for name in time_large.LAYERS)

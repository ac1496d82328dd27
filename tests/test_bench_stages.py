"""bench/stages.py on a tiny grid: the BENCH document it writes."""

import importlib.util
import json
from pathlib import Path

STAGES_PY = Path(__file__).resolve().parent.parent / "bench" / "stages.py"


def load_stages():
    spec = importlib.util.spec_from_file_location("bench_stages", STAGES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_grid_file_has_every_stage_with_positive_medians(tmp_path):
    stages = load_stages()
    # n = 1000 is the smallest round n at which variant B accepts p = 0.1.
    path = tmp_path / "BENCH_tiny.json"
    path.write_text(json.dumps(stages.measure(n=1000, repeats=5), indent=1) + "\n")
    doc = json.loads(path.read_text())
    cells = [f"{v},p={p}" for p in stages.PS for v in stages.VARIANTS]
    assert set(doc["stages"]) == set(stages.STAGES)
    assert set(doc["stages"]["sample_gnp"]) == {f"p={p}" for p in stages.PS}
    for stage in ("color", "validity", "repair"):
        assert set(doc["stages"][stage]) == set(cells)
    for by_cell in doc["stages"].values():
        for row in by_cell.values():
            assert len(row["values"]) == 5
            assert 0 < row["q1"] <= row["median"] <= row["q3"]
    assert set(doc["outputs"]) == set(cells)
    for key in ("cpu", "python", "numpy", "commit", "machine"):
        assert doc["environment"][key]

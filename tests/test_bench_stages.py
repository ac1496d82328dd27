"""bench/stages.py on a tiny grid: the BENCH document it writes, alone and
with --against."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from cliquechrom.coloring import BudgetExceeded, Coloring, exact_clique_chromatic_number
from cliquechrom.graph import sample_gnp
from cliquechrom.lowerbound import certify
from cliquechrom.params import build_schedule

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
    series = ((1e4, 0.3), (1e6, 0.3), (1e6, 0.45))
    path.write_text(json.dumps(stages.measure(n=1000, repeats=5, series_cells=series), indent=1) + "\n")
    doc = json.loads(path.read_text())
    cells = [f"{v},p={p}" for p in stages.PS for v in stages.VARIANTS]
    certify_cells = ["n=500,p=0.3", "n=2000,p=0.3", "n=400,p=0.9"]
    series_cells = ["n=10000,rho=0.3", "n=1e+06,rho=0.3", "n=1e+06,rho=0.45"]
    exact_cells = ["n=35,p=0.3", "n=35,p=0.7", "n=40,p=0.3", "n=40,p=0.7"]
    assert set(doc["stages"]) == set(stages.STAGES)
    assert set(doc["stages"]["sample_gnp"]) == {f"p={p}" for p in stages.PS}
    for stage in ("color", "validity", "repair"):
        assert set(doc["stages"][stage]) == set(cells)
    assert set(doc["stages"]["certify"]) == set(certify_cells)
    assert set(doc["stages"]["series"]) == set(series_cells)
    assert set(doc["stages"]["exact"]) == set(exact_cells)
    for by_cell in doc["stages"].values():
        for row in by_cell.values():
            assert len(row["values"]) == 5
            assert 0 < row["q1"] <= row["median"] <= row["q3"]
    assert set(doc["outputs"]) == set(cells) | set(certify_cells) | set(series_cells) | set(exact_cells)
    for cell in certify_cells:
        out = doc["outputs"][cell]
        assert set(out) == {"found", "method", "clique", "candidates_tested", "partition_attempts", "exhausted"}
        assert out["candidates_tested"] > 0
        assert out["found"] == (out["clique"] is not None) == (out["method"] is not None)
        assert not (out["found"] and out["exhausted"])
    # C+ answers the sparse cells, as in certify_sweep.
    assert doc["outputs"]["n=500,p=0.3"]["method"] == doc["outputs"]["n=2000,p=0.3"]["method"] == "sampled"
    rep = certify(sample_gnp(500, 0.3, stages.SEED), Coloring(tuple(1 + (v - 1) % 2 for v in range(1, 501))),
                  build_schedule(500, 0.3), stages.SEED, stages.CERTIFY_BUDGET, stages.CERTIFY_RELAX)
    assert doc["outputs"]["n=500,p=0.3"] == {
        "found": rep.found, "method": rep.method, "clique": sorted(rep.clique),
        "candidates_tested": rep.candidates_tested, "partition_attempts": rep.partition_attempts,
        "exhausted": rep.exhausted,
    }
    assert doc["grid"]["certify_cells"] == [[500, 0.3], [2000, 0.3], [400, 0.9]]
    assert doc["grid"]["series_cells"] == [list(cell) for cell in series]
    assert (1e12, 0.45) in stages.SERIES_CELLS
    for cell in series_cells:
        values = {name: float.fromhex(value) for name, value in doc["outputs"][cell].items()}
        assert values["lam"] == values["lambda0"] + (values["pi_invlog"] + 0.7)  # m = 1 at rho >= 0.3
        assert values["pi_alpha"] > 0.0
    assert doc["grid"]["exact_cells"] == [list(cell) for cell in stages.EXACT_CELLS]
    for en, ep in stages.EXACT_CELLS:
        try:
            value, witness = exact_clique_chromatic_number(sample_gnp(en, ep, stages.SEED), stages.EXACT_BUDGET)
            expected = {"value": value, "witness": list(witness.colors)}
        except BudgetExceeded as exc:
            expected = {"budget_exceeded": exc.nodes}
        assert doc["outputs"][f"n={en},p={ep}"] == expected
    for key in ("cpu", "python", "numpy", "commit", "machine"):
        assert doc["environment"][key]


def git_head():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=STAGES_PY.parent, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def head_with_worktree():
    """HEAD plus the uncommitted changes to tracked files, as a commit that no
    ref points at (`git stash create`); HEAD itself on a clean tree. Measured
    against it, the two trees hold the same sources even while a change that
    alters the outputs is not yet committed."""
    proc = subprocess.run(["git", "stash", "create"], cwd=STAGES_PY.parent, capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip() or git_head()


def test_against_head_times_both_trees_in_one_run():
    head = git_head()
    if head is None:
        pytest.skip("--against needs a git checkout")
    stages = load_stages()
    base = head_with_worktree()
    doc = stages.measure_against(base, n=1000, repeats=2, series_cells=((1e4, 0.3),))
    assert doc["trees"]["base"]["commit"] == base
    assert doc["trees"]["change"]["commit"] == head
    for tree in doc["trees"].values():
        assert len(tree["src_sha256"]) == 64
    cells = {stage: set(by_cell) for stage, by_cell in doc["stages"].items()}
    assert set(cells) == set(stages.STAGES)
    for key in ("stages", "base_stages", "ratios"):
        assert {stage: set(by_cell) for stage, by_cell in doc[key].items()} == cells
        for by_cell in doc[key].values():
            for row in by_cell.values():
                assert len(row["values"]) == 2 and row["median"] > 0
    ratio = doc["ratios"]["sample_gnp"]["p=0.1"]["values"]
    change = doc["stages"]["sample_gnp"]["p=0.1"]["values"]
    base = doc["base_stages"]["sample_gnp"]["p=0.1"]["values"]
    assert ratio == [c / b for c, b in zip(change, base)]


def test_against_fails_when_the_outputs_differ(monkeypatch):
    if git_head() is None:
        pytest.skip("--against needs a git checkout")
    stages = load_stages()
    real_repeat = stages._Child.repeat

    def repeat(child):
        times, outputs = real_repeat(child)
        if child.src != stages.ROOT / "src":
            outputs["A,p=0.1"]["palette"] += 1
        return times, outputs

    monkeypatch.setattr(stages._Child, "repeat", repeat)
    with pytest.raises(ValueError, match=r"A,p=0\.1"):
        stages.measure_against(head_with_worktree(), n=1000, repeats=1, series_cells=((1e4, 0.3),))

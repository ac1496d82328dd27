"""End-to-end CLI behavior and exit codes, and the package's exports."""

import ast
import importlib
import json
import math
import pkgutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cliquechrom
from cliquechrom.cli import main


def run(args):
    return main([str(a) for a in args])


def strict_json(text):
    """json.loads that rejects the non-standard NaN/Infinity literals."""

    def reject(literal):
        raise ValueError(f"non-standard JSON literal {literal}")

    return json.loads(text, parse_constant=reject)


class TestGenAndChromatic:
    def test_gen_then_exact(self, tmp_path, capsys):
        graph = tmp_path / "g.edges"
        assert run(["gen", "--n", 8, "--p", 0.4, "--seed", 3, "--out", graph]) == 0
        assert run(["chromatic", "--graph", graph]) == 0
        value = int(capsys.readouterr().out.strip().splitlines()[-1])
        assert value >= 1

    def test_chromatic_budget_exit_code(self, tmp_path):
        graph = tmp_path / "g.edges"
        run(["gen", "--n", 12, "--p", 0.5, "--seed", 1, "--out", graph])
        assert run(["chromatic", "--graph", graph, "--budget", 3]) == 2

    def test_chromatic_budget_bounds_the_clique_listing(self):
        # G(200, 0.7) has far more than 1000 maximal cliques; listing them
        # all would run for minutes before the search could count a node.
        proc = TestOutOfMemory.run_capped(
            ["chromatic", "--n", 200, "--p", 0.7, "--seed", 1, "--budget", 1000], timeout=30
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("budget exceeded: ") and "Traceback" not in proc.stderr

    def test_invalid_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("2 1\n1 1\n")
        assert run(["chromatic", "--graph", bad]) == 1


class TestValidate:
    def test_valid_and_invalid(self, tmp_path):
        graph = tmp_path / "g.edges"
        graph.write_text("3 3\n1 2\n1 3\n2 3\n")
        good = tmp_path / "good.colors"
        good.write_text("1 1\n2 1\n3 2\n")
        bad = tmp_path / "bad.colors"
        bad.write_text("1 1\n2 1\n3 1\n")
        assert run(["validate", "--graph", graph, "--coloring", good]) == 0
        assert run(["validate", "--graph", graph, "--coloring", bad]) == 1

    def test_limit_below_one_is_invalid_input(self, tmp_path, capsys):
        # A shortened offender list must never make a coloring look valid.
        graph = tmp_path / "g.edges"
        graph.write_text("3 3\n1 2\n1 3\n2 3\n")
        good = tmp_path / "good.colors"
        good.write_text("1 1\n2 1\n3 2\n")
        assert run(["validate", "--graph", graph, "--coloring", good, "--limit", 0]) == 1
        assert capsys.readouterr().err.startswith("error: limit must be at least 1")


class TestColor:
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_color_report_and_file(self, tmp_path, variant):
        out = tmp_path / "c.colors"
        report = tmp_path / "r.json"
        code = run(
            ["color", "--n", 150, "--p", 0.25, "--seed", 2, "--variant", variant,
             "--out", out, "--report", report]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["valid"] is True
        assert doc["palette_final"] <= doc["s"] + doc["z"] + 1 or variant == "B"
        assert len(out.read_text().splitlines()) == 150

    # one vertex is enough for variant A; variant B needs log n > 0
    @pytest.mark.parametrize("n, variant, code", [(0, "A", 1), (0, "B", 1), (1, "A", 0), (1, "B", 1)])
    def test_tiny_graphs_exit_cleanly(self, tmp_path, capsys, n, variant, code):
        graph = tmp_path / "tiny.edges"
        graph.write_text(f"{n} 0\n")
        assert run(["color", "--graph", graph, "--assume-p", 0.5, "--variant", variant]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") if code else err == ""

    def test_nan_is_written_as_a_string(self, tmp_path, capsys):
        graph = tmp_path / "one.edges"
        graph.write_text("1 0\n")
        assert run(["color", "--graph", graph, "--assume-p", 0.5, "--variant", "A"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["delta_raw"] == "nan"

    def test_colored_output_validates(self, tmp_path):
        graph = tmp_path / "g.edges"
        run(["gen", "--n", 120, "--p", 0.3, "--seed", 9, "--out", graph])
        colors = tmp_path / "c.colors"
        assert run(
            ["color", "--graph", graph, "--assume-p", 0.3, "--out", colors]
        ) == 0
        assert run(["validate", "--graph", graph, "--coloring", colors]) == 0


class TestCertify:
    def test_certificate_on_coarse_coloring(self, tmp_path):
        graph = tmp_path / "g.edges"
        run(["gen", "--n", 200, "--p", 0.3, "--seed", 4, "--out", graph])
        colors = tmp_path / "c.colors"
        colors.write_text("".join(f"{v} {1 + v % 2}\n" for v in range(1, 201)))
        report = tmp_path / "cert.json"
        code = run(
            ["certify", "--graph", graph, "--coloring", colors, "--assume-p", 0.3,
             "--relax", 0.25, "--report", report]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["found"] is True and doc["validated"] is True

    def test_spent_budget_exits_2(self, tmp_path):
        # The fallback search over the odd vertices of G(400, 0.9) would walk
        # every clique of up to max(k, 6) of them; the budget stops it.
        proc = TestOutOfMemory.run_capped(
            ["certify", "--n", 400, "--p", 0.9, "--seed", 1, "--coloring", odd_even(tmp_path, 400),
             "--relax", 0.25, "--budget", 1000], timeout=30,
        )
        assert proc.returncode == 2 and proc.stderr == ""
        doc = strict_json(proc.stdout)
        assert doc["exhausted"] is True and doc["found"] is False
        assert doc["candidates_tested"] == 1000


def odd_even(directory, n):
    """Write a colouring file of n vertices: odd vertices 2, even ones 1."""
    path = directory / "odd_even.colors"
    path.write_text("".join(f"{v} {1 + v % 2}\n" for v in range(1, n + 1)))
    return path


@pytest.mark.parametrize("args", [
    ["color", "--n", 100, "--p", 0.2, "--seed", 12, "--variant", "B", "--repair-budget", -1],
    ["chromatic", "--n", 12, "--p", 0.5, "--seed", 1, "--budget", -5],
    ["certify", "--n", 40, "--p", 0.3, "--seed", 1, "--coloring", None, "--budget", -1],
], ids=["color", "chromatic", "certify"])
def test_budget_below_zero_is_invalid_input(args, tmp_path, capsys):
    args = [odd_even(tmp_path, 40) if a is None else a for a in args]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget must be >= 0" in err


class TestParams:
    def test_json_shape(self, tmp_path):
        report = tmp_path / "params.json"
        assert run(["params", "--n", 1e4, "--p", 0.2, "--report", report]) == 0
        doc = json.loads(report.read_text())
        # rho = log(5)/log(1e4) = 0.1747, so k = ceil(1/rho + 1/2) = 7
        assert doc["schedule"]["m"] == 1 and doc["schedule"]["k"] == 7
        assert "counting_margin" in doc["inequalities"]["flags"]

    def test_infinities_are_written_as_strings(self, capsys):
        # rho = 0.45 makes ell0 negative: the density series reads -inf/+inf
        assert run(["params", "--n", 1e6, "--rho", 0.45]) == 0
        values = strict_json(capsys.readouterr().out)["inequalities"]["values"]
        assert (values["density_series_lhs"], values["density_series_rhs"]) == ("-inf", "inf")

    @pytest.mark.parametrize("n", ["1e400", "nan"])
    def test_non_finite_n_is_invalid_input(self, capsys, n):
        assert run(["params", "--n", n, "--p", 0.5]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n must be finite") and "Traceback" not in err

    def test_tiny_p_reports_series_errors(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["params", "--n", 10, "--p", 1e-308]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert "overflows float64" in doc["lambda"]["error"]
        assert "overflows float64" in doc["inequalities"]["error"]

    def test_rho_flag(self, tmp_path, capsys):
        assert run(["params", "--n", 1000, "--rho", 0.35]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schedule"]["k"] == 3


class TestSweepCompare:
    def test_sweep_then_compare(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "n": [40, 60], "p": [0.3], "trials": 2, "master_seed": 11,
        }))
        out = tmp_path / "records.csv"
        report = tmp_path / "sweep.json"
        assert run(["sweep", "--config", cfg, "--out", out, "--report", report]) == 0
        assert len(out.read_text().splitlines()) == 5  # header + 4 records
        doc = json.loads(report.read_text())
        assert len(doc["trials"]) == 4 and "wall_time" in doc["trials"][0]
        capsys.readouterr()
        assert run(["compare", "--records", out]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("n\tp\tproc")

    def test_sweep_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "n": [50], "p": [0.2], "trials": 3, "master_seed": 5,
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--config", cfg, "--out", a])
        run(["sweep", "--config", cfg, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_spent_certify_budget_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "n": [60], "p": [0.3], "procedures": ["certify"], "trials": 2,
            "relax": 0.25, "certify_budget": 0,
        }))
        out = tmp_path / "x.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 2
        assert out.read_text().count("budget exhausted in certify") == 2

    def test_bad_config_is_invalid_input(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "n": [], "p": [0.2]}))
        assert run(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_n_below_two_is_invalid_input(self, tmp_path, capsys, n):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "n": [n], "p": [0.5]}))
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: every n must be >= 2") and "Traceback" not in err

    def test_n_two_sweeps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1, "n": [2], "p": [0.5], "procedures": ["A", "B"],
        }))
        out = tmp_path / "x.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 3


class TestOutOfMemory:
    """Requests too large for memory are invalid input. Each command runs in
    a child whose address space is capped at 2 GB, so the test never touches
    large memory whatever the host's overcommit policy."""

    @staticmethod
    def run_capped(args, timeout=120):
        resource = pytest.importorskip("resource")
        limit = 2 * 1024**3

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(cliquechrom.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "cliquechrom.cli", *map(str, args)],
            capture_output=True, text=True, timeout=timeout, preexec_fn=cap,
            env={"PYTHONPATH": src, "PATH": ""},
        )

    def check_invalid(self, proc):
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_gen_beyond_memory(self):
        # the packed adjacency alone would be 466 GiB
        self.check_invalid(self.run_capped(["gen", "--n", 2_000_000, "--p", 0.5]))

    def test_validate_huge_header(self, tmp_path):
        graph = tmp_path / "huge.edges"
        graph.write_text("100000000000 0\n")
        colors = tmp_path / "c.colors"
        colors.write_text("1 1\n")
        proc = self.run_capped(["validate", "--graph", graph, "--coloring", colors])
        self.check_invalid(proc)
        assert proc.stderr == "error: MemoryError\n"


def exit_code(args):
    """The exit code of `cliquechrom ARGS` run in-process. argparse's usage
    errors raise SystemExit(2); SystemExit with a message exits 1."""
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)


# p near 0, near 1, in between, and just outside [0, 1]
PROBABILITIES = st.one_of(
    st.floats(min_value=1.0, max_value=40.0).map(lambda e: 10.0**-e),
    st.floats(min_value=1.0, max_value=17.0).map(lambda e: 1.0 - 10.0**-e),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0, -0.5, 1.5]),
)


class TestExitCodes:
    """Every command exits 0, 1 or 2, and no exception but SystemExit escapes."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.floats(min_value=math.log10(3), max_value=6.0).map(lambda e: 10.0**e),
        p=PROBABILITIES,
        epsilon=st.one_of(
            st.sampled_from([0.0, -1.0, 1.0, 1e300, math.nan, math.inf, -math.inf]),
            st.floats(min_value=-2.0, max_value=2.0),
        ),
    )
    def test_params(self, n, p, epsilon):
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "params.json"
            args = ["params", "--n", repr(n), "--p", repr(p), f"--epsilon={epsilon!r}", "--report", report]
            assert exit_code(args) in (0, 1, 2)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=-1, max_value=12),
        p=PROBABILITIES,
        seed=st.integers(min_value=-1, max_value=2**32),
        budget=st.integers(min_value=-1, max_value=200),
        colors=st.lists(st.integers(min_value=0, max_value=3), max_size=13),
        epsilon=st.sampled_from([None, 0.0, 0.05, -1.0, math.nan]),
    )
    def test_graph_commands(self, n, p, seed, budget, colors, epsilon):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            graph, coloring, report = tmp / "g.edges", tmp / "c.colors", tmp / "r.json"
            coloring.write_text("".join(f"{v} {c}\n" for v, c in enumerate(colors, start=1)))
            sampled = ["--n", n, "--p", repr(p), "--seed", seed]
            runs = [
                ["gen", *sampled, "--out", graph],
                ["chromatic", "--graph", graph, "--budget", budget],
                ["chromatic", *sampled, "--budget", budget],
                ["validate", "--graph", graph, "--coloring", coloring, "--report", report],
                ["validate", *sampled, "--coloring", coloring, "--report", report],
            ]
            for variant in "AB":
                extra = [] if epsilon is None else [f"--epsilon={epsilon!r}"]
                runs.append(["color", *sampled, "--variant", variant, "--repair-budget", budget,
                             "--report", report, "--out", tmp / "out.colors", *extra])
            for args in runs:
                assert exit_code(args) in (0, 1, 2), args


def test_every_export_resolves():
    """Each module's __all__ and each name the package re-exports is defined."""
    for info in pkgutil.iter_modules(cliquechrom.__path__):
        module = importlib.import_module(f"cliquechrom.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    tree = ast.parse(Path(cliquechrom.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"cliquechrom.{node.module}")
        for alias in node.names:
            assert hasattr(source, alias.name), (node.module, alias.name)
            assert getattr(cliquechrom, alias.asname or alias.name) is getattr(source, alias.name)

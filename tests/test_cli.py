import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schrodingerize import cli, oracle
from schrodingerize.cli import load_config, main, run, sweep, validate_summary
from schrodingerize.cli import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def heat_config(tmp_path, out="out", **overrides):
    payload = {
        "experiment": "heat",
        "resolution": {"M": 64, "N": 256, "L": 12.0},
        "physics": {"t": 0.1, "initial_condition": "1 + cos(pi*x)"},
        "output": {"directory": str(tmp_path / out), "formats": ["json", "csv"]},
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


def general_config(tmp_path, out="out"):
    # symmetric imaginary part: Hbar != 0, so every mode has its own block
    payload = {
        "experiment": "general",
        "resolution": {"N": 64, "L": 12.0},
        "physics": {
            "matrix": {"real": [[1.0, 0.3], [0.3, 0.8]], "imag": [[0.2, 0.5], [0.5, -0.4]]},
            "u0": {"real": [1.0, 0.5]},
            "t": 0.5,
        },
        "output": {"directory": str(tmp_path / out)},
    }
    return write_config(tmp_path, payload)


def transport_config(tmp_path, out="out", initial_condition=None):
    payload = {
        "experiment": "transport",
        "resolution": {"J": 8, "K": 8, "N": 32, "L": 8.0},
        "physics": {"t": 0.5, "sigma": {"kind": "constant", "value": 1.0}},
        "output": {"directory": str(tmp_path / out)},
    }
    if initial_condition is not None:
        payload["physics"]["initial_condition"] = initial_condition
    return write_config(tmp_path, payload)


class TestLoadConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(heat_config(tmp_path))
        assert cfg.experiment == "heat"
        assert cfg.res("M") == 64

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_json_error_is_line_referenced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiment": "heat",\n  broken\n}')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(path)

    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "weather"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_odd_resolution_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"experiment": "heat", "resolution": {"M": 63, "N": 256}}
        )
        with pytest.raises(ConfigError, match="resolution.M must be even and >= 2"):
            load_config(path)

    @pytest.mark.parametrize("section", ["resolution", "physics", "output", "tolerance"])
    @pytest.mark.parametrize("value", [16, [1, 2], "tight", None])
    def test_non_object_section_exits_2(self, tmp_path, capsys, section, value):
        path = write_config(tmp_path, {"experiment": "heat", section: value})
        assert run(path) == 2
        assert f"{section} must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tol",
        ["tight", None, True, [1e-3], -1e-3, float("nan"), float("inf"), 10**400],
        ids=["text", "null", "bool", "list", "negative", "nan", "inf", "huge-int"],
    )
    def test_bad_tolerance_exits_2_before_the_run(self, tmp_path, capsys, tol):
        path = heat_config(tmp_path, tolerance={"l2_relative_error": tol})
        assert run(path) == 2
        assert "l2_relative_error must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", [0, 1, 0.5])
    def test_numeric_tolerance_accepted(self, tmp_path, tol):
        path = heat_config(tmp_path, tolerance={"l2_relative_error": tol})
        assert load_config(path).tolerance["l2_relative_error"] == tol


class TestRun:
    def test_heat_run_success(self, tmp_path):
        code = run(heat_config(tmp_path))
        assert code == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert validate_summary(summary) == []
        assert summary["status"] == "ok"
        assert summary["results"]["l2_relative_error"] < 1e-3
        csv_lines = (out / "solution.csv").read_text().splitlines()
        assert csv_lines[0] == "x,re,im,ref_re,ref_im,abs_error"
        assert len(csv_lines) == 65

    def test_exit_code_2_on_odd_m(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "heat",
                "resolution": {"M": 63, "N": 256},
                "output": {"directory": str(tmp_path / "o")},
            },
        )
        assert run(path) == 2

    def test_exit_code_3_on_tolerance(self, tmp_path):
        path = heat_config(tmp_path, tolerance={"l2_relative_error": 1e-12})
        assert run(path) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "tolerance_exceeded"
        assert validate_summary(summary) == []

    def test_resource_limit_exits_3_with_error_status(self, tmp_path, monkeypatch):
        # a potential sends the reference through the dense matrix exponential
        monkeypatch.setattr(oracle, "EXPM_DENSE_LIMIT", 8)
        path = heat_config(
            tmp_path, resolution={"M": 16, "N": 64, "L": 12.0},
            physics={"t": 0.1, "potential": "1 + 0.5*cos(pi*x)"},
        )
        assert run(path) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert "capped at dimension 8" in summary["error"]
        assert validate_summary(summary) == []
        assert not (tmp_path / "out" / "solution.csv").exists()

    def test_gibbs_run(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "gibbs",
                "physics": {"matrix": [[0.0, 0.0], [0.0, 1.0]], "beta": 1.0},
                "output": {"directory": str(tmp_path / "g")},
            },
        )
        assert run(path) == 0
        summary = json.loads((tmp_path / "g" / "summary.json").read_text())
        assert summary["results"]["trace_distance"] < 1e-6
        assert validate_summary(summary) == []

    def test_general_run(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "general",
                "resolution": {"N": 256, "L": 12.0},
                "physics": {
                    "matrix": {
                        "real": [[1.0, 0.3], [0.3, 0.8]],
                        "imag": [[0.0, 0.5], [-0.5, 0.0]],
                    },
                    "u0": {"real": [1.0, 0.5]},
                    "t": 0.5,
                },
                "output": {"directory": str(tmp_path / "gen")},
            },
        )
        assert run(path) == 0
        summary = json.loads((tmp_path / "gen" / "summary.json").read_text())
        assert summary["results"]["l2_relative_error"] < 1e-3

    def test_transport_run(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "transport",
                "resolution": {"J": 8, "K": 8, "N": 32, "L": 8.0},
                "physics": {"t": 0.5, "sigma": {"kind": "constant", "value": 1.0}},
                "output": {"directory": str(tmp_path / "tr")},
            },
        )
        assert run(path) == 0
        summary = json.loads((tmp_path / "tr" / "summary.json").read_text())
        assert summary["results"]["l2_relative_error"] < 5e-2
        assert "mass" in summary["results"]["moments"]

    def test_transport_n_alone_keeps_convection_half_width(self, tmp_path):
        # L is left to the transport rule max(8, t*lambda_max + 4), not a fixed 8
        path = write_config(
            tmp_path,
            {
                "experiment": "transport",
                "resolution": {"J": 8, "K": 8, "N": 64},
                "physics": {"t": 10.0},
                "output": {"directory": str(tmp_path / "trn")},
            },
        )
        assert run(path) == 0

    def test_ground_state_run(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "ground_state",
                "physics": {
                    "matrix": [[0.0, 0.0], [0.0, 1.0]],
                    "u0": [0.7071067811865476, 0.7071067811865476],
                    "epsilon": 0.01,
                },
                "output": {"directory": str(tmp_path / "gs")},
            },
        )
        assert run(path) == 0
        summary = json.loads((tmp_path / "gs" / "summary.json").read_text())
        assert summary["results"]["fidelity"] >= 0.99

    def test_cost_run(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "cost",
                "physics": {"s": 2, "t": 1, "max_norm": 1, "epsilon": 0.01, "m_h": 4},
                "output": {"directory": str(tmp_path / "c")},
            },
        )
        assert run(path) == 0
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert summary["results"]["cost"]["queries"] == pytest.approx(5.210, abs=1e-3)


NAN, INF = float("nan"), float("inf")
NON_FINITE = {
    "heat-initial-condition": ("heat", {"initial_condition": "x/0"}, "physics.initial_condition"),
    "heat-potential": ("heat", {"potential": "1/(x-x)"}, "physics.potential"),
    "heat-overflow": ("heat", {"initial_condition": "exp(1000*x)"}, "physics.initial_condition"),
    "heat-t": ("heat", {"t": NAN}, "physics.t"),
    "general-matrix": ("general", {"matrix": {"real": [[1.0, NAN], [0.0, 1.0]]}}, "physics.matrix"),
    "general-u0": (
        "general", {"matrix": [[1.0, 0.0], [0.0, 1.0]], "u0": [INF, 0.0]}, "physics.u0"
    ),
    "ground-state-matrix": (
        "ground_state", {"matrix": [[0.0, 1.0], [1.0, NAN]]}, "physics.matrix"
    ),
    "gibbs-beta": ("gibbs", {"matrix": [[0.0, 1.0], [1.0, 2.0]], "beta": INF}, "physics.beta"),
    "transport-initial-condition": (
        "transport", {"initial_condition": "1/(k-k)"}, "physics.initial_condition"
    ),
    "transport-sigma": (
        "transport", {"sigma": {"kind": "constant", "value": INF}}, "physics.sigma.value"
    ),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "experiment, physics, field", NON_FINITE.values(), ids=NON_FINITE.keys()
    )
    def test_refused_by_field_before_the_run(
        self, tmp_path, capsys, monkeypatch, experiment, physics, field
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started on non-finite input")

        for name in ("run_heat", "run_transport", "prepare_ground_state", "prepare_gibbs"):
            monkeypatch.setattr(cli.apps, name, no_run)
        monkeypatch.setattr(cli, "schrodingerize_evolve", no_run)
        payload = {
            "experiment": experiment,
            "resolution": {"M": 8, "J": 4, "K": 4, "N": 16},
            "physics": physics,
            "output": {"directory": str(tmp_path / "out")},
        }
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [INF, NAN], ids=["inf", "nan"])
    def test_half_width_refused_in_config_and_sweep(self, tmp_path, capsys, value):
        resolution = {"M": 8, "N": 16, "L": value}
        assert run(heat_config(tmp_path, resolution=resolution)) == 2
        assert "resolution.L must be finite" in capsys.readouterr().err
        args = ["sweep", str(heat_config(tmp_path)), "--axis", "L", "--values", str(value)]
        assert main(args) == 2
        assert "resolution.L must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPricing:
    @pytest.mark.parametrize(
        "make_config, prefix", [(heat_config, "u"), (general_config, "u"), (transport_config, "w")]
    )
    def test_cost_priced_by_recovered_norm_ratio(self, tmp_path, make_config, prefix):
        # one rule for every lifted run: |u(0)| / |u_recovered|
        assert run(make_config(tmp_path)) == 0
        results = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]
        norms = results["norms"]
        expected = norms[f"{prefix}_initial"] / norms[f"{prefix}_recovered"]
        assert results["cost"]["norm_ratio"] == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestDeterminism:
    @pytest.mark.parametrize(
        "make_config, pools_expected",
        [(heat_config, []), (general_config, [8]), (transport_config, [8])],
        ids=["heat", "general", "transport"],
    )
    def test_byte_identical_across_thread_counts(
        self, tmp_path, monkeypatch, make_config, pools_expected
    ):
        # heat has Hbar = 0 and shares one eigenbasis, so no pool starts;
        # general and transport must reach the pool with SCHRO_THREADS workers
        from schrodingerize import pipeline

        pools = []
        pool_class = pipeline.ThreadPoolExecutor

        def recording_pool(max_workers=None, **kwargs):
            pools.append(max_workers)
            return pool_class(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", recording_pool)
        outputs = {}
        for threads in ("1", "8"):
            monkeypatch.setenv("SCHRO_THREADS", threads)
            out = f"out{threads}"
            assert run(make_config(tmp_path, out=out)) == 0
            outputs[threads] = (tmp_path / out / "solution.csv").read_bytes()
        assert outputs["1"] == outputs["8"]
        assert pools == pools_expected

    def test_byte_identical_on_repeat(self, tmp_path):
        assert run(heat_config(tmp_path, out="a")) == 0
        assert run(heat_config(tmp_path, out="b")) == 0
        assert (tmp_path / "a" / "solution.csv").read_bytes() == (
            tmp_path / "b" / "solution.csv"
        ).read_bytes()


def _python_eval(expr, names):
    # the former evaluator, kept as the reference for trusted expressions
    env = dict(cli._SAFE_FUNCS)
    env.update(names)
    return np.asarray(eval(expr, {"__builtins__": {}}, env))  # noqa: S307


class TestExpressions:
    @pytest.mark.parametrize(
        "expr", ["().__class__.__base__.__subclasses__()", "x.__class__"]
    )
    def test_attribute_access_exits_2(self, tmp_path, expr):
        physics = {"t": 0.1, "initial_condition": expr}
        assert run(heat_config(tmp_path, physics=physics)) == 2
        assert not (tmp_path / "out" / "solution.csv").exists()

    @pytest.mark.parametrize(
        "expr",
        ["__import__('os')", "[x]", "x[0]", "cos(x, out=x)", "pi(x)", "y", "'1'", "True"],
    )
    def test_outside_the_grammar_rejected(self, expr):
        with pytest.raises(ConfigError):
            cli._eval_expression(expr, {"x": np.zeros(2)})

    def test_huge_integer_power_rejected(self):
        with pytest.raises(ConfigError, match="too large"):
            cli._eval_expression("2**10**10", {})

    @pytest.mark.parametrize(
        "physics",
        [
            {"t": 0.1, "initial_condition": "1 + cos(pi*x)"},
            {"t": 0.1},
            {
                "t": 0.1,
                "initial_condition": "1.5 + 0.31*cos(1*pi*x + 0.7) + 0.42*cos(2*pi*x + 2.1)",
            },
            # t*lambda_max = 10.1 < L = 12: the kink of sqrt(abs(x)) puts 2.3%
            # of |u0| on modes that convect past L by t = 0.1, which warns
            {
                "t": 0.001,
                "initial_condition": "exp(-x**2/0.5) + sqrt(abs(x)) - +2**-1 + e/3",
                "potential": "1 + 0.5*cos(pi*x) - sin(pi*x)**2 + tan(0.1*x)",
            },
        ],
        ids=["readme", "default", "benchmark", "operators"],
    )
    def test_heat_output_identical_to_python_eval(self, tmp_path, monkeypatch, physics):
        run(heat_config(tmp_path, out="ast", physics=physics))
        monkeypatch.setattr(cli, "_eval_expression", _python_eval)
        run(heat_config(tmp_path, out="eval", physics=physics))
        assert (tmp_path / "ast" / "solution.csv").read_bytes() == (
            tmp_path / "eval" / "solution.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "expr", [None, "1 + 0.35*cos(pi*x + 1.3) + 0.25*cos(pi*k)"], ids=["default", "benchmark"]
    )
    def test_transport_output_identical_to_python_eval(self, tmp_path, monkeypatch, expr):
        run(transport_config(tmp_path, out="ast", initial_condition=expr))
        monkeypatch.setattr(cli, "_eval_expression", _python_eval)
        run(transport_config(tmp_path, out="eval", initial_condition=expr))
        assert (tmp_path / "ast" / "solution.csv").read_bytes() == (
            tmp_path / "eval" / "solution.csv"
        ).read_bytes()


class TestSweep:
    def test_heat_sweep_errors_decrease(self, tmp_path):
        path = heat_config(tmp_path)
        assert sweep(path, "N", [64, 128, 256]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,l2_relative_error,success_probability,queries"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert errs[0] > errs[1] > errs[2]
        assert (tmp_path / "out" / "N=64" / "summary.json").exists()

    def test_sweep_t_probability_nonincreasing(self, tmp_path):
        path = heat_config(tmp_path)
        assert sweep(path, "t", [0.0, 0.1, 0.2]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        probs = [float(line.split(",")[2]) for line in lines[1:]]
        assert probs[0] >= probs[1] >= probs[2]

    def test_ground_state_sweep_over_n_changes_the_grid(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "ground_state",
                "physics": {"matrix": [[0.0, 0.0], [0.0, 1.0]], "u0": [0.6, 0.8]},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert sweep(path, "N", [64, 4096]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[1] != lines[2].split(",")[1]
        for n in (64, 4096):
            summary = json.loads((tmp_path / "out" / f"N={n}" / "summary.json").read_text())
            # the cost model's register holds the dimension times the N modes
            assert summary["results"]["cost"]["qubit_count"] == pytest.approx(np.log2(2 * n))

    def test_close_values_keep_their_own_directories(self, tmp_path):
        # both values print as 12 in the short g form
        values = [12.0000001, 12.0000002]
        assert sweep(heat_config(tmp_path), "L", values) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "L=12.0000001", "L=12.0000002", "sweep.csv"
        ]
        for value in values:
            summary = json.loads((out / f"L={value!r}" / "summary.json").read_text())
            assert summary["config"]["resolution"]["L"] == value

    def test_empty_values_exit_2(self, tmp_path):
        assert sweep(heat_config(tmp_path), "N", []) == 2

    def test_unknown_axis_exit_2(self, tmp_path):
        assert sweep(heat_config(tmp_path), "banana", [1.0]) == 2

    @pytest.mark.parametrize(
        "axis, values", [("M", "16,20.5"), ("N", "100.7"), ("M", "16,15"), ("J", "0")]
    )
    def test_bad_grid_size_exits_2_before_any_run(self, tmp_path, capsys, axis, values):
        cfg = heat_config(tmp_path) if axis != "J" else transport_config(tmp_path)
        assert main(["sweep", str(cfg), "--axis", axis, "--values", values]) == 2
        assert f"resolution.{axis} must be even and >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMainEntry:
    def test_main_run(self, tmp_path):
        assert main(["run", str(heat_config(tmp_path))]) == 0

    def test_main_sweep_bad_values(self, tmp_path):
        assert main(["sweep", str(heat_config(tmp_path)), "--axis", "N", "--values", "x,y"]) == 2

    def test_module_invocation(self, tmp_path):
        cfg = heat_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "schrodingerize", "run", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_scipy_sparse_unloaded(self):
        code = "import sys, schrodingerize; print('scipy.sparse' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_shipped_schema_agrees_with_validator(self, tmp_path):
        schema_path = Path(__file__).resolve().parents[1] / "docs" / "schemas" / "summary.schema.json"
        schema = json.loads(schema_path.read_text())
        assert set(schema["required"]) == {
            "schema_version", "experiment", "config", "results", "status",
        }
        assert run(heat_config(tmp_path)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for key in schema["required"]:
            assert key in summary
        assert summary["status"] in schema["properties"]["status"]["enum"]
        assert summary["experiment"] in schema["properties"]["experiment"]["enum"]

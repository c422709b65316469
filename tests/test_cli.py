import hashlib
import json
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodingerize import TransportModel, cli, core, find_stationary_transport, make_grid
from schrodingerize.cli import load_config, main, run, sweep, validate_summary
from schrodingerize.cli import ConfigError


# Runs every config path given after the source directory with SciPy's
# import made to fail, then a stationary transport search; prints the exit
# codes and whether the search converged.
_SCIPY_BLOCKED_RUNS = """
import json, sys
sys.modules["scipy"] = None
src, configs = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
import numpy as np
from schrodingerize import TransportModel, cli, find_stationary_transport, make_grid
codes = [cli.run(path) for path in configs]
grid = make_grid(1.0, 4)
model = TransportModel.create([grid], [grid], np.full((4, 4), 0.5))
_, _, converged = find_stationary_transport(model, np.ones((4, 4)), leg=1.0, tol=1e-6)
print(json.dumps({"codes": codes, "converged": converged}))
"""


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def heat_config(tmp_path, out="out", **overrides):
    payload = {
        "experiment": "heat",
        "resolution": {"M": 64, "N": 256, "L": 12.0},
        "physics": {"t": 0.1, "initial_condition": "1 + cos(pi*x)"},
        "output": {"directory": str(tmp_path / out)},
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


def large_general_config(tmp_path, out="out", dim=9):
    # a dim x dim non-Hermitian A: 81 entries at dim 9, past the echo's cap
    a = [[1.0 if j == i else 0.5 if j == i + 1 else 0.0 for j in range(dim)] for i in range(dim)]
    payload = {
        "experiment": "general",
        "resolution": {"N": 64, "L": 12.0},
        "physics": {"matrix": a, "t": 0.5},
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

    def test_physics_echoed_as_loaded(self, tmp_path):
        # the summary echoes the physics section as json.loads returned it;
        # a key that no runner reads keeps a non-finite value with its sign
        path = general_config(tmp_path)
        payload = json.loads(path.read_text())
        payload["physics"]["note"] = [-INF, INF]
        path.write_text(json.dumps(payload))
        assert run(path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["physics"] == load_config(path).physics
        assert summary["config"]["physics"]["note"] == [-INF, INF]

    def test_non_finite_results_keep_their_values_and_signs(self, tmp_path, monkeypatch):
        # Python and NumPy floats, alone or in an array, are all written as
        # JSON's Infinity, -Infinity and NaN tokens
        def runner(cfg):
            return [], None, None, {
                "l2_relative_error": 0.0,
                "python": float("-inf"),
                "numpy": np.float64("inf"),
                "array": np.array([np.nan, -np.inf]),
            }

        monkeypatch.setitem(cli._RUNNERS, "cost", runner)
        output = {"directory": str(tmp_path / "c")}
        path = write_config(tmp_path, {"experiment": "cost", "output": output})
        assert run(path) == 0
        results = json.loads((tmp_path / "c" / "summary.json").read_text())["results"]
        assert results["python"] == -INF
        assert results["numpy"] == INF
        assert np.isnan(results["array"][0]) and results["array"][1] == -INF

    def test_parity_ratio_at_zero_scattering_is_infinity(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "cost",
                "resolution": {"J": 4, "K": 4},
                "physics": {"sigma": {"kind": "constant", "value": 0.0}},
                "output": {"directory": str(tmp_path / "c")},
            },
        )
        assert run(path) == 0
        text = (tmp_path / "c" / "summary.json").read_text()
        assert '"ratio": Infinity' in text
        assert json.loads(text)["results"]["transport_parity"]["ratio"] == INF

    def test_exit_code_3_on_tolerance(self, tmp_path):
        path = heat_config(tmp_path, tolerance={"l2_relative_error": 1e-12})
        assert run(path) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "tolerance_exceeded"
        assert validate_summary(summary) == []

    def test_resource_limit_exits_3_with_error_status(self, tmp_path, monkeypatch):
        # a potential sends the reference through the dense matrix exponential
        monkeypatch.setattr(core, "EXPM_DENSE_LIMIT", 8)
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

    def test_heat_with_potential_past_the_dense_cap_exits_3_before_assembling(self, tmp_path):
        # M = 4098 > EXPM_DENSE_LIMIT: the reference could never run, so the
        # dense H, its eigh and the lifted run are skipped (12.8 s, 956 MiB)
        path = heat_config(
            tmp_path, resolution={"M": 4098, "N": 64, "L": 12.0},
            physics={"t": 0.1, "potential": "1 + x*x"},
        )
        start = time.perf_counter()
        assert run(path) == 3
        assert time.perf_counter() - start < 2.0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert "capped at dimension 4096, got 4098" in summary["error"]
        assert validate_summary(summary) == []

    @pytest.mark.parametrize(
        "experiment, physics",
        [
            ("ground_state", {"matrix": [[0.0, 0.3], [0.3, 1.0]], "epsilon": 0.01}),
            ("gibbs", {"matrix": [[0.0, 0.3], [0.3, 1.0]]}),
            ("general", {"matrix": [[1.0, 0.3], [0.3, 0.8]], "t": 0.5}),
            ("heat", {"t": 0.1}),
        ],
    )
    def test_oversize_grid_exits_3_before_allocating(self, tmp_path, experiment, physics):
        # 2**34 auxiliary modes would need terabytes; the estimate refuses
        # them before any O(N) array exists
        path = write_config(
            tmp_path,
            {
                "experiment": experiment,
                "resolution": {"N": 2**34},
                "physics": physics,
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        tracemalloc.start()
        try:
            code = run(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 2**20
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert "17179869184 auxiliary modes" in summary["error"]
        assert "MiB cap" in summary["error"]
        assert not (tmp_path / "out" / "solution.csv").exists()

    def test_oversize_transport_model_exits_3_before_building_the_pair(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built the transport pair before the byte check")

        monkeypatch.setattr(TransportModel, "hermitian_pair", refuse)
        path = write_config(
            tmp_path,
            {
                "experiment": "transport",
                "resolution": {"J": 64, "K": 1024},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert run(path) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert "MiB cap" in summary["error"]
        assert validate_summary(summary) == []
        assert not (tmp_path / "out" / "solution.csv").exists()

    def test_oversize_transport_config_refused_from_its_counts(self, tmp_path, traced_peak):
        # J = 4, K = 4096: the pair build needs 4.5 GiB; refused from (J, K)
        # before the K x K sigma (128 MiB) and the model are built
        path = write_config(
            tmp_path,
            {
                "experiment": "transport",
                "resolution": {"J": 4, "K": 4096},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        codes = []
        assert traced_peak(lambda: codes.append(run(path)), warm=False) < 16 * 2**20
        assert codes == [3]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["error"].startswith(
            "the pair build of 4 spatial frequencies and 4096 velocities needs about 4608 MiB"
        )

    def test_general_with_a_refused_reference_exits_3_before_the_run(self, tmp_path, monkeypatch):
        # the cap set below the Pade working set of the 2 x 2 non-Hermitian
        # A: the reference is refused, and the lifted run never starts
        def no_run(*args, **kwargs):
            raise AssertionError("the lifted run started before the reference")

        monkeypatch.setattr(core, "ARRAY_BYTES_LIMIT", 256)
        monkeypatch.setattr(cli, "schrodingerize_evolve", no_run)
        assert run(general_config(tmp_path)) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert "Pade exponential" in summary["error"] and "MiB cap" in summary["error"]
        assert validate_summary(summary) == []
        assert not (tmp_path / "out" / "solution.csv").exists()

    def test_general_past_the_work_cap_exits_3_before_the_lifted_run(self, tmp_path):
        # a 128 x 128 non-Hermitian A on 65,536 modes: every phase fits the
        # byte cap (the lifted run about 393 MiB), but the run would take
        # 65,536 decompositions of 128 x 128, twice the work of one at 4096
        n = 128
        matrix = np.eye(n) + 0.5 * np.eye(n, k=1)
        path = write_config(
            tmp_path,
            {
                "experiment": "general",
                "resolution": {"N": 65536},
                "physics": {"matrix": matrix.tolist()},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        start = time.perf_counter()
        assert run(path) == 3
        assert time.perf_counter() - start < 5.0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"].startswith("a lifted run of 65536 auxiliary modes over 128 rows")
        assert "capped at dimension 4096, got 5161" in summary["error"]
        assert not (tmp_path / "out" / "solution.csv").exists()

    @pytest.mark.parametrize(
        "error",
        [
            obj for obj in vars(core).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and not issubclass(obj, Warning) and obj.__module__ == core.__name__
        ],
        ids=lambda error: error.__name__,
    )
    def test_every_package_error_has_its_exit_code(self, tmp_path, monkeypatch, capsys, error):
        # a package error class that _execute does not catch fails here
        def failing(cfg):
            raise error("raised by the runner")

        monkeypatch.setitem(cli._RUNNERS, "heat", failing)
        code = run(heat_config(tmp_path))
        if issubclass(error, ValueError):
            assert code == 2
            assert "raised by the runner" in capsys.readouterr().err
        else:
            assert issubclass(error, RuntimeError)
            assert code == 3
            summary = json.loads((tmp_path / "out" / "summary.json").read_text())
            assert summary["status"] == "error"
            assert summary["error"] == "raised by the runner"

    def test_solver_error_exits_3_with_error_status(self, tmp_path, monkeypatch):
        # LinAlgError subclasses ValueError, which maps to a config error
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        payload = {
            "experiment": "ground_state",
            "physics": {"matrix": [[0.0, 0.4], [0.4, 1.5]]},
            "output": {"directory": str(tmp_path / "out")},
        }
        assert run(write_config(tmp_path, payload)) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert summary["error"] == "Eigenvalues did not converge"
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
        results = summary["results"]
        assert results["fidelity"] >= 0.99
        # the grid the rule chose and its predicted infidelity
        assert results["p_half_width"] == pytest.approx(12.0)
        assert isinstance(results["p_count"], int) and results["p_count"] % 2 == 0
        assert 1.0 - results["fidelity"] <= results["predicted_error"] <= 0.01

    def test_ground_state_error_is_the_excited_weight(self, tmp_path):
        # 1 - fidelity of this run is -4.4e-16, rounding noise; the excited
        # weight |u - <g, u> g|^2 of the same recovered state is 3.1e-16
        path = write_config(
            tmp_path,
            {
                "experiment": "ground_state",
                "physics": {
                    "matrix": [[0.62, -0.025, 0.25], [-0.025, 0.64, -0.005], [0.25, -0.005, 0.11]],
                    "u0": [0.63, 0.86, 0.23],
                    "epsilon": 1e-8,
                },
                "output": {"directory": str(tmp_path / "gs")},
            },
        )
        assert run(path) == 0
        results = json.loads((tmp_path / "gs" / "summary.json").read_text())["results"]
        assert results["l2_relative_error"] >= 0.0
        assert results["l2_relative_error"] == pytest.approx(
            1.0 - results["fidelity"], abs=4 * 3 * np.finfo(float).eps
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5),
        st.sampled_from([1e-3, 1e-6, 1e-8]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_ground_state_error_is_nonnegative_and_the_infidelity(self, dim, epsilon, seed):
        # the excited weight and 1 - fidelity differ by the rounding of the
        # norms of u and of the ground state, (|u|^2 - 1) + F (|g|^2 - 1):
        # up to 9.3 eps at dim 5 in a 1,500-case scan, so 4 dim eps bounds it
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((dim, dim))
        u0 = rng.uniform(0.1, 1.0, dim)
        config = {
            "experiment": "ground_state",
            "physics": {"matrix": ((x + x.T) / 2).tolist(), "u0": u0.tolist(), "epsilon": epsilon},
        }
        with tempfile.TemporaryDirectory() as scratch:
            config["output"] = {"directory": str(Path(scratch) / "gs")}
            path = write_config(Path(scratch), config)
            code = run(path)
            summary = json.loads((Path(scratch) / "gs" / "summary.json").read_text())
        if code == 3:  # degenerate ground level or no overlap: refused
            assert summary["status"] == "error"
            return
        assert code == 0
        results = summary["results"]
        assert results["l2_relative_error"] >= 0.0
        assert results["l2_relative_error"] == pytest.approx(
            1.0 - results["fidelity"], abs=4 * dim * np.finfo(float).eps
        )

    def test_zero_start_state_exits_2_without_a_runtime_warning(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "ground_state",
                "physics": {"matrix": [[0, 0.4], [0.4, 1.5]], "u0": [0, 0]},
                "output": {"directory": str(tmp_path / "gs")},
            },
        )
        proc = subprocess.run(
            [sys.executable, "-m", "schrodingerize", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "initial state must be nonzero" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_one_level_ground_state_refused(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "experiment": "ground_state",
                "physics": {"matrix": [[1]]},
                "output": {"directory": str(tmp_path / "gs")},
            },
        )
        assert run(path) == 3
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "gs" / "summary.json").read_text())
        assert summary["status"] == "error"
        assert "no spectral gap" in summary["error"]

    def test_general_run_without_scipy_expm(self, tmp_path, monkeypatch, general_dense_config):
        # the oracle of a non-normal A must not call into SciPy's own BLAS
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called during a run")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        path = write_config(
            tmp_path, dict(general_dense_config, output={"directory": str(tmp_path / "gen")})
        )
        assert run(path) == 0

    @pytest.mark.parametrize(
        "fixture, decompositions",
        [
            # the spectrum of H for the reach, one eigvalsh of Hbar for the
            # recurrence's bounds, and no decomposition per mode
            ("general_dense_config", [("eigh", (64, 64)), ("eigvalsh", (1, 64, 64))]),
            # the scattering rates, which with the range of xi . k are the
            # recurrence's bounds, and no decomposition per mode
            ("transport_config", [("eigvalsh", (16, 16))]),
        ],
        ids=["general-dense", "transport"],
    )
    def test_decompositions_of_a_benchmark_run(self, tmp_path, monkeypatch, request, fixture, decompositions):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(a, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                calls.append((_name, np.shape(a)))
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        config = request.getfixturevalue(fixture)
        path = write_config(tmp_path, dict(config, output={"directory": str(tmp_path / "out")}))
        assert run(path) == 0
        assert calls == decompositions

    def test_rows_of_the_benchmark_heat_run(self, tmp_path, lifted_row_counts, heat_lift_config):
        # u0 weighs the eigenvalues 0, pi^2 and (2 pi)^2 of the Laplacian
        # alone: three lifted rows, not one for each of the 129 distinct ones
        path = write_config(
            tmp_path, dict(heat_lift_config, output={"directory": str(tmp_path / "out")})
        )
        assert run(path) == 0
        assert lifted_row_counts == [3]

    def test_transport_run_without_scipy_expm(self, tmp_path, monkeypatch, transport_config):
        # the exact transport reference is NumPy's own Pade, not SciPy's expm
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called during a run")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        path = write_config(
            tmp_path, dict(transport_config, output={"directory": str(tmp_path / "tr")})
        )
        assert run(path) == 0

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

    @pytest.mark.parametrize(
        "resolution, physics, ratio",
        [
            # no L: the grid of a transport run, L = max(8, t*lambda_max + 4)
            # with lambda_max = 1, so 8 at t = 1 and 10 at t = 6
            ({"J": 4, "K": 4}, {}, 2.0),
            ({"J": 4, "K": 4}, {"t": 6.0}, 2.5),
            ({"J": 4, "K": 4, "L": 1.0}, {}, 0.25),
        ],
    )
    def test_cost_parity_takes_the_transport_grid(self, tmp_path, resolution, physics, ratio):
        # advection max-norm 2*pi; scattering (1/4)*pi*(64/2)/L
        path = write_config(
            tmp_path,
            {
                "experiment": "cost",
                "resolution": resolution,
                "physics": physics,
                "output": {"directory": str(tmp_path / "c")},
            },
        )
        assert run(path) == 0
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert summary["results"]["transport_parity"]["ratio"] == pytest.approx(ratio, rel=1e-12)

    def test_cost_parity_past_the_work_cap_refused_before_the_model(self, tmp_path):
        # the transport grid is sized from the rates, one eigvalsh of K x K;
        # at K = 8192 that is 8 times the work cap, refused before sigma exists
        path = write_config(
            tmp_path,
            {
                "experiment": "cost",
                "resolution": {"J": 2, "K": 8192},
                "output": {"directory": str(tmp_path / "c")},
            },
        )
        tracemalloc.start()
        try:
            assert run(path) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert "scattering rates of dimension 8192" in summary["error"]


def digest(value) -> dict:
    """The echo of a numeric list past the cap, as the schema defines it."""
    array = np.asarray(value, dtype="<f8")
    sha256 = hashlib.sha256(array.tobytes()).hexdigest()
    return {"shape": list(array.shape), "dtype": "float64", "sha256": sha256}


def echoed_physics(tmp_path, physics) -> dict:
    """The physics section of the summary of a heat run whose config adds
    ``physics`` to the usual one; no runner reads the added keys."""
    path = heat_config(tmp_path, physics=dict({"t": 0.1}, **physics))
    assert run(path) == 0
    return json.loads((tmp_path / "out" / "summary.json").read_text())["config"]["physics"]


class TestEcho:
    def test_matrix_past_the_cap_echoed_as_its_digest(self, tmp_path):
        path = large_general_config(tmp_path)
        matrix = json.loads(path.read_text())["physics"]["matrix"]
        assert run(path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["physics"]["matrix"] == digest(matrix)
        assert summary["config"]["physics"]["matrix"]["shape"] == [9, 9]
        assert validate_summary(summary) == []

    def test_each_part_of_a_complex_pair_echoed_as_its_digest(self, tmp_path):
        rng = np.random.default_rng(0)
        real, imag = rng.standard_normal((2, 9, 9)).tolist()
        physics = echoed_physics(tmp_path, {"pair": {"real": real, "imag": imag}})
        assert physics["pair"] == {"real": digest(real), "imag": digest(imag)}

    def test_integer_and_float_spellings_share_a_digest(self, tmp_path):
        ints = [[i * 9 + j - 40 for j in range(9)] for i in range(9)]
        floats = [[float(v) for v in row] for row in ints]
        physics = echoed_physics(tmp_path, {"ints": ints, "floats": floats})
        assert physics["ints"] == physics["floats"] == digest(floats)

    def test_cap_is_64_numbers(self, tmp_path):
        at_cap, past_cap = [0.5] * 64, [0.5] * 65
        square_at_cap = [[0.25] * 8] * 8
        physics = echoed_physics(
            tmp_path, {"at_cap": at_cap, "past_cap": past_cap, "square_at_cap": square_at_cap}
        )
        assert physics["at_cap"] == at_cap
        assert physics["square_at_cap"] == square_at_cap
        assert physics["past_cap"] == digest(past_cap)

    @pytest.mark.parametrize(
        "value",
        [
            ["a"] * 65,
            [True] * 65,
            [None] * 65,
            [[1.0] * 40, [2.0] * 30],
            [1.0] * 40 + [[2.0] * 30],
            [10**400] * 65,
            ["a"] + [1.0] * 65,
        ],
        ids=["strings", "bools", "nulls", "ragged", "numbers-beside-a-list", "huge-int", "mixed"],
    )
    def test_list_that_is_no_array_echoed_as_loaded(self, tmp_path, value):
        assert echoed_physics(tmp_path, {"note": value})["note"] == value

    def test_non_finite_numbers_past_the_cap_digested(self, tmp_path):
        value = [NAN, INF, -INF] * 22
        assert echoed_physics(tmp_path, {"note": value})["note"] == digest(value)

    def test_array_inside_a_list_digested(self, tmp_path):
        value = [{"matrix": [1.0] * 65}, "label"]
        physics = echoed_physics(tmp_path, {"terms": value})
        assert physics["terms"] == [{"matrix": digest([1.0] * 65)}, "label"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_general_summary_is_small(self, tmp_path, workloads, seed):
        # the 64 x 64 complex matrix echoed entry by entry took about 284 KB
        config = workloads.make_config("general-dense", seed)
        path = write_config(tmp_path, dict(config, output={"directory": str(tmp_path / "out")}))
        assert run(path) == 0
        assert (tmp_path / "out" / "summary.json").stat().st_size < 8 * 1024

    def test_runs_without_an_array_past_the_cap_load_no_hashlib(self, tmp_path):
        # hashlib loads OpenSSL, a few ms of every start-up; only a run that
        # digests may pay for it
        code = (
            "import sys\n"
            "from schrodingerize import cli\n"
            "codes = [cli.run(path) for path in sys.argv[1:]]\n"
            "print(codes, 'hashlib' in sys.modules)\n"
        )
        (tmp_path / "transport").mkdir()
        paths = [str(heat_config(tmp_path)), str(transport_config(tmp_path / "transport"))]
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, *paths], capture_output=True, text=True,
            env={"PYTHONPATH": src, "PATH": ""}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] False"


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
    "transport-sigma-matrix": ("transport", {"sigma": [[NAN] * 4] * 4}, "physics.sigma"),
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


    @pytest.mark.parametrize(
        "value",
        ["12", True, False, None, [12.0], 0, 0.0, -1.0, 10**400],
        ids=["text", "true", "false", "null", "list", "zero", "zero-float", "negative", "huge-int"],
    )
    def test_half_width_must_be_a_positive_number(self, tmp_path, capsys, monkeypatch, value):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started on a bad half-width")

        monkeypatch.setattr(cli.apps, "run_heat", no_run)
        assert run(heat_config(tmp_path, resolution={"M": 8, "N": 16, "L": value})) == 2
        assert "resolution.L must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [12, 12.0, 0.5])
    def test_half_width_accepts_int_and_float(self, tmp_path, value):
        path = heat_config(tmp_path, resolution={"M": 8, "N": 16, "L": value})
        assert load_config(path).resolution["L"] == value


_HEAT_X = make_grid(1.0, 64).points
_TRANSPORT_X, _TRANSPORT_K = np.meshgrid(
    make_grid(1.0, 8).points, make_grid(1.0, 8).points, indexing="ij"
)
_BASES = {
    "heat": ({"M": 64, "N": 256, "L": 12.0}, {"t": 0.1}),
    "transport": ({"J": 8, "K": 8, "N": 32, "L": 8.0}, {"t": 0.5}),
}


def solution_bytes(tmp_path, experiment, physics, out):
    resolution, base = _BASES[experiment]
    payload = {
        "experiment": experiment,
        "resolution": resolution,
        "physics": dict(base, **physics),
        "output": {"directory": str(tmp_path / out)},
    }
    assert run(write_config(tmp_path, payload, f"{out}.json")) == 0
    return (tmp_path / out / "solution.csv").read_bytes()


class TestConfigForms:
    @pytest.mark.parametrize(
        "experiment, given, equivalent",
        [
            (
                "heat",
                {"initial_condition": (1 + np.cos(np.pi * _HEAT_X)).tolist()},
                {"initial_condition": "1 + cos(pi*x)"},
            ),
            (
                "heat",
                {"potential": (1 + np.cos(np.pi * _HEAT_X)).tolist()},
                {"potential": "1 + cos(pi*x)"},
            ),
            ("heat", {"potential": "0*x"}, {}),
            (
                "transport",
                {
                    "initial_condition": (
                        1 + 0.5 * np.cos(np.pi * _TRANSPORT_X)
                        + 0.25 * np.cos(np.pi * _TRANSPORT_K)
                    ).tolist()
                },
                {},
            ),
            (
                "transport",
                {"sigma": [[1 / 8] * 8] * 8},
                {"sigma": {"kind": "constant", "value": 1.0}},
            ),
        ],
        ids=[
            "heat-initial-list", "heat-potential-list", "heat-zero-potential",
            "transport-initial-list", "transport-sigma-matrix",
        ],
    )
    def test_list_forms_write_the_same_solution(self, tmp_path, experiment, given, equivalent):
        assert solution_bytes(tmp_path, experiment, given, "given") == solution_bytes(
            tmp_path, experiment, equivalent, "equivalent"
        )

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"experiment": "general", "physics": {"matrix": np.eye(2).tolist(), "u0": [1]}},
                "physics.u0 length must match",
            ),
            ({"experiment": "general", "physics": {}}, "physics.matrix is required"),
            (
                {"experiment": "ground_state", "physics": {"matrix": [[1.0, 0.0, 0.0]] * 2}},
                "physics.matrix must be square",
            ),
            (
                {"experiment": "transport", "physics": {"sigma": {"kind": "gaussian"}}},
                "unknown sigma kind 'gaussian'",
            ),
            (
                {"experiment": "transport", "physics": {"sigma": [[0.5] * 2] * 2}},
                "sigma must be 16x16",
            ),
            ({"experiment": "heat", "physics": {"t": "fast"}}, "physics.t must be a number"),
            (["heat"], "top level must be an object"),
        ],
        ids=[
            "u0-length", "no-matrix", "matrix-not-square", "sigma-kind", "sigma-shape",
            "scalar-text", "top-level-list",
        ],
    )
    def test_bad_form_exits_2_naming_the_field(self, tmp_path, capsys, payload, message):
        if isinstance(payload, dict):
            payload["output"] = {"directory": str(tmp_path / "out")}
        assert run(write_config(tmp_path, payload)) == 2
        assert message in capsys.readouterr().err
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


def per_value_csv(coords, solution, reference) -> bytes:
    """solution.csv as written with one format(x, ".17g") call per value."""
    header = [name for name, _ in coords] + ["re", "im", "ref_re", "ref_im", "abs_error"]
    lines = [",".join(header)]
    err = np.abs(solution - reference)
    for i in range(solution.size):
        row = [vals[i] for _, vals in coords]
        row += [solution[i].real, solution[i].imag, reference[i].real, reference[i].imag, err[i]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


class TestSolutionCsv:
    @pytest.mark.parametrize("names", [("x",), ("x", "k")])
    def test_bytes_equal_a_format_per_value(self, tmp_path, names):
        # signed zeros, subnormals, the ends of the range and infinities,
        # among random values of every magnitude, with integer coordinates
        rng = np.random.default_rng(len(names))
        edges = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, float("inf"), -float("inf"), 0.1, 1 / 3, -1.5]
        values = np.concatenate(
            [edges, rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)]
        )
        parts = rng.permuted(np.tile(values, (5, 1)), axis=1)
        solution, reference = parts[0].astype(complex), parts[1].astype(complex)
        solution.imag, reference.imag = parts[2], parts[3]
        coords = [(names[0], parts[4])] + [(name, np.arange(values.size)) for name in names[1:]]
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in abs_error
            cli._write_solution_csv(tmp_path / "solution.csv", coords, solution, reference)
            expected = per_value_csv(coords, solution, reference)
        assert (tmp_path / "solution.csv").read_bytes() == expected


class TestDeterminism:
    @pytest.mark.parametrize(
        "make_config", [heat_config, general_config, large_general_config, transport_config],
        ids=["heat", "general", "general-digested", "transport"],
    )
    def test_byte_identical_on_repeat(self, tmp_path, make_config):
        assert run(make_config(tmp_path, out="a")) == 0
        assert run(make_config(tmp_path, out="b")) == 0
        for name in ("solution.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_package_starts_no_threads(self, tmp_path, monkeypatch):
        # every auxiliary mode is evolved on the calling thread, whatever the
        # environment says; BLAS's native threads are not Python threads
        def no_thread(self):
            raise AssertionError(f"thread {self.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setenv("SCHRO_THREADS", "8")
        for make_config in (general_config, transport_config):
            assert run(make_config(tmp_path, out=make_config.__name__)) == 0
        grid = make_grid(1.0, 4)
        model = TransportModel.create([grid], [grid], np.full((4, 4), 0.25))
        w0 = 1.0 + 0.5 * np.cos(np.pi * grid.points)[None, :] * np.ones((4, 1))
        _, legs, converged = find_stationary_transport(model, w0, leg=1.0, tol=1e-6)
        assert converged and legs > 1


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
        "experiment, resolution, physics, axis, values, reads",
        [
            ("heat", {}, {}, "beta", "1,2", "M, N, L, t, epsilon"),
            ("heat", {}, {}, "K", "4,8", "M, N, L, t, epsilon"),
            ("transport", {"J": 4, "K": 4}, {"t": 0.3}, "epsilon", "0.1,0.0001", "J, K, N, L, t"),
            # only the transport parity check reads N, and only with J and K set
            ("cost", {"J": 4}, {}, "N", "64,128", "it only when resolution sets both J and K"),
        ],
        ids=["heat-beta", "heat-K", "transport-epsilon", "cost-N-without-K"],
    )
    def test_axis_the_experiment_never_reads_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, experiment, resolution, physics, axis, values, reads
    ):
        # each run would write rows that do not depend on the swept value
        def no_run(*args, **kwargs):
            raise AssertionError("the sweep ran an experiment")

        monkeypatch.setattr(cli, "_execute", no_run)
        path = write_config(
            tmp_path,
            {
                "experiment": experiment,
                "resolution": resolution,
                "physics": physics,
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert main(["sweep", str(path), "--axis", axis, "--values", values]) == 2
        assert f"reads {reads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cost_sweep_over_n_with_j_and_k_moves_the_parity(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "cost",
                "resolution": {"J": 4, "K": 4},
                "output": {"directory": str(tmp_path / "out")},
            },
        )
        assert sweep(path, "N", [64, 128]) == 0
        parity = [
            json.loads((tmp_path / "out" / f"N={n}" / "summary.json").read_text())["results"][
                "transport_parity"
            ]
            for n in (64, 128)
        ]
        assert parity[0] != parity[1]

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

    def test_cli_import_adds_no_third_party_module(self):
        # a fresh process: after NumPy, importing the CLI loads only the
        # standard library and the package (no SciPy, no new NumPy submodule)
        code = (
            "import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import schrodingerize.cli\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m.partition('.')[0] not in sys.stdlib_module_names\n"
            "             and m.partition('.')[0] != 'schrodingerize'))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PATH": ""}, timeout=60,
        )
        assert out.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        cfg = heat_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "schrodingerize", "run", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_every_experiment_runs_with_scipy_blocked(self, tmp_path):
        # SciPy is a test dependency only: with its import made to fail
        # before the package loads, every experiment and the stationary
        # search still run to exit 0
        square = {"real": [[1.0, 0.3], [0.3, 0.8]]}
        configs = {
            "heat": {"experiment": "heat", "physics": {"t": 0.1}},
            "heat-potential": {
                "experiment": "heat",
                "physics": {"t": 0.1, "potential": "1 + 0.5*cos(pi*x)"},
            },
            "general-non-normal": {
                "experiment": "general",
                "physics": {"matrix": dict(square, imag=[[0.2, 0.5], [0.5, -0.4]]), "t": 0.5},
            },
            "general-hermitian": {"experiment": "general", "physics": {"matrix": square, "t": 0.5}},
            "ground-state": {
                "experiment": "ground_state",
                "physics": {"matrix": [[0.0, 0.3], [0.3, 1.0]], "epsilon": 0.01},
            },
            "gibbs": {"experiment": "gibbs", "physics": {"matrix": [[0.0, 0.3], [0.3, 1.0]]}},
            "transport": {
                "experiment": "transport",
                "resolution": {"J": 8, "K": 8, "N": 32, "L": 8.0},
            },
            "cost": {"experiment": "cost", "resolution": {"J": 4, "K": 4}},
        }
        paths = [
            str(write_config(tmp_path, dict(cfg, output={"directory": str(tmp_path / name)}),
                             name=f"{name}.json"))
            for name, cfg in configs.items()
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_BLOCKED_RUNS, src, *paths],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"codes": [0] * len(configs), "converged": True}

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
        assert schema["properties"]["schema_version"]["const"] == cli.SCHEMA_VERSION == 2
        assert summary["schema_version"] == cli.SCHEMA_VERSION
        assert schema["properties"]["config"]["required"] == list(cli._ECHOED)
        assert f"more than {cli._ECHO_CAP} numbers" in schema["properties"]["config"]["description"]
        digest_schema = schema["$defs"]["array_digest"]
        assert digest_schema["required"] == list(cli._DIGEST_KEYS)
        assert digest_schema["additionalProperties"] is False
        assert digest_schema["properties"]["dtype"] == {"const": "float64"}
        assert digest_schema["properties"]["sha256"]["pattern"] == "^[0-9a-f]{64}$"
        assert digest_schema["properties"]["shape"]["items"]["type"] == "integer"


def _with(summary: dict, path: tuple, value) -> dict:
    """A deep copy of ``summary`` with the entry at ``path`` set to
    ``value``, or removed when ``value`` is ``_REMOVED``."""
    changed = json.loads(json.dumps(summary))
    target = changed
    for key in path[:-1]:
        target = target[key]
    if value is _REMOVED:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return changed


_REMOVED = object()
_DIGEST = ("config", "physics", "matrix")
_GOOD_DIGEST = {"shape": [9, 9], "dtype": "float64", "sha256": "0123456789abcdef" * 4}
_NOT_A_DIGEST = "config.physics.matrix must be a digest"


class TestValidateSummary:
    @pytest.fixture
    def summary(self, tmp_path):
        assert run(large_general_config(tmp_path)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert validate_summary(summary) == []
        return summary

    def test_digest_with_every_field_accepted(self, summary):
        assert validate_summary(_with(summary, _DIGEST, _GOOD_DIGEST)) == []

    @pytest.mark.parametrize(
        "path, value, problem",
        [
            (("schema_version",), 1, "schema_version must be 2"),
            (("config", "resolution"), _REMOVED, "config.resolution must be an object"),
            (("config", "physics"), [1.0], "config.physics must be an object"),
            (("config", "tolerance"), None, "config.tolerance must be an object"),
            (_DIGEST, dict(_GOOD_DIGEST, note="x"), _NOT_A_DIGEST),
            (_DIGEST, {"sha256": _GOOD_DIGEST["sha256"]}, _NOT_A_DIGEST),
            (_DIGEST, dict(_GOOD_DIGEST, shape=[9, 9.0]), _NOT_A_DIGEST),
            (_DIGEST, dict(_GOOD_DIGEST, shape=81), _NOT_A_DIGEST),
            (_DIGEST, dict(_GOOD_DIGEST, dtype="complex128"), _NOT_A_DIGEST),
            (_DIGEST, dict(_GOOD_DIGEST, sha256="0123456789ABCDEF" * 4), _NOT_A_DIGEST),
            (_DIGEST, dict(_GOOD_DIGEST, sha256="0" * 63), _NOT_A_DIGEST),
            (
                ("config", "physics", "terms"),
                [_GOOD_DIGEST, {"sha256": None}],
                "config.physics.terms[1] must be a digest",
            ),
            (("results",), _REMOVED, "missing key 'results'"),
            (("experiment",), "weather", "experiment not in the known set"),
            (("status",), "done", "status must be ok, tolerance_exceeded or error"),
            (("config",), [], "config must be an object"),
            (("results",), [], "results must be an object"),
            (
                ("results", "l2_relative_error"),
                "small",
                "results.l2_relative_error must be a number",
            ),
        ],
        ids=[
            "version-1", "no-resolution", "physics-not-object", "tolerance-not-object",
            "digest-extra-key", "digest-missing-keys", "digest-float-shape", "digest-scalar-shape",
            "digest-dtype", "digest-uppercase-hex", "digest-short-hex", "digest-in-a-list",
            "no-results", "unknown-experiment", "bad-status", "config-not-object",
            "results-not-object", "error-not-a-number",
        ],
    )
    def test_rejected(self, summary, path, value, problem):
        problems = validate_summary(_with(summary, path, value))
        assert len(problems) == 1 and problems[0].startswith(problem)

"""Config-driven experiment runner.

``schrodingerize run <config.json>`` executes one experiment and writes
``summary.json`` plus ``solution.csv`` into the output directory;
``schrodingerize sweep <config.json> --axis N --values 64,128,256`` repeats
it over one numeric parameter and aggregates ``sweep.csv``.

Exit codes: 0 success, 2 config/validation failure, 3 numerical failure
(reference disagreement beyond the configured tolerance, a solver error,
or a resource cap on the bytes or decomposition work of a run).  Floats in
CSV output carry 17 significant digits so values round-trip exactly, and
repeated runs of one config write byte-identical files.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import apps
from .core import (
    AxisSpec,
    Grid1D,
    InvalidArgumentError,
    ResourceLimitError,
    StateVector,
    DegenerateStateError,
    UnsupportedProblemError,
    _preflight,
)
from .operators import TransportModel, assemble_eta_diagonal
from .oracle import expm_apply
from .costs import hamsim_cost, transport_norm_parity
from .pipeline import schrodingerize_evolve

__all__ = ["ExperimentConfig", "load_config", "run", "sweep", "main", "validate_summary"]

EXPERIMENTS = ("heat", "general", "ground_state", "gibbs", "transport", "cost")
_GRID_SIZES = ("M", "N", "K", "J")

SCHEMA_VERSION = 2
# the config sections a summary echoes
_ECHOED = ("resolution", "physics", "tolerance")
# a physics list of more numbers than this is echoed as its digest
_ECHO_CAP = 64
_DIGEST_KEYS = ("dtype", "sha256", "shape")

DEFAULT_TOLERANCES = {
    "heat": 1e-2,
    "general": 1e-2,
    "transport": 5e-2,
    "ground_state": 1e-2,
    "gibbs": 1e-4,
    "cost": math.inf,
}

_SAFE_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_MAX_INT_POWER_BITS = 4096


def _eval_node(node: ast.AST, env: dict):
    """Evaluate one node of the whitelisted grammar: numbers, names, + - * / **,
    unary +/- and calls of the ``_SAFE_FUNCS`` functions."""
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        return node.value
    if isinstance(node, ast.Name) and node.id in env:
        return env[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        left, right = _eval_node(node.left, env), _eval_node(node.right, env)
        if (
            isinstance(node.op, ast.Pow)
            and type(left) is int
            and type(right) is int
            and abs(right) * max(1, abs(left).bit_length()) > _MAX_INT_POWER_BITS
        ):
            raise ConfigError(f"integer power {left}**{right} is too large")
        return _BINARY_OPS[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_eval_node(node.operand, env))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and callable(_SAFE_FUNCS.get(node.func.id))
        and not node.keywords
    ):
        return _SAFE_FUNCS[node.func.id](*(_eval_node(arg, env) for arg in node.args))
    if isinstance(node, ast.Name):
        raise ConfigError(f"unknown name {node.id!r}")
    raise ConfigError(f"{type(node).__name__} is not allowed")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, refused with a ConfigError naming ``what`` when an entry
    is NaN or infinite: no run could make use of it."""
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} must be finite, got NaN or infinity")
    return values


def _eval_expression(expr: str, names: dict) -> np.ndarray:
    """Value of ``expr``; a division by zero or an overflow gives inf or NaN
    silently, for the caller to refuse with ``_finite``."""
    env = dict(_SAFE_FUNCS)
    env.update(names)
    try:
        with np.errstate(all="ignore"):
            return np.asarray(_eval_node(ast.parse(expr, mode="eval"), env))
    except Exception as exc:
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc


def _complex_array(spec, what: str) -> np.ndarray:
    if isinstance(spec, dict):
        real = np.asarray(spec.get("real", 0.0), dtype=float)
        imag = np.asarray(spec.get("imag", 0.0), dtype=float)
        return _finite(real + 1j * imag, what)
    try:
        return _finite(np.asarray(spec, dtype=complex), what)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: expected numbers or a real/imag object") from exc


def _number(value, what: str) -> float:
    """``value`` as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    return float(_finite(number, what))


@dataclass
class ExperimentConfig:
    experiment: str
    resolution: dict = field(default_factory=dict)
    physics: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    tolerance: dict = field(default_factory=dict)

    def res(self, key: str, default=None):
        value = self.resolution.get(key, default)
        if value is None:
            raise ConfigError(f"resolution.{key} is required for {self.experiment}")
        return value


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"{path}: experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    sections = {}
    for name in ("resolution", "physics", "output", "tolerance"):
        sections[name] = raw.get(name, {})
        if not isinstance(sections[name], dict):
            raise ConfigError(f"{path}: {name} must be an object, got {sections[name]!r}")
    cfg = ExperimentConfig(experiment=experiment, **sections)
    for key, value in cfg.resolution.items():
        _check_grid_size(key, value, path)
    tol = cfg.tolerance.get("l2_relative_error", 0.0)
    if type(tol) not in (int, float) or not 0.0 <= tol <= sys.float_info.max:
        raise ConfigError(
            f"{path}: tolerance.l2_relative_error must be a finite number >= 0, got {tol!r}"
        )
    return cfg


def _check_grid_size(key: str, value, source) -> None:
    """Grid sizes M, N, K and J must be even integers >= 2, and the
    half-width L a finite int or float > 0 (not a bool)."""
    if key in _GRID_SIZES and (not isinstance(value, int) or value < 2 or value % 2):
        raise ConfigError(f"{source}: resolution.{key} must be even and >= 2, got {value}")
    if key == "L" and (
        type(value) not in (int, float) or not 0.0 < value <= sys.float_info.max
    ):
        raise ConfigError(f"{source}: resolution.L must be finite and > 0, got {value!r}")


def _p_config(cfg: ExperimentConfig) -> tuple:
    """(L, N) as the config sets them; None leaves the experiment's default."""
    return cfg.resolution.get("L"), cfg.resolution.get("N")


def _physics(cfg: ExperimentConfig, key: str, default: float) -> float:
    return _number(cfg.physics.get(key, default), f"physics.{key}")


def _matrix(cfg: ExperimentConfig) -> np.ndarray:
    if "matrix" not in cfg.physics:
        raise ConfigError(f"physics.matrix is required for the {cfg.experiment} experiment")
    a = _complex_array(cfg.physics["matrix"], "physics.matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError("physics.matrix must be square")
    return a


def _u0(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    u0_spec = cfg.physics.get("u0")
    if u0_spec is None:
        return np.ones(dim, dtype=complex) / math.sqrt(dim)
    u0 = _complex_array(u0_spec, "physics.u0").reshape(-1)
    if u0.size != dim:
        raise ConfigError("physics.u0 length must match the matrix dimension")
    return u0


def _run_heat(cfg: ExperimentConfig):
    m = int(cfg.res("M", 64))
    grid = Grid1D(1.0, m)
    x = grid.points
    ic = cfg.physics.get("initial_condition", "1 + cos(pi*x)")
    what = "physics.initial_condition"
    if isinstance(ic, str):
        u0 = _finite(_eval_expression(ic, {"x": x}), what)
    else:
        u0 = _complex_array(ic, what)
    u0 = np.broadcast_to(np.asarray(u0, dtype=complex), (m,))
    pot = cfg.physics.get("potential")
    if isinstance(pot, str):
        pot = _finite(_eval_expression(pot, {"x": x}), "physics.potential")
        if not np.any(pot):
            pot = None
    elif pot is not None:
        pot = _finite(np.asarray(pot, dtype=float), "physics.potential")
    t = _physics(cfg, "t", 0.1)
    result = apps.run_heat(
        u0, pot, grid, p_config=_p_config(cfg), t=t, epsilon=_physics(cfg, "epsilon", 1e-3)
    )
    coords = [("x", x)]
    return coords, result.u_recovered.amplitudes, result.u_reference.amplitudes, {
        "l2_relative_error": result.l2_relative_error,
        "norms": result.norms,
        "cost": result.cost.as_dict(),
    }


def _run_general(cfg: ExperimentConfig):
    a = _matrix(cfg)
    dim = a.shape[0]
    u0 = _u0(cfg, dim)
    t = _physics(cfg, "t", 0.5)
    # the reference first: a matrix whose exponential is refused costs no run
    u_ref = expm_apply(a, u0, t)
    state = StateVector(u0, (AxisSpec("x1", dim),))
    _, rec = schrodingerize_evolve(
        state, a, _p_config(cfg), t, epsilon=_physics(cfg, "epsilon", 1e-3)
    )
    err = float(np.linalg.norm(rec.u.amplitudes - u_ref) / np.linalg.norm(u_ref))
    coords = [("index", np.arange(dim))]
    return coords, rec.u.amplitudes, u_ref, {
        "l2_relative_error": err,
        "norms": {
            "u_initial": float(np.linalg.norm(u0)),
            "u_recovered": rec.u.norm,
            "success_probability": rec.success_probability,
            "cost_factor": rec.cost_factor,
        },
        "cost": rec.cost.as_dict(),
    }


def _run_ground_state(cfg: ExperimentConfig):
    h = _matrix(cfg)
    dim = h.shape[0]
    epsilon = _physics(cfg, "epsilon", 0.01)
    report = apps.prepare_ground_state(h, _u0(cfg, dim), epsilon, p_grid=_p_config(cfg))
    ground = report.ground_state
    u_rec = report.u_recovered.amplitudes
    overlap = ground.conj() @ u_rec
    excited = u_rec - overlap * ground  # its weight is 1 - fidelity, never below 0
    coords = [("index", np.arange(dim))]
    return coords, u_rec, ground * np.exp(1j * np.angle(overlap)), {
        "l2_relative_error": float(np.vdot(excited, excited).real),
        "t_final": report.t_final,
        "fidelity": report.fidelity,
        "gap": report.gap,
        "alpha0_sq": report.alpha0_sq,
        "p_half_width": report.p_grid.half_width,
        "p_count": report.p_grid.count,
        "predicted_error": report.predicted_error,
        "cost": report.cost.as_dict(),
        "norms": {},
    }


def _run_gibbs(cfg: ExperimentConfig):
    beta = _physics(cfg, "beta", 1.0)
    report = apps.prepare_gibbs(_matrix(cfg), beta, p_grid=_p_config(cfg))
    dim = report.rho.shape[0]
    rows, cols = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    coords = [("row", rows.reshape(-1)), ("col", cols.reshape(-1))]
    return coords, report.rho.reshape(-1), report.rho_exact.reshape(-1), {
        "l2_relative_error": report.trace_distance_to_exact,
        "trace_distance": report.trace_distance_to_exact,
        "partition_function": report.partition_function,
        "beta": beta,
        "cost": report.cost.as_dict(),
        "norms": {},
    }


def _sigma_matrix(cfg: ExperimentConfig, k_count: int) -> np.ndarray:
    spec = cfg.physics.get("sigma", {"kind": "constant", "value": 1.0})
    if isinstance(spec, dict):
        kind = spec.get("kind", "constant")
        if kind != "constant":
            raise ConfigError(f"unknown sigma kind {kind!r}")
        c = _number(spec.get("value", 1.0), "physics.sigma.value")
        return np.full((k_count, k_count), c / k_count)
    sigma = _finite(np.asarray(spec, dtype=float), "physics.sigma")
    if sigma.shape != (k_count, k_count):
        raise ConfigError(f"sigma must be {k_count}x{k_count}")
    return sigma


def _run_transport(cfg: ExperimentConfig):
    j = int(cfg.res("J", 16))
    k = int(cfg.res("K", 16))
    # refused from the counts, before sigma and the model are built
    _preflight(*apps._run_transport_phases(j, k, _p_config(cfg)))
    x_grid = Grid1D(1.0, j)
    k_grid = Grid1D(1.0, k)
    model = TransportModel.create([x_grid], [k_grid], _sigma_matrix(cfg, k))
    ic = cfg.physics.get("initial_condition", "1 + 0.5*cos(pi*x) + 0.25*cos(pi*k)")
    if isinstance(ic, str):
        xx, kk = np.meshgrid(x_grid.points, k_grid.points, indexing="ij")
        w0 = _finite(_eval_expression(ic, {"x": xx, "k": kk}), "physics.initial_condition")
        w0 = np.broadcast_to(np.asarray(w0, dtype=float), (j, k))
    else:
        w0 = _complex_array(ic, "physics.initial_condition").reshape(j, k)
    t = _physics(cfg, "t", 1.0)
    result = apps.run_transport(model, w0, p_config=_p_config(cfg), t=t)
    xx, kk = np.meshgrid(x_grid.points, k_grid.points, indexing="ij")
    coords = [("x", xx.reshape(-1)), ("k", kk.reshape(-1))]
    return coords, result.w_recovered.amplitudes, result.w_reference.amplitudes, {
        "l2_relative_error": result.l2_relative_error,
        "moments": {
            "mass": result.moments.mass,
            "momentum": list(result.moments.momentum),
            "energy": result.moments.energy,
        },
        "norms": result.norms,
        "cost": result.cost.as_dict(),
    }


def _run_cost(cfg: ExperimentConfig):
    report = hamsim_cost(
        s=_physics(cfg, "s", 2.0),
        t=_physics(cfg, "t", 1.0),
        max_norm=_physics(cfg, "max_norm", 1.0),
        epsilon=_physics(cfg, "epsilon", 0.01),
        m_h=_physics(cfg, "m_h", 4.0),
    )
    extras = {"l2_relative_error": 0.0, "cost": report.as_dict(), "norms": {}}
    if "J" in cfg.resolution and "K" in cfg.resolution:
        j, k = int(cfg.res("J")), int(cfg.res("K"))
        # the parity prices the grid of a transport run, sized from its rates
        _preflight((f"the scattering rates of dimension {k}", 4 * 8 * k * k, k**3))
        model = TransportModel.create([Grid1D(1.0, j)], [Grid1D(1.0, k)], _sigma_matrix(cfg, k))
        p_grid = apps._transport_p_grid(model, _p_config(cfg), _physics(cfg, "t", 1.0))[0]
        d_matrix = assemble_eta_diagonal(p_grid)
        extras["transport_parity"] = transport_norm_parity(model, d_matrix)
    return [], None, None, extras


_RUNNERS = {
    "heat": _run_heat,
    "general": _run_general,
    "ground_state": _run_ground_state,
    "gibbs": _run_gibbs,
    "transport": _run_transport,
    "cost": _run_cost,
}

# The keys each runner reads that a sweep may vary: grid sizes and L set
# the resolution, every other key the physics.
_SWEEP_AXES = {
    "heat": ("M", "N", "L", "t", "epsilon"),
    "general": ("N", "L", "t", "epsilon"),
    "ground_state": ("N", "L", "epsilon"),
    "gibbs": ("N", "L", "beta"),
    "transport": ("J", "K", "N", "L", "t"),
    "cost": ("J", "K", "N", "L", "s", "t", "max_norm", "epsilon", "m_h"),
}


def _write_solution_csv(path: Path, coords, solution, reference) -> None:
    """One line per entry: its coordinates, the solution, the reference and
    their distance, each value as ``_fmt`` writes it."""
    header = [name for name, _ in coords] + ["re", "im", "ref_re", "ref_im", "abs_error"]
    solution = np.asarray(solution, dtype=complex).reshape(-1)
    reference = np.asarray(reference, dtype=complex).reshape(-1)
    columns = [vals for _, vals in coords] + [
        solution.real, solution.imag, reference.real, reference.imag, np.abs(solution - reference)
    ]
    line = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [line % tuple(row) for row in np.array(columns, dtype=float).T.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _number_count(value: list) -> int | None:
    """How many numbers the nested list ``value`` holds, or None when it
    holds anything else (a string, a bool, null, an object, or numbers
    beside lists)."""
    types = set(map(type, value))
    if types <= {int, float}:
        return len(value)
    if types == {list}:
        counts = [_number_count(item) for item in value]
        return None if None in counts else sum(counts)
    return None


def _echo(value):
    """``value`` as the summary echoes it: each list of more than
    ``_ECHO_CAP`` numbers that forms an array becomes its shape, its dtype
    and the SHA-256 of its little-endian float64 bytes in C order; the rest
    as loaded."""
    if isinstance(value, dict):
        return {key: _echo(item) for key, item in value.items()}
    if not isinstance(value, list):
        return value
    if (_number_count(value) or 0) > _ECHO_CAP:
        try:
            array = np.asarray(value, dtype="<f8")
        except (ValueError, OverflowError):  # ragged, or an integer past float64
            pass
        else:
            import hashlib  # here: OpenSSL's load would cost every run's start-up

            digest = hashlib.sha256(array.tobytes()).hexdigest()
            return {"shape": list(array.shape), "dtype": "float64", "sha256": digest}
    return [_echo(item) for item in value]


def _digest_problems(value, where: str) -> list[str]:
    """Problems with the digest objects (those with a ``sha256`` key) in
    the echoed ``value``."""
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in _digest_problems(item, f"{where}[{i}]")]
    if not isinstance(value, dict):
        return []
    if "sha256" not in value:
        return [p for key, item in value.items() for p in _digest_problems(item, f"{where}.{key}")]
    shape, sha256 = value.get("shape"), value.get("sha256")
    if (
        sorted(value) != list(_DIGEST_KEYS)
        or not isinstance(shape, list)
        or not all(type(n) is int and n >= 0 for n in shape)
        or value["dtype"] != "float64"
        or not isinstance(sha256, str)
        or len(sha256) != 64
        or not set(sha256) <= set("0123456789abcdef")
    ):
        return [
            f"{where} must be a digest of exactly shape (a list of ints), "
            "dtype float64 and sha256 (64 lowercase hex characters)"
        ]
    return []


def validate_summary(summary: dict) -> list[str]:
    """Check a summary dict against the shipped schema; returns problems."""
    problems = []
    for key in ("schema_version", "experiment", "config", "results", "status"):
        if key not in summary:
            problems.append(f"missing key {key!r}")
    if summary.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version must be {SCHEMA_VERSION}")
    if summary.get("experiment") not in EXPERIMENTS:
        problems.append("experiment not in the known set")
    if summary.get("status") not in ("ok", "tolerance_exceeded", "error"):
        problems.append("status must be ok, tolerance_exceeded or error")
    config = summary.get("config", {})
    if not isinstance(config, dict):
        problems.append("config must be an object")
    else:
        for name in _ECHOED:
            if not isinstance(config.get(name), dict):
                problems.append(f"config.{name} must be an object")
        problems += _digest_problems(config.get("physics"), "config.physics")
    results = summary.get("results", {})
    if not isinstance(results, dict):
        problems.append("results must be an object")
    elif "l2_relative_error" in results:
        value = results["l2_relative_error"]
        if not isinstance(value, (int, float)):
            problems.append("results.l2_relative_error must be a number")
    return problems


def _execute(cfg: ExperimentConfig, out_dir: Path) -> tuple[int, dict]:
    error = None
    try:
        coords, solution, reference, results = _RUNNERS[cfg.experiment](cfg)
    except ConfigError:
        raise
    # before ValueError, which LinAlgError subclasses: a solver error exits 3
    except (
        DegenerateStateError, UnsupportedProblemError, ResourceLimitError, np.linalg.LinAlgError
    ) as exc:
        solution, results, error = None, {}, str(exc)
    except (InvalidArgumentError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if error is not None:
        status = "error"
    else:
        tol = float(cfg.tolerance.get("l2_relative_error", DEFAULT_TOLERANCES[cfg.experiment]))
        err = float(results.get("l2_relative_error", 0.0))
        status = "ok" if err <= tol else "tolerance_exceeded"
    summary = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "config": {
            "resolution": cfg.resolution,
            "physics": _echo(cfg.physics),
            "tolerance": cfg.tolerance,
        },
        "results": _jsonable(results),
        "status": status,
    }
    if error is not None:
        summary["error"] = error
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    if solution is not None:
        _write_solution_csv(out_dir / "solution.csv", coords, solution, reference)
    return (0 if status == "ok" else 3), summary


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def run(config_path) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        out_dir = Path(cfg.output.get("directory", "out"))
        code, _ = _execute(cfg, out_dir)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _exact_label(value) -> str:
    """``value`` in the short ``g`` form when that round-trips, else in full."""
    short = format(float(value), "g")
    return short if float(short) == float(value) else repr(float(value))


def sweep(config_path, axis: str, values) -> int:
    """Re-run one experiment over a list of values of a numeric parameter,
    one of the keys it reads (``_SWEEP_AXES``; for ``cost``, J, K, N and L
    only when the config sets both J and K); any other exits 2 at once."""
    try:
        cfg = load_config(config_path)
        axes = _SWEEP_AXES[cfg.experiment]
        if axis not in axes:
            raise ConfigError(
                f"cannot sweep {axis!r}: the {cfg.experiment} experiment reads {', '.join(axes)}"
            )
        # the cost experiment's transport parity check reads these only then
        if cfg.experiment == "cost" and axis in ("J", "K", "N", "L") and not (
            "J" in cfg.resolution and "K" in cfg.resolution
        ):
            raise ConfigError(
                f"cannot sweep {axis!r}: the cost experiment reads it only when "
                "resolution sets both J and K"
            )
        if not values:
            raise ConfigError("sweep needs at least one value")
        numerics = [
            int(value) if axis in _GRID_SIZES and float(value).is_integer() else float(value)
            for value in values
        ]
        for numeric in numerics:
            _check_grid_size(axis, numeric, f"sweep of {axis}")
        rows = []
        base_dir = Path(cfg.output.get("directory", "out"))
        for value, numeric in zip(values, numerics):
            sub = ExperimentConfig(
                experiment=cfg.experiment,
                resolution=dict(cfg.resolution),
                physics=dict(cfg.physics),
                output=dict(cfg.output),
                tolerance=dict(cfg.tolerance),
            )
            if axis in _GRID_SIZES or axis == "L":
                sub.resolution[axis] = numeric
            else:
                sub.physics[axis] = numeric
            out_dir = base_dir / f"{axis}={_exact_label(value)}"
            code, summary = _execute(sub, out_dir)
            if code == 2:
                return 2
            results = summary.get("results", {})
            rows.append(
                (
                    float(value),
                    results.get("l2_relative_error", float("nan")),
                    results.get("norms", {}).get("success_probability", float("nan")),
                    results.get("cost", {}).get("queries", float("nan")),
                )
            )
        lines = ["value,l2_relative_error,success_probability,queries"]
        for row in rows:
            lines.append(",".join(_fmt(v if v is not None else float("nan")) for v in row))
        base_dir.mkdir(parents=True, exist_ok=True)
        (base_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schrodingerize",
        description="config-driven warped-phase simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("config", help="path to a JSON config")
    p_sweep = sub.add_parser("sweep", help="sweep one numeric parameter")
    p_sweep.add_argument("config", help="path to a JSON config")
    p_sweep.add_argument("--axis", required=True, help="parameter name, e.g. N")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated numeric values, e.g. 64,128,256"
    )
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print("config error: --values must be comma-separated numbers", file=sys.stderr)
        return 2
    return sweep(args.config, args.axis, values)


if __name__ == "__main__":
    sys.exit(main())

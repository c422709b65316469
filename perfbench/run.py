"""Benchmark of ``schrodingerize run``: seeded workloads, end-to-end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload heat-lift --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6

One closed-loop, single-process caller makes in-process ``cli.run(config)``
calls one at a time, the way a user drives the program.  Each call parses
the config, lifts, evolves and recovers, checks itself against the oracle
reference and writes ``summary.json`` and ``solution.csv``; the benchmark
then checks the exit code, the summary (schema, ``status == "ok"``, error
within the workload's tolerance) and the row count of ``solution.csv``.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
spends half of ``--seconds`` untraced and half with the span tracer of
``tracer.py`` installed, and reports the per-layer metrics; it also checks
that the exact counters repeat on every traced call and that a different
seed gives the same work counters.  ``--workload all`` runs every workload
in its own process (trace 0, then trace 1 twice) and prints a summary.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS threads and
``SCHRO_THREADS`` are left at the caller's settings and only recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SELF_TIME_METRICS, Tracer
from workloads import TOLERANCE, WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
COLD_SETUPS = 3
CALL_TIMEOUT_S = 150

# Counters that must repeat exactly on every traced call of one seed.
EXACT = (
    "pipeline.eigh_calls",
    "pipeline.eigh_n3",
    "pipeline.modes",
    "pipeline.state_dim",
    "pipeline.lifted_mb",
    "operators.eigh_calls",
    "apps.eigh_calls",
    "oracle.eigh_calls",
    "cli.eigh_calls",
    "cli.output_bytes",
)
# Counters that set the amount of work, so they must not depend on the seed.
WORK_INVARIANT = tuple(k for k in EXACT if k != "cli.output_bytes")

UNITS = {
    "run_s_p50": "s",
    "run_s_tail": "s",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
    "pipeline.evolve_s": "s",
    "pipeline.lift_s": "s",
    "pipeline.fwd_s": "s",
    "pipeline.inv_s": "s",
    "pipeline.recover_s": "s",
    "pipeline.self_s": "s",
    "pipeline.eigh_calls": "count",
    "pipeline.eigh_n3": "n3",
    "pipeline.modes": "count",
    "pipeline.state_dim": "count",
    "pipeline.lifted_mb": "MiB",
    "operators.s": "s",
    "operators.eigh_calls": "count",
    "apps.self_s": "s",
    "apps.eigh_calls": "count",
    "oracle.s": "s",
    "oracle.eigh_calls": "count",
    "oracle.rel_error": "1",
    "costs.s": "s",
    "cli.self_s": "s",
    "cli.eigh_calls": "count",
    "cli.output_bytes": "B",
    "trace.overhead": "frac",
    "trace.unattributed_s": "s",
}


class Caller:
    """Makes one ``cli.run`` call on a config file and checks its outputs."""

    def __init__(self, cli, config: dict, work: Path, rows: int):
        self.cli = cli
        self.validate = cli.validate_summary  # bound before any tracing
        self.out_dir = work / "out"
        self.config_path = work / "config.json"
        self.rows = rows
        work.mkdir(parents=True, exist_ok=True)
        config = dict(config, output={"directory": str(self.out_dir)})
        self.config_path.write_text(json.dumps(config))
        self.attempted = 0
        self.problems: list[str] = []

    def clear(self) -> None:
        for name in ("summary.json", "solution.csv"):
            (self.out_dir / name).unlink(missing_ok=True)

    def call(self) -> tuple[float, dict | None]:
        """Time one call; returns its wall time and its checked outputs."""
        self.clear()
        start = time.perf_counter()
        try:
            code = self.cli.run(str(self.config_path))  # looked up per call, so tracing applies
        except Exception as exc:  # noqa: BLE001 a raising call is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, self.check(code)

    def check(self, code) -> dict | None:
        """Record a problem and return None, or return the checked outputs."""
        self.attempted += 1
        problem, outputs = self._check(code)
        if problem:
            self.problems.append(problem)
            return None
        return outputs

    def _check(self, code) -> tuple[str | None, dict]:
        if code != 0:
            return f"exit code {code}", {}
        summary_path = self.out_dir / "summary.json"
        csv_path = self.out_dir / "solution.csv"
        if not summary_path.is_file() or not csv_path.is_file():
            return "summary.json or solution.csv missing", {}
        summary_bytes = summary_path.read_bytes()
        csv_bytes = csv_path.read_bytes()
        try:
            summary = json.loads(summary_bytes)
        except json.JSONDecodeError as exc:
            return f"summary.json unreadable: {exc}", {}
        schema = self.validate(summary)
        if schema:
            return f"summary.json invalid: {schema}", {}
        error = summary["results"].get("l2_relative_error")
        if summary["status"] != "ok" or not isinstance(error, (int, float)) or not error <= TOLERANCE:
            return f"status {summary['status']}, error {error} at tolerance {TOLERANCE}", {}
        lines = csv_bytes.count(b"\n")
        if lines != self.rows + 1:
            return f"solution.csv has {lines} lines, expected {self.rows + 1}", {}
        return None, {"rel_error": error, "output_bytes": len(summary_bytes) + len(csv_bytes)}


def timed_loop(caller: Caller, seconds: float, after_call=None) -> tuple[list[float], int, float]:
    """Closed loop for ``seconds``; returns call times, good calls, loop wall time."""
    times, good = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        elapsed, outputs = caller.call()
        times.append(elapsed)
        good += outputs is not None
        if after_call is not None:
            after_call(elapsed, outputs)
    return times, good, time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with ten samples above it.

    With fewer than eleven samples no sample has ten above it; the minimum,
    which has the most, is reported with percentile 0.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cold_setups(caller: Caller) -> list[float]:
    """Wall time from process start to the end of a cold first call, per fresh process."""
    values = []
    for _ in range(COLD_SETUPS):
        caller.clear()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), str(SRC), str(caller.config_path)],
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            caller.check(f"cold process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        values.append(report["end"] - start)
        caller.check(report["code"])
    return values


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SCHRO_THREADS": os.environ.get("SCHRO_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs, key=lambda p: "numpy" not in p):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(caller: Caller, seconds: float) -> dict:
    setups = cold_setups(caller)
    caller.call()  # warm-up: caches and lazy set-up, checked but not timed
    times, good, wall = timed_loop(caller, seconds)
    if not setups:
        return {}
    tail_value, tail_pct = tail(times)
    n, failed = len(times), len(caller.problems)
    metrics = {
        "run_s_p50": statistics.median(times),
        "run_s_tail": tail_value,
        "runs_per_s": good / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - failed / caller.attempted,
    }
    notes = {
        "run_s_p50": f"median of n={n} calls",
        "run_s_tail": f"p{tail_pct:.1f} of n={n} calls",
        "runs_per_s": f"{good} good calls in {wall:.2f} s",
        "setup_s": f"median of n={len(setups)} fresh processes, import + cold first call",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "ok_frac": f"fail_frac {failed / caller.attempted:.4f}: {failed} of n={caller.attempted} calls failed",
    }
    for key, value in metrics.items():
        print(f"  {key:<12} {value:10.4f} {UNITS[key]:<4} ({notes[key]})")
    return metrics


def per_layer(caller: Caller, alt: Caller, seconds: float, spans_path: Path) -> tuple[dict, list[str]]:
    caller.call()  # warm-up
    untraced, _, _ = timed_loop(caller, seconds / 2)
    tracer = Tracer()
    calls = []

    def record(elapsed, outputs):
        metrics = tracer.call_metrics(tracer.call_id)
        if outputs is not None:
            metrics["cli.output_bytes"] = outputs["output_bytes"]
            metrics["oracle.rel_error"] = outputs["rel_error"]
        metrics["trace.unattributed_s"] = elapsed - metrics["trace.root_s"]
        calls.append((elapsed, metrics))

    tracer.install()
    try:
        traced, _, _ = timed_loop(caller, seconds / 2, record)
        alt.call()
        alt_metrics = tracer.call_metrics(tracer.call_id)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    problems = []
    first = calls[0][1]
    for key in EXACT:
        seen = {m.get(key) for _, m in calls}
        if len(seen) != 1:
            problems.append(f"{key} differs between calls of one seed: {sorted(map(str, seen))}")
    for key in WORK_INVARIANT:
        if alt_metrics[key] != first[key]:
            problems.append(f"{key} depends on the seed: {first[key]} vs {alt_metrics[key]}")
    if any(m["outside.eigh_calls"] for _, m in calls):
        problems.append("eigh called outside every layer span")
    for elapsed, m in calls:
        self_sum = sum(m[k] for k in SELF_TIME_METRICS)
        if abs(self_sum - m["trace.root_s"]) > 1e-6 * max(1.0, elapsed) or m["trace.unattributed_s"] < 0:
            problems.append(f"self times {self_sum:.6f} s do not add up to the call {m['trace.root_s']:.6f} s")

    traced_p50 = statistics.median(traced)
    metrics = {k: statistics.median(m[k] for _, m in calls) for k in SELF_TIME_METRICS}
    metrics.update({k: first[k] for k in EXACT if k in first})
    metrics["oracle.rel_error"] = statistics.median(m.get("oracle.rel_error", float("nan")) for _, m in calls)
    metrics["trace.overhead"] = traced_p50 / statistics.median(untraced) - 1.0
    metrics["trace.unattributed_s"] = statistics.median(m["trace.unattributed_s"] for _, m in calls)

    print(f"  untraced p50 {statistics.median(untraced):.4f} s (n={len(untraced)}), "
          f"traced p50 {traced_p50:.4f} s (n={len(traced)})")
    for key in SELF_TIME_METRICS:
        share = metrics[key] / traced_p50
        print(f"  {key:<22} {metrics[key]:.5f} s  {100 * share:5.1f}% of the call (median of n={len(calls)})")
    for key in EXACT + ("oracle.rel_error", "trace.overhead", "trace.unattributed_s"):
        if key in metrics:
            print(f"  {key:<22} {metrics[key]:.6g} {UNITS[key]}")
    print(f"  spans written to {spans_path}")
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    sys.path.insert(0, str(SRC))
    from schrodingerize import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the source under {SRC}", file=sys.stderr)
        return 2
    rows = WORKLOADS[name][1]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {int(traced)}")
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    try:
        caller = Caller(cli, make_config(name, seed), work, rows)
        problems = []
        if traced:
            alt = Caller(cli, make_config(name, seed + 1), work / "alt", rows)
            metrics, problems = per_layer(
                caller, alt, seconds, WORK / f"spans-{name}-seed{seed}.jsonl"
            )
            caller.attempted += alt.attempted
            caller.problems += alt.problems
        else:
            metrics = end_to_end(caller, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = caller.problems + problems
    for problem in sorted(set(problems)):
        print(f"  FAILED: {problem}", file=sys.stderr)
    correct = not problems and bool(metrics)
    print(f"check: every call exit 0, summary.json valid with status ok and error <= {TOLERANCE:g}, "
          f"solution.csv {rows + 1} lines{', exact counters repeat' if traced else ''}: "
          f"{'PASS' if correct else 'FAIL'}")
    result = {
        "correct": correct,
        "attempted": caller.attempted,
        "failed": len(caller.problems),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process: trace 0 once, trace 1 twice."""
    ok = True
    rows = []
    for name in WORKLOADS:
        results = []
        for traced in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            results.append(json.loads(lines[-1]) if proc.returncode == 0 and lines else None)
        if None in results:
            ok = False
            rows.append(f"{name:<14} FAILED")
            continue
        e2e, first, second = (r["metrics"] for r in results)
        repeat = [k for k in EXACT if first[k]["value"] != second[k]["value"]]
        if repeat:
            ok = False
            print(f"FAILED: {name}: exact counters differ between two traced runs: {repeat}", file=sys.stderr)
        rows.append(
            f"{name:<14} " + "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in e2e.items())
            + f"  counters repeat across processes: {'yes' if not repeat else 'NO'}"
        )
    print("\nsummary (seed %d, %g s per run)" % (seed, seconds))
    for row in rows:
        print("  " + row)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "schrodingerize" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

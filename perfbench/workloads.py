"""Seeded workload generators for the benchmark.

Each generator turns a seed into one ``schrodingerize run`` config.  The
seed only moves values that do not change the amount of work (amplitudes,
phases, eigenbases); spectra, gaps, overlaps, grid sizes and mode content
are fixed, so every seed gives the same grid sizes and the same number and
size of eigendecompositions.  Each config sets its tolerance to the accuracy
the workload asks for, so a call is "time to a verified solution at a stated
accuracy".
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-3


def _complex_spec(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {"real": arr.real.tolist(), "imag": arr.imag.tolist()}


def _orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def heat_lift(rng: np.random.Generator) -> dict:
    # Only modes j <= 2: at t = 0.1 mode j convects by t*(pi*j)^2 in p, and
    # modes up to j = 6 push that past L = 12 (error 0.21, exit 3).
    terms = ["1.5"]
    for j in (1, 2):
        amp = float(rng.uniform(0.2, 0.5))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        terms.append(f"{amp!r}*cos({j}*pi*x + {phase!r})")
    return {
        "experiment": "heat",
        "resolution": {"M": 256, "N": 4096, "L": 12.0},
        "physics": {"t": 0.1, "initial_condition": " + ".join(terms)},
    }


def general_dense(rng: np.random.Generator) -> dict:
    dim = 64
    q1, q2 = _orthogonal(rng, dim), _orthogonal(rng, dim)
    h = (q1 * np.linspace(0.0, 1.5, dim)) @ q1.T
    h_bar = (q2 * np.linspace(-2.0, 2.0, dim)) @ q2.T
    u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return {
        "experiment": "general",
        "resolution": {"N": 256, "L": 12.0},
        "physics": {
            "t": 0.5,
            "matrix": _complex_spec(h + 1j * h_bar),
            "u0": _complex_spec(u0 / np.linalg.norm(u0)),
        },
    }


def transport(rng: np.random.Generator) -> dict:
    a, b = (float(v) for v in rng.uniform(0.2, 0.5, size=2))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return {
        "experiment": "transport",
        "resolution": {"J": 16, "K": 16},
        "physics": {
            "t": 1.0,
            "sigma": {"kind": "constant", "value": 1.0},
            "initial_condition": f"1 + {a!r}*cos(pi*x + {phase!r}) + {b!r}*cos(pi*k)",
        },
    }


def ground_state(rng: np.random.Generator) -> dict:
    # Gap 0.5, lambda_max 4 and ground overlap 0.2 fixed, so the program's
    # own grid rule picks the same N (154,092) and L (about 77) for any seed.
    dim = 32
    spectrum = np.concatenate([[0.0], 0.5 + np.linspace(0.0, 3.5, dim - 1)])
    q = _orthogonal(rng, dim)
    h = (q * spectrum) @ q.T
    rest = q[:, 1:] @ rng.standard_normal(dim - 1)
    u0 = math.sqrt(0.2) * q[:, 0] + math.sqrt(0.8) * rest / np.linalg.norm(rest)
    return {
        "experiment": "ground_state",
        "physics": {"epsilon": 1e-3, "matrix": _complex_spec(h), "u0": _complex_spec(u0)},
    }


# name -> (generator, rows of solution.csv); BENCHMARK.json says why each is here
WORKLOADS = {
    "heat-lift": (heat_lift, 256),
    "general-dense": (general_dense, 64),
    "transport": (transport, 256),
    "ground-state": (ground_state, 32),
}


def make_config(name: str, seed: int) -> dict:
    """The config of workload ``name`` for ``seed``, tolerance included."""
    generator = WORKLOADS[name][0]
    cfg = generator(np.random.default_rng([seed % 2**64, list(WORKLOADS).index(name)]))
    cfg["tolerance"] = {"l2_relative_error": TOLERANCE}
    return cfg

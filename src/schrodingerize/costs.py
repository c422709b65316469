"""Model query/gate complexity of simulating the assembled Hamiltonians.

All formulas follow the sparse-access cost model: simulating exp(-iHt) on
m_H qubits to precision eps costs

    queries = tau * log2(tau/eps) / log2(log2(tau/eps)),
    gates   = tau * (m_H + log2(tau/eps)^2.5) * log2(tau/eps) / log2(log2(tau/eps)),

with tau = s * t * max|H|.  Logarithms are base 2 and the inner log is
clamped below 2 to avoid division blowups at tiny tau/eps.  Constants
suppressed by asymptotic notation are set to 1; every report is a model
cost, not a hardware count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import AccuracyWarning, InvalidArgumentError

__all__ = [
    "CostReport",
    "hamsim_cost",
    "schrodingerisation_cost",
    "ground_state_cost",
    "gibbs_cost",
    "transport_norm_parity",
]


@dataclass(frozen=True)
class CostReport:
    """Query/gate counts for one simulation task (model cost, constants = 1)."""

    tau: float
    queries: float
    gates: float
    qubit_count: float
    epsilon: float
    formula: str
    norm_ratio: float | None = None
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("tau", "queries", "gates", "qubit_count", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidArgumentError(f"cost field {name} must be finite and nonnegative")

    def as_dict(self) -> dict:
        out = {
            "formula": self.formula,
            "tau": self.tau,
            "queries": self.queries,
            "gates": self.gates,
            "qubit_count": self.qubit_count,
            "epsilon": self.epsilon,
            "note": "model cost, constants = 1",
            "inputs": dict(self.inputs),
        }
        if self.norm_ratio is not None:
            out["norm_ratio"] = self.norm_ratio
        return out


def _dressing(tau: float, epsilon: float) -> tuple[float, float]:
    # arguments below 2 are clamped to 2 at both log levels, so the cost
    # degrades smoothly to queries ~ tau as tau/epsilon -> 0
    ell = math.log2(max(tau / epsilon, 2.0))
    ell_ell = math.log2(max(ell, 2.0))
    return ell, ell_ell


def _check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not value > 0:
            raise InvalidArgumentError(f"{name} must be positive, got {value}")


def hamsim_cost(s: float, t: float, max_norm: float, epsilon: float, m_h: float) -> CostReport:
    """Sparse-access simulation cost of exp(-iHt) at tau = s*t*max|H|."""
    _check_positive(s=s, t=t, max_norm=max_norm, epsilon=epsilon, m_h=m_h)
    if not epsilon < 1:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
    tau = s * t * max_norm
    ell, ell_ell = _dressing(tau, epsilon)
    queries = tau * ell / ell_ell
    gates = tau * (m_h + ell**2.5) * ell / ell_ell
    return CostReport(
        tau=tau,
        queries=queries,
        gates=gates,
        qubit_count=m_h,
        epsilon=epsilon,
        formula="hamiltonian-simulation",
        inputs={"s": s, "t": t, "max_norm": max_norm, "epsilon": epsilon, "m_h": m_h},
    )


def schrodingerisation_cost(
    norm_ratio: float,
    s: float,
    t: float,
    max_norm: float,
    epsilon: float,
    m_h: float,
    max_norm_oscillatory: float = 0.0,
) -> CostReport:
    """Cost of the full warped-phase run for du/dt = -A u.

    The auxiliary mode diagonal inflates the dissipative max-norm by
    pi/(2*epsilon) (its largest mode at N ~ 1/eps modes); the oscillatory
    part enters un-inflated, and the whole simulation is repeated
    norm_ratio = |u(0)|/|u(t)| times by amplification; warns below 1 (runs do not).
    """
    args = (norm_ratio, s, t, max_norm, epsilon, m_h, max_norm_oscillatory)
    report = _schrodingerisation_cost(*args)
    if norm_ratio < 1.0 - 1e-9:
        warnings.warn(
            f"norm ratio {norm_ratio:.3g} < 1: the original dynamics grow in time",
            AccuracyWarning,
            stacklevel=2,
        )
    return report


def _schrodingerisation_cost(norm_ratio, s, t, max_norm, epsilon, m_h, max_norm_oscillatory):
    """``schrodingerisation_cost`` without its growth warning."""
    _check_positive(norm_ratio=norm_ratio, s=s, t=t, max_norm=max_norm, epsilon=epsilon)
    effective = max(max_norm * math.pi / (2.0 * epsilon), max_norm_oscillatory)
    base = hamsim_cost(s, t, effective, epsilon, m_h)
    return replace(
        base,
        queries=norm_ratio * base.queries,
        gates=norm_ratio * base.gates,
        formula="schrodingerisation",
        norm_ratio=norm_ratio,
        inputs={
            "s": s,
            "t": t,
            "max_norm": max_norm,
            "max_norm_oscillatory": max_norm_oscillatory,
            "epsilon": epsilon,
            "m_h": m_h,
            "norm_ratio": norm_ratio,
        },
    )


def relaxation_time(gap: float, alpha0_sq: float, epsilon: float) -> float:
    """(1/gap) * ln(1/(epsilon * alpha0_sq)): time to reach infidelity epsilon."""
    if not gap > 0:
        raise InvalidArgumentError(f"spectral gap must be positive, got {gap}")
    if not 0 < alpha0_sq <= 1:
        raise InvalidArgumentError(f"alpha0_sq must be in (0, 1], got {alpha0_sq}")
    if not 0 < epsilon < 1:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
    return math.log(1.0 / (epsilon * alpha0_sq)) / gap


def ground_state_cost(
    s: float,
    max_norm: float,
    alpha0: float,
    gap: float,
    epsilon: float,
    m_h: float = 1.0,
) -> CostReport:
    """Cost of relaxing to the ground state: leading factor
    s*max|H| / (alpha0 * gap * epsilon), dressed like hamsim_cost.

    The evolution time is set internally to the relaxation time and the
    amplification ratio to 1/alpha0 (the surviving ground amplitude).
    """
    _check_positive(alpha0=alpha0, gap=gap)
    if alpha0 > 1:
        raise InvalidArgumentError(f"alpha0 must be in (0, 1], got {alpha0}")
    t_final = relaxation_time(gap, alpha0**2, epsilon)
    report = _schrodingerisation_cost(1.0 / alpha0, s, t_final, max_norm, epsilon, m_h, 0.0)
    inputs = dict(report.inputs)
    inputs.update({"alpha0": alpha0, "gap": gap, "t_final": t_final})
    return replace(report, formula="ground-state", inputs=inputs)


def gibbs_cost(
    s: float,
    max_norm: float,
    beta: float,
    dim: int,
    partition_z: float,
    epsilon: float,
) -> CostReport:
    """Cost of preparing exp(-beta*H)/Z: s*max|H|*beta*sqrt(D/Z)/eps dressed.

    The purification evolves for time beta/2 and the amplification ratio is
    sqrt(D/Z), below 1 without a warning when negative energies make Z exceed
    D; the caller supplies Z.  The register is priced at m_H = 2*log2(D) +
    log2(max(2, 1/eps)) qubits.
    """
    _check_positive(beta=beta, dim=dim)
    if not partition_z > 0:
        raise InvalidArgumentError(f"partition function must be positive, got {partition_z}")
    ratio = math.sqrt(dim / partition_z)
    m_h = 2.0 * math.log2(dim) + math.log2(max(2.0, 1.0 / epsilon))
    report = _schrodingerisation_cost(ratio, s, beta / 2.0, max_norm, epsilon, m_h, 0.0)
    inputs = dict(report.inputs)
    inputs.update({"beta": beta, "dim": dim, "partition_z": partition_z})
    return replace(report, formula="gibbs", inputs=inputs)


def transport_norm_parity(model, d_matrix) -> dict:
    """Max-norms of the advection and scattering blocks of the transport
    Hamiltonian.

    Both scale like the inverse target precision when the spatial and
    auxiliary resolutions are refined together (velocity ordinates fixed),
    so their ratio stays within a constant factor: lifting the transport
    equation does not change the order of the total max-norm.
    """
    advection = float(np.abs(model.advection_diagonal()).max())
    scattering = float(np.abs(model.sigma).max()) * d_matrix.max_norm
    return {
        "advection_max_norm": advection,
        "scattering_max_norm": scattering,
        "ratio": advection / scattering if scattering > 0 else float("inf"),
    }

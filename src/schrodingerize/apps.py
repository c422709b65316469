"""The four worked applications as configured pipelines.

* run_heat: periodic heat/diffusion with optional potential, checked
  against the exact Fourier solution (V = 0) or a dense matrix exponential,
* prepare_ground_state: dissipative relaxation onto the ground state of a
  Hermitian matrix, with the closed-form relaxation time,
* prepare_gibbs: thermal state exp(-beta*H)/Z via the purified evolution of
  a maximally entangled register pair for time beta/2,
* run_transport: kinetic transport with isotropic scattering, checked
  against a method-of-lines integrator, plus moment observables.

Each run reports its hypothetical quantum resource cost.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyWarning,
    AxisSpec,
    Grid1D,
    InvalidArgumentError,
    StateVector,
    UnsupportedProblemError,
)
from .costs import CostReport, gibbs_cost, ground_state_cost, relaxation_time
from .operators import (
    HermitianMatrix,
    TransportModel,
    _laplacian_sparsity_and_max_norm,
    _laplacian_symbol,
    assemble_schrodinger_hamiltonian,
)
from .oracle import expm_apply, heat_analytic, transport_reference
from .pipeline import (
    RecoveryResult,
    _p_grid_from,
    _warn_truncation,
    decay_factors,
    default_p_grid,
    evolve_eigenbasis,
    evolve_lifted,
)

__all__ = [
    "HeatRunResult",
    "GroundStateReport",
    "GibbsReport",
    "MomentReport",
    "TransportRunResult",
    "run_heat",
    "estimate_t_final",
    "prepare_ground_state",
    "prepare_gibbs",
    "run_transport",
    "compute_moments",
    "observable_overlap",
    "find_stationary_transport",
]

GIBBS_P_HALF_WIDTH = 10.0
GIBBS_P_COUNT = 2048
TRANSPORT_P_HALF_WIDTH = 8.0
TRANSPORT_P_COUNT = 64


def _as_state(u0, grids: list[Grid1D], prefix: str = "x") -> StateVector:
    if isinstance(u0, StateVector):
        return u0
    layout = tuple(
        AxisSpec(f"{prefix}{i + 1}", g.count, g) for i, g in enumerate(grids)
    )
    return StateVector(np.asarray(u0, dtype=complex).reshape(-1), layout)


@dataclass(frozen=True)
class HeatRunResult:
    u_recovered: StateVector
    u_reference: StateVector
    l2_relative_error: float
    norms: dict
    cost: CostReport


def run_heat(
    u0,
    potential,
    grids,
    p_config=None,
    t: float = 0.0,
    epsilon: float = 1e-3,
    workers: int | None = None,
) -> HeatRunResult:
    """Heat pipeline: the Hbar = 0 lifted run of ``evolve_eigenbasis``,
    against a reference.

    With V = 0 the spectral Laplacian is diagonal in the unitary DFT, so
    its eigenvalues are sum_l mu_l^2 and nothing is assembled or
    decomposed: the cost model's sparsity and max-norm come from the 1-D
    factors.  Otherwise H = -laplacian + V is assembled and its cached
    spectrum used.  ``p_config`` is None, a Grid1D or an (L, N) pair whose
    None entries take the defaults L=12, N=256.  Warns when the part of u0
    on eigencomponents that convect past L exceeds ``epsilon`` * |u0|.
    The reference is the exact Fourier solution when V = 0 and a dense
    matrix exponential of the assembled Hamiltonian otherwise.  The norms
    dictionary records the conserved lifted norm at both ends together with
    the projection bookkeeping (success probability and amplification cost
    factor); the cost is priced by |u(0)|/|u_recovered|.  ``workers`` is
    accepted for a signature shared with the other runs; no eigencomponent
    needs a decomposition of its own, so there is nothing to spread.
    """
    if isinstance(grids, Grid1D):
        grids = [grids]
    grids = list(grids)
    u0_state = _as_state(u0, grids)
    v_is_zero = potential is None or (
        not callable(potential) and not np.any(np.asarray(potential))
    )
    if v_is_zero:
        lam, vectors = _laplacian_symbol(grids), None
        sparsity, max_norm = _laplacian_sparsity_and_max_norm(grids)
    else:
        h = assemble_schrodinger_hamiltonian(potential, grids)
        (lam, vectors), sparsity, max_norm = h.spectrum, h.sparsity, h.max_norm
    rec = evolve_eigenbasis(
        u0_state, lam, vectors, _p_grid_from(p_config), t, sparsity, max_norm, epsilon=epsilon
    )

    if v_is_zero:
        u_ref = heat_analytic(u0_state, grids, t)
    else:
        u_ref = u0_state.with_amplitudes(expm_apply(h.dense(), u0_state.amplitudes, t))

    err = float(
        np.linalg.norm(rec.u.amplitudes - u_ref.amplitudes) / np.linalg.norm(u_ref.amplitudes)
    )
    norms = {
        "u_initial": u0_state.norm,
        "u_recovered": rec.u.norm,
        "u_reference": u_ref.norm,
        "w_spectral_initial": rec.spectral_norms[0],
        "w_spectral_final": rec.spectral_norms[1],
        "success_probability": rec.success_probability,
        "cost_factor": rec.cost_factor,
    }
    return HeatRunResult(
        u_recovered=rec.u,
        u_reference=u_ref,
        l2_relative_error=err,
        norms=norms,
        cost=rec.cost,
    )


def estimate_t_final(gap: float, alpha0_sq: float, epsilon: float) -> float:
    """Evolution time (1/gap)*ln(1/(epsilon*alpha0_sq)) for target infidelity."""
    return relaxation_time(gap, alpha0_sq, epsilon)


@dataclass(frozen=True)
class GroundStateReport:
    t_final: float
    fidelity: float
    gap: float
    alpha0_sq: float
    epsilon: float
    cost: CostReport
    u_recovered: StateVector | None = None
    ground_state: np.ndarray | None = None


def prepare_ground_state(
    h,
    u0,
    epsilon: float,
    p_grid: Grid1D | tuple | None = None,
) -> GroundStateReport:
    """Relax u0 under exp(-H t) until the ground-state fidelity is 1 - eps.

    The spectrum is shifted by its smallest eigenvalue before the run; the
    removed scalar only rescales the state, so the recovered direction and
    the fidelity are unchanged while the lifted profile keeps convecting
    leftward.  With Hbar = 0 the lifted run scales each eigencomponent by
    its own factor (``decay_factors``, quadrature recovery), so the state is
    V diag(g) V^dag u0 in the eigenbasis of H, without a lifted array.
    ``p_grid`` is None, a Grid1D or an (L, N) pair whose None entries take
    the values of ``default_p_grid`` for eps, t_final and the spectral width.
    """
    h_mat = h if isinstance(h, HermitianMatrix) else HermitianMatrix.from_entries(h)
    energies, vectors = h_mat.spectrum
    gap = float(energies[1] - energies[0])
    scale = max(1.0, float(np.abs(energies).max()))
    if gap <= 1e-12 * scale:
        raise UnsupportedProblemError("degenerate ground level: no spectral gap")
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.size != h_mat.dimension:
        raise InvalidArgumentError(
            f"state length {u0.size} != Hamiltonian dimension {h_mat.dimension}"
        )
    u0 = u0 / np.linalg.norm(u0)
    ground = vectors[:, 0]
    alpha0_sq = float(np.abs(ground.conj() @ u0) ** 2)
    if alpha0_sq < 1e-14:
        raise InvalidArgumentError("initial state has no overlap with the ground state")
    t_final = estimate_t_final(gap, alpha0_sq, epsilon)

    shifted = energies - energies[0]
    default = default_p_grid(epsilon=epsilon, t=t_final, lambda_max=float(shifted[-1]))
    p_grid = _p_grid_from(p_grid, default.half_width, default.count)
    _warn_truncation(p_grid, max(1e-4, epsilon))
    factors = decay_factors(shifted, p_grid, t_final, "integration")
    u_t = vectors @ (factors * (vectors.conj().T @ u0))
    u_rec = u_t / np.linalg.norm(u_t)
    fidelity = float(np.abs(ground.conj() @ u_rec) ** 2)
    cost = ground_state_cost(
        s=max(h_mat.sparsity, 1),
        max_norm=h_mat.max_norm,
        alpha0=math.sqrt(alpha0_sq),
        gap=gap,
        epsilon=epsilon,
        m_h=math.log2(h_mat.dimension * p_grid.count),
    )
    return GroundStateReport(
        t_final=t_final,
        fidelity=fidelity,
        gap=gap,
        alpha0_sq=alpha0_sq,
        epsilon=epsilon,
        cost=cost,
        u_recovered=StateVector(u_rec, (AxisSpec("x1", u_rec.size),)),
        ground_state=ground,
    )


@dataclass(frozen=True)
class GibbsReport:
    beta: float
    rho: np.ndarray
    trace_distance_to_exact: float
    partition_function: float
    cost: CostReport
    rho_exact: np.ndarray


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def prepare_gibbs(
    h,
    beta: float,
    p_grid: Grid1D | None = None,
) -> GibbsReport:
    """Prepare exp(-beta*H)/Z by evolving a maximally entangled pair.

    The start state is (1/sqrt(D)) sum_j |j>|j>, evolved under H (x) 1 for
    time beta/2; tracing out the register H does not act on yields the
    thermal state for any Hermitian H (for complex eigenvectors the other
    register would give the complex conjugate instead).  The spectrum is
    shifted to start at zero; the scalar cancels in the normalized density
    matrix.  With Hbar = 0 the lifted run scales each eigencomponent of H by
    its own factor (``decay_factors``, projection recovery), so the evolved
    pair is psi = V diag(g) V^dag / sqrt(D) read as a D x D matrix, and
    only the D x D spectrum of H is decomposed.  ``p_grid`` is None, a
    Grid1D or an (L, N) pair whose None entries take the defaults N=2048
    and L = max(10, (beta/2)*(E_max - E_0) + 4), so the profile convected
    for time beta/2 by the widest shifted energy stays inside the
    auxiliary domain.
    """
    if not beta > 0:
        raise InvalidArgumentError(f"beta must be positive, got {beta}")
    h_mat = h if isinstance(h, HermitianMatrix) else HermitianMatrix.from_entries(h)
    dim = h_mat.dimension
    energies, vectors = h_mat.spectrum
    partition_z = float(np.exp(-beta * energies).sum())
    epsilon = 1e-3

    half_width = max(GIBBS_P_HALF_WIDTH, beta / 2.0 * float(energies[-1] - energies[0]) + 4.0)
    p_grid = _p_grid_from(p_grid, half_width, GIBBS_P_COUNT)
    _warn_truncation(p_grid, epsilon)
    # projection recovery: only the direction of the purification matters
    # for rho, and the profile fit damps the periodic wrap of the lifted
    # state exponentially harder than the quadrature route does
    factors = decay_factors(energies - energies[0], p_grid, beta / 2.0, "projection")
    psi = (vectors * factors) @ vectors.conj().T
    rho = psi @ psi.conj().T
    rho = rho / np.trace(rho).real

    weights = np.exp(-beta * (energies - energies[0]))
    exact = (vectors * weights) @ vectors.conj().T / weights.sum()
    cost = gibbs_cost(
        s=max(h_mat.sparsity, 1),
        max_norm=h_mat.max_norm,
        beta=beta,
        dim=dim,
        partition_z=partition_z,
        epsilon=epsilon,
    )
    return GibbsReport(
        beta=beta,
        rho=rho,
        trace_distance_to_exact=_trace_distance(rho, exact),
        partition_function=partition_z,
        cost=cost,
        rho_exact=exact,
    )


@dataclass(frozen=True)
class MomentReport:
    mass: float
    momentum: np.ndarray
    energy: float


def compute_moments(w, grids=None) -> MomentReport:
    """Quadrature moments of a phase-space density W(x, k).

    mass = sum W dx dk, momentum_l = sum k_l W dx dk, energy = sum |k|^2/2
    W dx dk.  Requires a real-valued W (imaginary residue above 1e-8 is an
    error).
    """
    if isinstance(w, StateVector):
        arr = w.as_array()
        axes = w.layout
        x_axes = [ax for ax in axes if ax.name.startswith("x")]
        k_axes = [ax for ax in axes if ax.name.startswith("k")]
        if len(x_axes) + len(k_axes) != len(axes) or not k_axes:
            raise InvalidArgumentError("moments need a state over (x.., k..) axes")
        x_grids = [ax.grid for ax in x_axes]
        k_grids = [ax.grid for ax in k_axes]
    else:
        x_grids, k_grids = grids
        x_grids = [x_grids] if isinstance(x_grids, Grid1D) else list(x_grids)
        k_grids = [k_grids] if isinstance(k_grids, Grid1D) else list(k_grids)
        shape = tuple(g.count for g in x_grids) + tuple(g.count for g in k_grids)
        arr = np.asarray(w).reshape(shape)
    if np.iscomplexobj(arr):
        if float(np.abs(arr.imag).max()) > 1e-8:
            raise InvalidArgumentError("moments require a real-valued density")
        arr = arr.real
    if any(g is None for g in x_grids + k_grids):
        raise InvalidArgumentError("moment axes must carry grids")
    d = len(k_grids)
    weight = float(np.prod([g.spacing for g in x_grids + k_grids]))
    mass = float(arr.sum()) * weight
    momentum = np.empty(d)
    ksq = np.zeros_like(arr)
    for l, g in enumerate(k_grids):
        sh = [1] * arr.ndim
        sh[len(x_grids) + l] = g.count
        kl = g.points.reshape(sh)
        momentum[l] = float((arr * kl).sum()) * weight
        ksq = ksq + np.broadcast_to(kl**2, arr.shape)
    energy = 0.5 * float((arr * ksq).sum()) * weight
    return MomentReport(mass=mass, momentum=momentum, energy=energy)


def observable_overlap(g, w) -> float:
    """|<g, w>|^2 for unit-normalized inputs: the fidelity a swap test
    would estimate between the observable state and the density state."""
    if isinstance(g, StateVector) and isinstance(w, StateVector):
        if g.shape != w.shape or g.axis_names != w.axis_names:
            raise InvalidArgumentError("states must share the same layout")
        gv, wv = g.amplitudes, w.amplitudes
    else:
        gv = np.asarray(g, dtype=complex).reshape(-1)
        wv = np.asarray(w, dtype=complex).reshape(-1)
        if gv.size != wv.size:
            raise InvalidArgumentError("vectors must have equal length")
    gn, wn = np.linalg.norm(gv), np.linalg.norm(wv)
    if gn == 0 or wn == 0:
        raise InvalidArgumentError("overlap of a zero vector is undefined")
    return float(np.abs(np.vdot(gv / gn, wv / wn)) ** 2)


@dataclass(frozen=True)
class TransportRunResult:
    w_recovered: StateVector
    w_reference: StateVector
    l2_relative_error: float
    moments: MomentReport
    norms: dict
    cost: CostReport


def _transport_layout(model: TransportModel) -> tuple[AxisSpec, ...]:
    axes = tuple(
        AxisSpec(f"x{i + 1}", g.count, g) for i, g in enumerate(model.x_grids)
    ) + tuple(AxisSpec(f"k{i + 1}", g.count, g) for i, g in enumerate(model.k_grids))
    return axes


def _evolve_transport(
    model: TransportModel,
    w0_state: StateVector,
    p_config,
    t: float,
    epsilon: float = 1e-3,
    workers: int | None = None,
) -> tuple[StateVector, RecoveryResult]:
    """Spatial Fourier transform, ``evolve_lifted``, inverse transform.

    Returns the recovered state over (x, k) and the recovery of
    ``evolve_lifted`` over (xi, k), which carries its bookkeeping and cost.
    """
    layout = _transport_layout(model)
    arr0 = w0_state.as_array()
    if np.iscomplexobj(arr0) and (
        float(np.abs(arr0.imag).max()) > 1e-12 or float(arr0.real.min()) < -1e-12
    ):
        warnings.warn(
            "transport initial data should be real and nonnegative",
            AccuracyWarning,
            stacklevel=3,
        )
    d = model.dimension
    x_axes = tuple(range(d))

    spec0 = np.fft.fftn(arr0, axes=x_axes, norm="ortho")
    layout_xi = tuple(
        AxisSpec(f"xi{i + 1}", g.count, g) for i, g in enumerate(model.x_grids)
    ) + layout[d:]
    spec_state = StateVector(spec0.reshape(-1), layout_xi)

    def convection_half_width() -> float:
        lam_max = float(np.abs(np.linalg.eigvalsh(model.collision_matrix())).max())
        return max(TRANSPORT_P_HALF_WIDTH, t * lam_max + 4.0)

    p_grid = _p_grid_from(p_config, convection_half_width, TRANSPORT_P_COUNT)
    _, rec = evolve_lifted(
        spec_state, model.hermitian_pair(), p_grid, t,
        epsilon=epsilon, truncation_tol=1e-2, workers=workers,
    )
    spec_rec = rec.u.amplitudes.reshape(spec0.shape)
    w_rec = np.fft.ifftn(spec_rec, axes=x_axes, norm="ortho")
    return StateVector(w_rec.reshape(-1), layout), rec


def _transport_state(model: TransportModel, w0) -> StateVector:
    if isinstance(w0, StateVector):
        return w0
    return StateVector(np.asarray(w0, dtype=complex).reshape(-1), _transport_layout(model))


def run_transport(
    model: TransportModel,
    w0,
    p_config=None,
    t: float = 0.0,
    epsilon: float = 1e-3,
    workers: int | None = None,
) -> TransportRunResult:
    """Transport pipeline over (x, k): spatial Fourier transform,
    ``evolve_lifted`` with its per-mode unitary evolution decomposed block by
    block, inverse spatial transform.

    The per-mode generator is mu*(Sigma - sigma) + diag(xi . k): the
    scattering enters through the (positive semi-definite) loss-gain
    matrix and the advection through the diagonal symbol.  With x Fourier
    transformed it is block diagonal, one K^d x K^d block per spatial
    frequency xi: ``model.hermitian_pair()`` builds H and Hbar as
    (J^d, K^d, K^d) block stacks, so neither the (J^d K^d)^2 generator nor
    any matrix of that size is ever formed.  The reference is the RK4
    method-of-lines solution on the same (x, k) grid.  Recovery, the
    projection bookkeeping and the cost come from ``evolve_lifted`` in
    (xi, k) space, where the norms equal those over (x, k) to rounding.
    ``p_config`` is None, a Grid1D or an (L, N) pair whose None entries
    take the defaults N=64 and L = max(8, t*lambda_max + 4), lambda_max
    the largest scattering rate, so the convected profile stays inside
    the auxiliary domain.
    """
    layout = _transport_layout(model)
    w0_state = _transport_state(model, w0)
    w_rec_state, rec = _evolve_transport(model, w0_state, p_config, t, epsilon, workers)

    w_ref = transport_reference(model, w0_state.as_array(), t)
    w_ref_state = StateVector(np.asarray(w_ref).reshape(-1), layout)
    err = float(
        np.linalg.norm(w_rec_state.amplitudes - w_ref_state.amplitudes)
        / np.linalg.norm(w_ref_state.amplitudes)
    )
    moments = compute_moments(w_rec_state.with_amplitudes(w_rec_state.amplitudes.real))
    norms = {
        "w_initial": w0_state.norm,
        "w_recovered": w_rec_state.norm,
        "w_spectral_initial": rec.spectral_norms[0],
        "w_spectral_final": rec.spectral_norms[1],
        "success_probability": rec.success_probability,
        "cost_factor": rec.cost_factor,
    }
    return TransportRunResult(
        w_recovered=w_rec_state,
        w_reference=w_ref_state,
        l2_relative_error=err,
        moments=moments,
        norms=norms,
        cost=rec.cost,
    )


def find_stationary_transport(
    model: TransportModel,
    w0,
    leg: float = 0.5,
    tol: float = 1e-8,
    max_legs: int = 200,
    workers: int | None = None,
):
    """Long-time transport evolution until ||W(t+leg) - W(t)|| < tol.

    Runs the pipeline leg by leg (re-lifting the recovered state each time)
    rather than solving a nullspace problem, so the stationary state is
    produced by the same machinery as the transient runs; the legs skip the
    reference solve and the moments that only ``run_transport`` reports.
    Returns (W_stationary, legs_used, converged).
    """
    current = _transport_state(model, w0)
    for n in range(1, max_legs + 1):
        nxt = _evolve_transport(model, current, None, leg, workers=workers)[0]
        delta = float(np.linalg.norm(nxt.amplitudes - current.amplitudes))
        current = nxt
        if delta < tol:
            return current, n, True
    return current, max_legs, False

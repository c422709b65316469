"""The four worked applications as configured pipelines.

* run_heat: periodic heat/diffusion with optional potential, checked
  against the exact Fourier solution (V = 0) or a dense matrix exponential,
* prepare_ground_state: dissipative relaxation onto the ground state of a
  Hermitian matrix, with the closed-form relaxation time,
* prepare_gibbs: thermal state exp(-beta*H)/Z via the purified evolution of
  a maximally entangled register pair for time beta/2,
* run_transport: kinetic transport with isotropic scattering, checked
  against the exact solution (one matrix exponential per spatial
  frequency, ``transport_exact``), plus moment observables;
  find_stationary_transport chains its legs, each an ``evolve_lifted`` of
  the one pair it builds.

Each run reports its hypothetical quantum resource cost.
"""

from __future__ import annotations

import math
import numbers
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
    _preflight,
)
from .costs import CostReport, gibbs_cost, ground_state_cost, relaxation_time
from .operators import (
    HermitianMatrix,
    TransportModel,
    _laplacian_sparsity_and_max_norm,
    _laplacian_symbol,
    assemble_schrodinger_hamiltonian,
)
from .oracle import _EXPM_CHUNK, _PADE_COPIES, expm_apply, heat_analytic, transport_exact
from .pipeline import (
    _MODE_BYTES,
    _check_p_grid,
    _check_time,
    _lifted_phase,
    _matvec,
    _p_grid_from,
    _propagator,
    _relaxation_error,
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
# precision at which a transport run is priced and its grid checked
_TRANSPORT_EPSILON = 1e-3
# complex (J^d, K^d, K^d) stacks of a transport run: by tracemalloc the pair
# build peaks near 2 and a whole run at J = 4, K = 256, N = 8 at 2.8
_PAIR_BUILD_STACKS = 4.5
# n x n peaks by tracemalloc at n = 512 and 1024: from_entries with its
# spectrum 3.0 copies of the input's dtype (a real ground state too); in
# complex copies, run_heat's dense H and reference 3.5, Gibbs's 7.0
_SPECTRUM_COPIES = 4.5
_HEAT_DENSE_COPIES = 4
_DENSITY_COPIES = 7.5


def _as_state(u0, grids: list[Grid1D]) -> StateVector:
    if isinstance(u0, StateVector):
        return u0
    layout = tuple(AxisSpec(f"x{i + 1}", g.count, g) for i, g in enumerate(grids))
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
    None entries take the defaults L=12, N=256, checked by
    ``evolve_eigenbasis``.  The reference is the exact Fourier solution when V = 0 and a dense
    matrix exponential of the assembled Hamiltonian otherwise, so with V != 0
    a grid whose dense matrices pass a cap of ``core`` raises
    ResourceLimitError before H is assembled.  The norms dictionary records
    the conserved lifted norm at both ends together with the projection
    bookkeeping (success probability and amplification cost factor); the
    cost is priced by |u(0)|/|u_recovered|.  ``workers`` is accepted and
    ignored.
    """
    _check_time(t)
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
        n = u0_state.amplitudes.size
        dense = f"the dense Hamiltonian of dimension {n} and its reference"
        _preflight((dense, _HEAT_DENSE_COPIES * 16 * n * n, n**3))
        h = assemble_schrodinger_hamiltonian(potential, grids)
        (lam, vectors), sparsity, max_norm = h.spectrum, h.sparsity, h.max_norm
    rec = evolve_eigenbasis(
        u0_state, lam, vectors, _p_grid_from(p_config), t, sparsity, max_norm, epsilon=epsilon
    )

    if v_is_zero:
        u_ref = heat_analytic(u0_state.amplitudes, grids, t)
    else:
        u_ref = expm_apply(h.dense(), u0_state.amplitudes, t)
    u_ref = u0_state.with_amplitudes(u_ref)

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


def _spectrum_phase(h) -> tuple[int, tuple[str, int, int]]:
    """The dimension n of h and the phase of its spectrum, from its shape
    and dtype alone."""
    entries = h.blocks if isinstance(h, HermitianMatrix) else h
    n = math.prod(np.shape(entries)[:-1])
    nbytes = _SPECTRUM_COPIES * (16 if np.iscomplexobj(entries) else 8) * n * n
    return n, (f"the eigendecomposition of dimension {n}", nbytes, n**3)


def _decay_phase(count: int, vectors: np.ndarray) -> tuple[str, int, int]:
    """The phase of ``decay_factors`` on ``count`` modes beside H and its eigenvectors."""
    nbytes = count * _MODE_BYTES + 2 * vectors.nbytes
    return (f"the {count} auxiliary modes of decay_factors", nbytes, 0)


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
    p_grid: Grid1D | None = None
    predicted_error: float | None = None


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
    the values of ``default_p_grid`` for eps, t_final and the spectral width:
    L from the wrap bound, N from the fitted error model of the factor, so
    N stays in the thousands where the former dp <= eps rule grew as 1/eps.
    The report carries the grid used and ``predicted_error``, the
    infidelity bound of that model on this grid for eps, t_final, the gap
    and the spectral width; the grid check's reach is t_final times that
    width.  A spectrum or O(N) arrays past a cap of ``core`` are refused
    with ResourceLimitError before allocation.  A matrix of dimension 1, or
    with a degenerate ground level, has no spectral gap and raises
    UnsupportedProblemError.
    """
    _preflight(_spectrum_phase(h)[1])
    h_mat = h if isinstance(h, HermitianMatrix) else HermitianMatrix.from_entries(h)
    if h_mat.dimension < 2:
        raise UnsupportedProblemError(
            f"dimension {h_mat.dimension} has a single level: no spectral gap"
        )
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
    u0_norm = np.linalg.norm(u0)
    if u0_norm == 0.0:
        raise InvalidArgumentError("initial state must be nonzero")
    u0 = u0 / u0_norm
    ground = vectors[:, 0]
    alpha0_sq = float(np.abs(ground.conj() @ u0) ** 2)
    if alpha0_sq < 1e-14:
        raise InvalidArgumentError("initial state has no overlap with the ground state")
    t_final = estimate_t_final(gap, alpha0_sq, epsilon)

    shifted = energies - energies[0]
    width = float(shifted[-1])
    default = default_p_grid(epsilon=epsilon, t=t_final, lambda_max=width)
    p_grid = _p_grid_from(p_grid, default.half_width, default.count)
    _preflight(_decay_phase(p_grid.count, vectors))
    _check_p_grid(p_grid, t_final * width, epsilon)
    factors = decay_factors(shifted, p_grid, t_final, "integration")
    u_t = _matvec(vectors, factors * _matvec(vectors.conj().T, u0))
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
        p_grid=p_grid,
        predicted_error=_relaxation_error(p_grid, epsilon, t_final, width, gap),
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
    auxiliary domain; the grid check takes that reach and eps = 1e-3.  A
    spectrum, density matrices or O(N) arrays past a cap of ``core`` are
    refused with ResourceLimitError before allocation.
    """
    if not beta > 0:
        raise InvalidArgumentError(f"beta must be positive, got {beta}")
    n, spectrum = _spectrum_phase(h)
    density = (f"the density matrices of dimension {n}", _DENSITY_COPIES * 16 * n * n, n**3)
    _preflight(spectrum, density)
    h_mat = h if isinstance(h, HermitianMatrix) else HermitianMatrix.from_entries(h)
    dim = h_mat.dimension
    energies, vectors = h_mat.spectrum
    partition_z = float(np.exp(-beta * energies).sum())
    epsilon = 1e-3

    reach = beta / 2.0 * float(energies[-1] - energies[0])
    p_grid = _p_grid_from(p_grid, max(GIBBS_P_HALF_WIDTH, reach + 4.0), GIBBS_P_COUNT)
    _preflight(_decay_phase(p_grid.count, vectors))
    _check_p_grid(p_grid, reach, epsilon)
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


def compute_moments(w, grids) -> MomentReport:
    """Quadrature moments of a phase-space density W(x, k).

    ``w`` holds W row-major over the x axes, then the k axes, of ``grids``
    = (x_grids, k_grids), e.g. ``(model.x_grids, model.k_grids)``.
    mass = sum W dx dk, momentum_l = sum k_l W dx dk, energy = sum |k|^2/2
    W dx dk.  Requires a real-valued W (imaginary residue above 1e-8 is an
    error).
    """
    x_grids, k_grids = grids
    x_grids = [x_grids] if isinstance(x_grids, Grid1D) else list(x_grids)
    k_grids = [k_grids] if isinstance(k_grids, Grid1D) else list(k_grids)
    shape = tuple(g.count for g in x_grids) + tuple(g.count for g in k_grids)
    arr = np.asarray(w).reshape(shape)
    if np.iscomplexobj(arr):
        if float(np.abs(arr.imag).max()) > 1e-8:
            raise InvalidArgumentError("moments require a real-valued density")
        arr = arr.real
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
    would estimate between the observable state and the density state,
    both arrays of one length once flattened (a StateVector's amplitudes)."""
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
    return tuple(
        AxisSpec(f"x{i + 1}", g.count, g) for i, g in enumerate(model.x_grids)
    ) + tuple(AxisSpec(f"k{i + 1}", g.count, g) for i, g in enumerate(model.k_grids))


def _transport_phases(jd: int, kd: int, count: int) -> list:
    """The pair build and the lifted copies of a transport model of ``jd``
    spatial frequencies and ``kd`` velocities on ``count`` modes, from the
    counts alone, before the pair exists; ``_transport_p_grid`` prices the
    lifted run's evolution."""
    return [
        (
            f"the pair build of {jd} spatial frequencies and {kd} velocities",
            _PAIR_BUILD_STACKS * 16 * jd * kd * kd,
            0,
        ),
        _lifted_phase(jd * kd, count, 0, 0),
    ]


def _run_transport_phases(jd: int, kd: int, p_config) -> list:
    """The phases of ``run_transport``: ``_transport_phases`` on the count of
    ``p_config`` and the ``transport_exact`` reference, from the counts alone."""
    # the count alone sets the sizes; the half-width is a placeholder
    count = _p_grid_from(p_config, 1.0, TRANSPORT_P_COUNT).count
    reference = (
        f"the transport_exact reference of {jd} spatial frequencies and {kd} velocities",
        _PADE_COPIES * 16 * min(jd * kd * kd, max(kd * kd, _EXPM_CHUNK)),
        jd * kd**3,
    )
    return _transport_phases(jd, kd, count) + [reference]


def _transport_p_grid(model: TransportModel, p_config, t: float) -> tuple[Grid1D, tuple, tuple]:
    """Auxiliary grid of a transport run, ``p_config`` over the defaults N = 64
    and L = max(8, t*lambda_max + 4), the rest of its grid check: reach
    t*lambda_max, eps, and the smallest rate lambda_min and max-norm of H,
    and its lifted run's phase, priced by ``_propagator`` from the rates and
    the range of the advection symbol xi . k before the pair exists."""
    bounds = model._intervals
    (lam_min, lam_max), _ = bounds
    reach = t * max(-lam_min, lam_max)
    p_grid = _p_grid_from(p_config, max(TRANSPORT_P_HALF_WIDTH, reach + 4.0), TRANSPORT_P_COUNT)
    jd, kd = model.x_count, model.k_count
    _, work, held = _propagator((jd, kd, kd), bounds, p_grid, t)
    check = (reach, _TRANSPORT_EPSILON, lam_min, float(np.abs(model.collision_matrix()).max()))
    return p_grid, check, _lifted_phase(jd * kd, p_grid.count, held, work)


def _to_frequencies(model: TransportModel, w_state: StateVector) -> StateVector:
    """Unitary Fourier transform of the x axes: the state over (xi, k)."""
    arr = w_state.as_array()
    if np.iscomplexobj(arr) and (
        float(np.abs(arr.imag).max()) > 1e-12 or float(arr.real.min()) < -1e-12
    ):
        warnings.warn(
            "transport initial data should be real and nonnegative",
            AccuracyWarning,
            stacklevel=3,
        )
    d = model.dimension
    spec = np.fft.fftn(arr, axes=tuple(range(d)), norm="ortho")
    layout_xi = tuple(
        AxisSpec(f"xi{i + 1}", g.count, g) for i, g in enumerate(model.x_grids)
    ) + _transport_layout(model)[d:]
    return StateVector(spec.reshape(-1), layout_xi)


def _from_frequencies(model: TransportModel, spec_state: StateVector) -> StateVector:
    """Inverse of ``_to_frequencies``: the state over (x, k)."""
    w = np.fft.ifftn(spec_state.as_array(), axes=tuple(range(model.dimension)), norm="ortho")
    return StateVector(w.reshape(-1), _transport_layout(model))


def _transport_state(model: TransportModel, w0) -> StateVector:
    if isinstance(w0, StateVector):
        return w0
    return StateVector(np.asarray(w0, dtype=complex).reshape(-1), _transport_layout(model))


def run_transport(
    model: TransportModel,
    w0,
    p_config=None,
    t: float = 0.0,
) -> TransportRunResult:
    """Transport pipeline over (x, k): spatial Fourier transform,
    ``evolve_lifted``, inverse spatial transform.

    The per-mode generator is mu*(Sigma - sigma) + diag(xi . k): the
    scattering enters through the loss-gain matrix (positive semi-definite
    for nonnegative sigma) and the advection through the diagonal symbol.
    With x Fourier transformed it is block diagonal, one K^d x K^d block per
    spatial frequency xi: ``model.hermitian_pair()`` builds H and Hbar as
    (J^d, K^d, K^d) block stacks, so neither the (J^d K^d)^2 generator nor
    any matrix of that size is ever formed; ``evolve_blocks`` evolves them
    by the Chebyshev recurrence or, on long runs (from about t = 6 at J = K =
    16), by per-mode decompositions of the stacks.  The reference is
    ``transport_exact`` on the same (x, k) grid: the exact exponential of
    each spatial frequency's K^d x K^d generator, built from the
    scattering data rather than from the pair.  Recovery, the
    projection bookkeeping and the cost come from ``evolve_lifted`` in
    (xi, k) space, where the norms equal those over (x, k) to rounding;
    the cost is priced at precision eps = 1e-3.
    ``p_config`` is None, a Grid1D or an (L, N) pair whose None entries
    take the defaults N=64 and L = max(8, t*lambda_max + 4), lambda_max
    the largest scattering rate, so the convected profile stays inside
    the auxiliary domain; a given L at or below t*lambda_max warns, as do
    exp(-L) not below the run's eps = 1e-3 and a growing loss-gain matrix.
    A negative or non-finite t raises InvalidArgumentError first.  A pair
    build, lifted run (its evolution priced from the scattering rates and
    the advection range) or reference past a cap of ``core`` raises
    ResourceLimitError before any of them starts.
    """
    _check_time(t)
    _preflight(*_run_transport_phases(model.x_count, model.k_count, p_config))
    p_grid, check, lifted = _transport_p_grid(model, p_config, t)
    _preflight(lifted)
    w0_state = _transport_state(model, w0)
    _check_p_grid(p_grid, *check)
    rec = evolve_lifted(
        _to_frequencies(model, w0_state), model.hermitian_pair(), p_grid, t,
        epsilon=_TRANSPORT_EPSILON,
    )[1]
    w_rec_state = _from_frequencies(model, rec.u)
    w_ref = transport_exact(model, w0_state.as_array(), t)
    w_ref_state = StateVector(w_ref.reshape(-1), _transport_layout(model))
    err = float(
        np.linalg.norm(w_rec_state.amplitudes - w_ref_state.amplitudes)
        / np.linalg.norm(w_ref_state.amplitudes)
    )
    moments = compute_moments(w_rec_state.amplitudes.real, (model.x_grids, model.k_grids))
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


def _positive_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        math.isfinite(value) and value > 0
    ):
        raise InvalidArgumentError(f"{name} must be finite and > 0, got {value!r}")


def find_stationary_transport(
    model: TransportModel,
    w0,
    leg: float = 0.5,
    tol: float = 1e-8,
    max_legs: int = 200,
):
    """Long-time transport evolution until ||W(t+leg) - W(t)|| < tol.

    Runs the pipeline leg by leg (re-lifting the recovered state each time)
    rather than solving a nullspace problem, so the stationary state is
    produced by the same machinery as the transient runs, and equals that
    many chained ``run_transport`` legs bit for bit: after
    ``run_transport``'s grid check (on the default grid only growth warns),
    each leg is one ``evolve_lifted`` of the same pair, auxiliary grid and
    leg time, so its cost estimate picks the same path every leg, and the
    pair's spectral bounds are the scattering rates, decomposed once for
    the whole search.  The legs skip the reference and moments of
    ``run_transport``.
    ``leg`` and ``tol`` must be finite and > 0 and ``max_legs`` an int >= 1,
    else InvalidArgumentError before any evolution; a pair build or legs
    past a cap of ``core`` are refused with ResourceLimitError before any
    is built.  Returns (W_stationary, legs_used, converged).
    """
    _positive_finite("leg", leg)
    _positive_finite("tol", tol)
    if isinstance(max_legs, bool) or not isinstance(max_legs, numbers.Integral) or max_legs < 1:
        raise InvalidArgumentError(f"max_legs must be an int >= 1, got {max_legs!r}")
    _preflight(*_transport_phases(model.x_count, model.k_count, TRANSPORT_P_COUNT))
    p_grid, check, lifted = _transport_p_grid(model, None, leg)
    _preflight(lifted)
    current = _transport_state(model, w0)
    pair = model.hermitian_pair()
    _check_p_grid(p_grid, *check)
    for n in range(1, max_legs + 1):
        rec = evolve_lifted(
            _to_frequencies(model, current), pair, p_grid, leg, epsilon=_TRANSPORT_EPSILON
        )[1]
        nxt = _from_frequencies(model, rec.u)
        delta = float(np.linalg.norm(nxt.amplitudes - current.amplitudes))
        current = nxt
        if delta < tol:
            return current, n, True
    return current, max_legs, False

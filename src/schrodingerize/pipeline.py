"""The warped-phase pipeline: lift, transform, evolve, recover.

Given du/dt = -A u with A = H + i*Hbar, the state is lifted into an
auxiliary decay variable p,

    w(0, x, p) = exp(-|p|) u0(x),

which obeys dw/dt = H dw/dp - i*Hbar w: the profile convects left at the
dissipation rate, so no boundary condition is needed at p = 0 and the
original solution is recovered from the p >= 0 block.

Auxiliary transform convention
------------------------------
The forward transform expands w along the trailing axis in the basis
exp(-i*mu_j*p) with the unitary kernel, then reorders the modes ascending.
Under this convention every mode amplitude obeys a Schrodinger equation
with Hermitian generator mu_j*H + Hbar, so the flattened evolution is
exp(-i*(H (x) D + Hbar (x) 1)*t) with D the ascending mode diagonal.  (With
the opposite kernel the generator would be -mu_j*H + Hbar; only the mode
labelling differs.)

Three recovery routes are provided: trapezoid quadrature over p >= 0, point
evaluation exp(p*) w(., p*), and projection onto the p >= 0 block with its
measurement probability and amplification cost factor.  ``evolve_lifted`` is
the one run of the whole path: it recovers by quadrature, attaches the
projection's two numbers and prices the run.  ``evolve_eigenbasis`` gives
the same result when Hbar = 0 from the spectrum of H, lifting one auxiliary
row per distinct eigenvalue instead of the whole state.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    AccuracyWarning,
    AxisSpec,
    DegenerateStateError,
    Grid1D,
    InvalidArgumentError,
    StateVector,
)
from .costs import CostReport, schrodingerisation_cost
from .operators import EtaDiagonal, HermitianPair, assemble_eta_diagonal, hermitian_decompose

__all__ = [
    "WarpedState",
    "SpectralState",
    "RecoveryResult",
    "default_p_grid",
    "warp_extend",
    "dft_p",
    "idft_p",
    "evolve_blocks",
    "recover_integrate",
    "recover_point",
    "project_positive",
    "decay_factors",
    "evolve_lifted",
    "evolve_eigenbasis",
    "schrodingerize_evolve",
]

DEFAULT_P_HALF_WIDTH = 12.0
DEFAULT_P_COUNT = 256


@dataclass(frozen=True)
class WarpedState:
    """State with a trailing auxiliary axis p, in physical p-space."""

    state: StateVector
    p_grid: Grid1D

    def __post_init__(self):
        last = self.state.layout[-1]
        if last.name != "p" or last.count != self.p_grid.count:
            raise InvalidArgumentError("warped state must end with the p axis")


@dataclass(frozen=True)
class SpectralState:
    """State with a trailing auxiliary-mode axis eta, ascending mode order."""

    state: StateVector
    eta_grid: Grid1D

    def __post_init__(self):
        last = self.state.layout[-1]
        if last.name != "eta" or last.count != self.eta_grid.count:
            raise InvalidArgumentError("spectral state must end with the eta axis")


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered solution over the non-auxiliary axes.

    ``u`` carries the physical magnitude for the integration and point
    routes; the projection route returns the normalized direction with the
    magnitude estimate in ``u_norm``, the measurement ``success_probability``
    and the amplification ``cost_factor`` |w| / (sqrt(N/(2L)) |u|).
    ``evolve_lifted`` adds the projection's two numbers, the lifted
    ``spectral_norms`` before and after the evolution and the ``cost``
    report to its quadrature recovery.
    """

    u: StateVector
    method: str
    success_probability: float | None = None
    p_star: float | None = None
    u_norm: float | None = None
    cost_factor: float | None = None
    spectral_norms: tuple[float, float] | None = None
    cost: CostReport | None = None


def default_p_grid(epsilon: float | None = None, t: float = 0.0, lambda_max: float = 0.0) -> Grid1D:
    """Auxiliary grid defaults.

    Without a precision target this is the package default (L=12, N=256).
    With a target eps the half-width covers truncation exp(-L) < eps plus
    the convection distance t*lambda_max, and the spacing honours
    dp <= min(0.05, eps); the kink of exp(-|p|) at p = 0 limits the
    spectral accuracy in p to second order, so precision is bought with N
    rather than with smoothing.
    """
    if epsilon is None:
        return Grid1D(DEFAULT_P_HALF_WIDTH, DEFAULT_P_COUNT)
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
    half_width = max(DEFAULT_P_HALF_WIDTH, math.log(1.0 / epsilon) + t * lambda_max + 2.0)
    dp = min(0.05, epsilon)
    count = int(math.ceil(2.0 * half_width / dp))
    count += count % 2
    return Grid1D(half_width, max(count, 2))


def _p_grid_from(
    p_config,
    half_width=DEFAULT_P_HALF_WIDTH,
    count: int = DEFAULT_P_COUNT,
) -> Grid1D:
    """Auxiliary grid of ``p_config``, one experiment's defaults filling the gaps.

    ``p_config`` is None, a Grid1D, or a (half_width, count) pair whose None
    entries take the defaults.  ``half_width`` may be a callable, evaluated
    only when the half-width is not given, for defaults that cost work.
    """
    if isinstance(p_config, Grid1D):
        return p_config
    given_width, given_count = p_config or (None, None)
    if given_width is None:
        given_width = half_width() if callable(half_width) else half_width
    return Grid1D(float(given_width), int(count if given_count is None else given_count))


def _warn_truncation(p_grid: Grid1D, truncation_tol: float) -> None:
    """Warn the caller's caller when exp(-half_width) is not below the tolerance."""
    if math.exp(-p_grid.half_width) >= truncation_tol:
        warnings.warn(
            f"exp(-{p_grid.half_width:g}) = {math.exp(-p_grid.half_width):.2e} "
            f"exceeds the requested truncation tolerance {truncation_tol:g}",
            AccuracyWarning,
            stacklevel=3,
        )


def _warn_convection(t: float, lam_max: float, p_grid: Grid1D) -> None:
    """Warn the caller's caller when the profile convects past the p boundary."""
    if t * lam_max >= p_grid.half_width:
        warnings.warn(
            f"convection t*lambda_max = {t * lam_max:.2f} reaches the p boundary "
            f"{p_grid.half_width:g}; refine the auxiliary domain",
            AccuracyWarning,
            stacklevel=3,
        )


def warp_extend(u0: StateVector, p_grid: Grid1D, truncation_tol: float = 1e-4) -> WarpedState:
    """Lift u0 into w(0, x, p) = exp(-|p|) u0(x) on the extended p grid.

    Warns when exp(-half_width) is not below ``truncation_tol``: the
    periodic wrap then feeds visible mass back into the domain.
    """
    _warn_truncation(p_grid, truncation_tol)
    profile = np.exp(-np.abs(p_grid.points))
    amplitudes = np.multiply.outer(u0.amplitudes, profile)
    layout = u0.layout + (AxisSpec("p", p_grid.count, p_grid),)
    return WarpedState(StateVector(amplitudes.reshape(-1), layout), p_grid)


def _phase(n: int) -> np.ndarray:
    # exp(+i*mu_k*p_0) for p_0 = -half_width: real alternating signs.
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def dft_p(w: WarpedState) -> SpectralState:
    """Unitary forward transform of the trailing p axis, modes ascending.

    Bin j holds the coefficient of exp(-i*mu_j*p); a pure tone
    exp(-i*mu*p) therefore lands on the single mode +mu.
    """
    arr = w.state.as_array()
    n = w.p_grid.count
    spec = np.fft.ifft(arr, axis=-1, norm="ortho") * _phase(n)
    spec = np.fft.fftshift(spec, axes=-1)
    layout = w.state.layout[:-1] + (AxisSpec("eta", n, w.p_grid),)
    return SpectralState(StateVector(spec.reshape(-1), layout), w.p_grid)


def idft_p(s: SpectralState) -> WarpedState:
    """Inverse of dft_p; the round trip is exact to unitary rounding."""
    arr = s.state.as_array()
    n = s.eta_grid.count
    spec = np.fft.ifftshift(arr, axes=-1) * _phase(n)
    phys = np.fft.fft(spec, axis=-1, norm="ortho")
    layout = s.state.layout[:-1] + (AxisSpec("p", n, s.eta_grid),)
    return WarpedState(StateVector(phys.reshape(-1), layout), s.eta_grid)


def _resolve_workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SCHRO_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def evolve_blocks(
    s0: SpectralState,
    pair: HermitianPair,
    d_matrix: EtaDiagonal,
    t: float,
    workers: int | None = None,
) -> SpectralState:
    """Evolve each mode slice by exp(-i*t*(mu_j*H + Hbar)), exact in time.

    Flattened, this equals exp(-i*(H (x) D + Hbar (x) 1)*t).  With Hbar = 0
    all modes share the eigenbasis of H, read from its cached spectrum.
    Otherwise every mode is decomposed block by block: H and Hbar carry the
    same (B, b, b) stack shape (B = 1 for a matrix without block
    structure), and each mode takes one batched eigendecomposition of
    mu_j*H.blocks + Hbar.blocks.  For transport, whose x axis is Fourier
    transformed, that is one K^d x K^d block per spatial frequency.  Modes
    are independent, so they may be processed by ``workers`` threads;
    results are written into preallocated slots, making the output
    identical for any worker count.
    """
    if t < 0:
        raise InvalidArgumentError(f"evolution time must be nonnegative, got {t}")
    n = d_matrix.count
    if s0.eta_grid.count != n:
        raise InvalidArgumentError("eta axis and mode diagonal disagree in size")
    arr = s0.state.amplitudes.reshape(-1, n)
    if arr.shape[0] != pair.h.dimension:
        raise InvalidArgumentError(
            f"state block dimension {arr.shape[0]} != Hamiltonian dimension {pair.h.dimension}"
        )
    mus = d_matrix.diagonal
    if pair.h_bar.max_norm == 0.0:
        lam, vec = pair.h.spectrum
        coeff = vec.conj().T @ arr
        coeff = coeff * np.exp(-1j * t * np.outer(lam, mus))
        out = vec @ coeff
        return SpectralState(s0.state.with_amplitudes(out.reshape(-1)), s0.eta_grid)

    h_blocks = pair.h.blocks
    hbar_blocks = pair.h_bar.blocks
    blocks_in = arr.reshape(-1, h_blocks.shape[-1], n)
    blocks_out = np.empty_like(blocks_in)

    def run_block(j: int) -> None:
        lam, vec = np.linalg.eigh(mus[j] * h_blocks + hbar_blocks)
        coeff = vec.conj().transpose(0, 2, 1) @ blocks_in[:, :, j, None]
        blocks_out[:, :, j] = (vec @ (np.exp(-1j * t * lam)[:, :, None] * coeff))[:, :, 0]

    nworkers = _resolve_workers(workers)
    if nworkers == 1:
        for j in range(n):
            run_block(j)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run_block, range(n)))
    return SpectralState(s0.state.with_amplitudes(blocks_out.reshape(-1)), s0.eta_grid)


def _positive_indices(p_grid: Grid1D) -> np.ndarray:
    return np.arange(p_grid.count // 2, p_grid.count)


def _integration_calibration(grid: Grid1D) -> float:
    """The trapezoid rule of ``recover_integrate`` applied to exp(-|p|)."""
    pos = _positive_indices(grid)
    profile = np.exp(-np.abs(grid.points))
    return grid.spacing * (0.5 * profile[pos[0]] + 0.5 * profile[0] + profile[pos[1:]].sum())


def _projection_weights(grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Indices of the p >= 0 block, their weights (p = 0 counted half), the
    profile exp(-p) there and its weighted squared norm."""
    pos = _positive_indices(grid)
    weights = np.ones(pos.size)
    weights[0] = 0.5
    profile = np.exp(-grid.points[pos])
    return pos, weights, profile, float(np.sum(weights * profile**2))


def recover_integrate(w: WarpedState, calibrate: bool = False) -> RecoveryResult:
    """u(x) = integral of w(x, p) over p >= 0 by the trapezoid rule.

    Nodes run from p = 0 to p = half_width, the endpoint taken from the
    periodic image p = -half_width, with half weights at both ends.  With
    ``calibrate`` the result is divided by the same quadrature applied to
    the initial profile exp(-|p|) (exactly 1 in the continuum), which
    removes the O(dp^2) quadrature bias shared by all modes and makes the
    t = 0 round trip exact.
    """
    grid = w.p_grid
    arr = w.state.as_array()
    n = grid.count
    pos = _positive_indices(grid)
    dp = grid.spacing
    acc = 0.5 * arr[..., pos[0]] + 0.5 * arr[..., 0]  # half weights at p=0 and p=L
    acc = acc + arr[..., pos[1:]].sum(axis=-1)
    u = dp * acc
    if calibrate:
        u = u / _integration_calibration(grid)
    layout = w.state.layout[:-1]
    return RecoveryResult(u=StateVector(u.reshape(-1), layout), method="integration")


def recover_point(
    w: WarpedState,
    p_star: float,
    convection_estimate: float | None = None,
) -> RecoveryResult:
    """u(x) = exp(p*) w(x, p*) at a positive grid point p*.

    No interpolation: p* must lie on the grid.  The value at p* is only
    meaningful while the convected profile has not wrapped past it, i.e.
    while t*lambda_max < half_width - p*; pass ``convection_estimate`` =
    t*lambda_max to get a warning when the window is violated.
    """
    grid = w.p_grid
    if p_star <= 0:
        raise InvalidArgumentError(f"p_star must be positive, got {p_star}")
    idx = int(round((p_star + grid.half_width) / grid.spacing))
    if idx < 0 or idx >= grid.count or abs(grid.points[idx] - p_star) > 1e-9 * max(1.0, p_star):
        raise InvalidArgumentError(f"p_star = {p_star} is not a grid point")
    if convection_estimate is not None and convection_estimate >= grid.half_width - p_star:
        warnings.warn(
            f"point recovery outside its validity window: convection {convection_estimate:g} "
            f">= {grid.half_width - p_star:g}",
            AccuracyWarning,
            stacklevel=2,
        )
    u = math.exp(p_star) * w.state.as_array()[..., idx]
    layout = w.state.layout[:-1]
    return RecoveryResult(
        u=StateVector(u.reshape(-1), layout), method="point", p_star=float(p_star)
    )


def _projection_numbers(
    block_mass: float, u_norm: float, w_norm: float, p_grid: Grid1D
) -> tuple[float, float]:
    """Success probability |P w|^2 / |w|^2 and cost factor
    |w| / (sqrt(N/(2L)) |u|) of a projection onto p >= 0, from the weighted
    block mass, the fitted |u| and |w|; refuses a degenerate projection."""
    if block_mass == 0.0:
        raise DegenerateStateError("state has no support on p >= 0")
    if u_norm == 0.0:
        raise DegenerateStateError("positive block is orthogonal to the decay profile")
    normalizer = math.sqrt(p_grid.count / (2.0 * p_grid.half_width))
    return block_mass / w_norm**2, w_norm / (normalizer * u_norm)


def project_positive(w: WarpedState) -> RecoveryResult:
    """Project onto the p >= 0 block and collapse out the exp(-p) profile.

    The p = 0 slice enters with half quadrature weight.  Returns the
    normalized direction of u, the magnitude estimate from a least-squares
    fit of the profile, the projection probability
    |P w|^2 / |w|^2  ~ (|u| |exp(-p)| / |w|)^2, and the amplification cost
    factor |w| / (sqrt(N/(2L)) |u|), which equals |u(0)| / |u(t)| because
    the lifted norm is conserved.
    """
    arr = w.state.as_array()
    pos, weights, profile, denom = _projection_weights(w.p_grid)
    block = arr[..., pos]
    block_mass = float(np.sum(weights * np.abs(block) ** 2))
    u_est = (block * (weights * profile)).sum(axis=-1) / denom
    u_norm = float(np.linalg.norm(u_est))
    success, cost_factor = _projection_numbers(block_mass, u_norm, w.state.norm, w.p_grid)
    layout = w.state.layout[:-1]
    return RecoveryResult(
        u=StateVector((u_est / u_norm).reshape(-1), layout),
        method="projection",
        success_probability=success,
        u_norm=u_norm,
        cost_factor=cost_factor,
    )


def _mode_weights(p_grid: Grid1D, recovery: str) -> tuple[np.ndarray, np.ndarray]:
    """Weights c_j = a_j b_j / cal of ``decay_factors`` over the ascending
    modes, and the indices of the modes it sums.

    a_j is the mode-j coefficient of the lifted profile exp(-|p|) under
    ``dft_p``, a Poisson kernel (two geometric sums); b_j is the recovery
    pulled back through ``idft_p`` and cal its calibration.  The
    "integration" rule covers whole periods of every even mode j != 0, so
    those weights are exactly 0 and their indices are left out.
    """
    n = p_grid.count
    m = np.arange(-(n // 2), n // 2)  # mu_j = pi * m_j / half_width
    odd = m % 2 == 1
    if recovery == "integration":
        summed = np.flatnonzero(odd | (m == 0))
    elif recovery == "projection":
        summed = np.arange(n)
    else:
        raise InvalidArgumentError(f"unknown recovery method {recovery!r}")
    dp = p_grid.spacing
    r = math.exp(-dp)
    one_minus_r = -math.expm1(-dp)
    half_theta = np.pi * m / n  # half the phase step mu_j * dp
    sin_sq = np.sin(half_theta) ** 2
    q = math.exp(-p_grid.half_width) * np.where(odd, -1.0, 1.0)  # r^(N/2) (-1)^m
    a = (1.0 - q) * -math.expm1(-2.0 * dp) / (one_minus_r**2 + 4.0 * r * sin_sq)
    if recovery == "integration":
        # trapezoid over p = 0 .. half_width: L at m = 0, -i dp cot(pi m / N) at odd m
        b = np.zeros(n, dtype=complex)
        b[n // 2] = p_grid.half_width
        b[odd] = -1j * dp * np.cos(half_theta[odd]) / np.sin(half_theta[odd])
        cal = _integration_calibration(p_grid)
    else:
        # sum over p_k = k*dp >= 0 of (r exp(-i*mu_j*dp))^k, the k = 0 term halved
        one_minus_z = (one_minus_r + 2.0 * r * sin_sq) + 1j * r * np.sin(2.0 * half_theta)
        b = (1.0 - q) / one_minus_z - 0.5
        cal = _projection_weights(p_grid)[3]
    return summed, a * b / (n * cal)  # n: the two 1/sqrt(N) of the unitary transforms


# eigenvalues times modes per chunk of decay_factors: bounds its
# exp(-i t lam mu_j) block at 1 MiB
_FACTOR_CHUNK = 1 << 16


def decay_factors(lam, p_grid: Grid1D, t: float, recovery: str) -> np.ndarray:
    """Factor by which lift, evolution to time t and recovery scale an
    eigencomponent of H with eigenvalue ``lam`` when Hbar = 0.

    Every eigencomponent then relaxes on its own and each stage is linear,
    so ``evolve_lifted`` followed by the recovery equals
    V diag(g(lam)) V^dag u0 with g(lam) = sum_j c_j exp(-i t mu_j lam) over
    the ascending modes mu_j of ``dft_p``, the weights c_j in closed form.
    ``recovery`` is "integration", the calibrated trapezoid rule of
    ``recover_integrate`` (its weights vanish at every even mode j != 0,
    which is skipped), or "projection", the profile fit u_est of
    ``project_positive``, whose direction is that route's result.  The sum
    over modes runs in chunks, so memory is O(N + len(lam) * chunk) and no
    len(lam) x N array is built.  Warns like ``schrodingerize_evolve`` when
    t * max|lam| reaches the p boundary.
    """
    if t < 0:
        raise InvalidArgumentError(f"evolution time must be nonnegative, got {t}")
    summed, weights = _mode_weights(p_grid, recovery)
    lam = np.asarray(lam, dtype=float)
    _warn_convection(t, float(np.abs(lam).max(initial=0.0)), p_grid)
    weights = weights[summed]
    mus = assemble_eta_diagonal(p_grid).diagonal[summed]

    out = np.zeros(lam.shape, dtype=complex)
    step = max(1, _FACTOR_CHUNK // max(lam.size, 1))
    for start in range(0, summed.size, step):
        chunk = slice(start, start + step)
        out += np.exp(-1j * t * np.multiply.outer(lam, mus[chunk])) @ weights[chunk]
    return out


def _price(
    u0_norm: float,
    u_t_norm: float,
    t: float,
    epsilon: float,
    sparsity: int,
    max_norm: float,
    max_norm_oscillatory: float,
    size: int,
) -> CostReport:
    """Query/gate cost of a lifted run of ``size`` = dim(H) * N amplitudes,
    priced by the recovered amplification |u(0)| / |u(t)|."""
    return schrodingerisation_cost(
        norm_ratio=u0_norm / u_t_norm if u_t_norm > 0 else float("inf"),
        s=max(sparsity, 1),
        t=max(t, np.finfo(float).tiny),
        max_norm=max(max_norm, np.finfo(float).tiny),
        epsilon=epsilon,
        m_h=math.log2(size),
        max_norm_oscillatory=max_norm_oscillatory,
    )


def evolve_lifted(
    u0: StateVector,
    pair: HermitianPair,
    p_grid: Grid1D,
    t: float,
    epsilon: float = 1e-3,
    truncation_tol: float = 1e-4,
    workers: int | None = None,
) -> tuple[WarpedState, RecoveryResult]:
    """Lift u0, evolve every auxiliary mode to time t, recover, measure, price.

    The one route from an initial state to a recovered run.  Returns the
    lifted state at time t and the calibrated quadrature recovery, which
    also carries the projection's ``success_probability`` and
    ``cost_factor``, the ``spectral_norms`` before and after the evolution
    (equal to rounding, every block being unitary), and the query/gate
    ``cost`` of simulating H (x) D + Hbar (x) 1 to precision ``epsilon``,
    priced by the recovered amplification |u(0)|/|u(t)|; the auxiliary
    register adds log2(N) qubits to the system's.  Other recovery routes
    (``recover_point``, ``project_positive``) read the returned lifted state.
    """
    s0 = dft_p(warp_extend(u0, p_grid, truncation_tol=truncation_tol))
    s_t = evolve_blocks(s0, pair, assemble_eta_diagonal(p_grid), t, workers=workers)
    spectral_norms = (s0.state.norm, s_t.state.norm)
    del s0  # one lifted copy fewer while the inverse transform allocates
    w_t = idft_p(s_t)
    rec = recover_integrate(w_t, calibrate=True)
    projection = project_positive(w_t)
    cost = _price(
        u0.norm, rec.u.norm, t, epsilon,
        sparsity=max(pair.h.sparsity, pair.h_bar.sparsity),
        max_norm=pair.h.max_norm,
        max_norm_oscillatory=pair.h_bar.max_norm,
        size=pair.h.dimension * p_grid.count,
    )
    return w_t, replace(
        rec,
        success_probability=projection.success_probability,
        cost_factor=projection.cost_factor,
        spectral_norms=spectral_norms,
        cost=cost,
    )


class _Rows(NamedTuple):
    """Read-outs of ``_lifted_rows``, one entry per eigenvalue."""

    integration: np.ndarray  # calibrated quadrature factor g(lam)
    fit: np.ndarray  # profile-fit factor of ``project_positive``
    block_mass: np.ndarray  # weighted squared norm of the p >= 0 block
    spectral_sq: np.ndarray  # squared norm of the evolved mode spectrum
    initial_sq: float  # squared norm of the lifted mode spectrum at t = 0


def _lifted_rows(lam: np.ndarray, p_grid: Grid1D, t: float) -> _Rows:
    """Lift the unit profile exp(-|p|), evolve it as the eigencomponent of
    each eigenvalue in ``lam`` (Hbar = 0: every mode mu_j turns by
    exp(-i t mu_j lam)), transform back and read out each length-N row."""
    unit = StateVector(np.ones(1), (AxisSpec("lambda", 1),))
    profile = dft_p(warp_extend(unit, p_grid)).state.amplitudes
    # in place: when every eigenvalue of H is distinct the rows are as large
    # as the lifted state, and idft_p adds its own copies
    spec = np.multiply.outer(lam, assemble_eta_diagonal(p_grid).diagonal) * (-1j * t)
    np.exp(spec, out=spec)
    spec *= profile
    spectral_sq = (np.abs(spec) ** 2).sum(axis=-1)
    layout = (AxisSpec("lambda", lam.size), AxisSpec("eta", p_grid.count, p_grid))
    s_t = SpectralState(StateVector(spec.reshape(-1), layout), p_grid)
    del spec
    w_t = idft_p(s_t)
    pos, weights, decay, denom = _projection_weights(p_grid)
    block = w_t.state.as_array()[:, pos]
    return _Rows(
        integration=recover_integrate(w_t, calibrate=True).u.amplitudes,
        fit=block @ (weights * decay) / denom,
        block_mass=np.abs(block) ** 2 @ weights,
        spectral_sq=spectral_sq,
        initial_sq=float(np.vdot(profile, profile).real),
    )


def evolve_eigenbasis(
    u0: StateVector,
    lam,
    vectors: np.ndarray | None,
    p_grid: Grid1D,
    t: float,
    sparsity: int,
    max_norm: float,
    epsilon: float = 1e-3,
) -> RecoveryResult:
    """``evolve_lifted`` for Hbar = 0, run on the spectrum of H instead of
    the lifted state.

    H = V diag(lam) V^dag, with ``vectors`` the columns of V, or None when
    H is diagonal in the unitary DFT over the axes of u0 (``lam`` then in
    the mode order of np.fft.fftn).  With Hbar = 0 each eigencomponent
    convects through p on its own, so the run only needs the coefficients
    c = V^dag u0 and one length-N row per distinct eigenvalue (exact
    equality): ``warp_extend``, ``dft_p``, the phase exp(-i t mu_j lam),
    ``idft_p``.  Each row gives the calibrated quadrature factor, the
    profile-fit factor and the p >= 0 block mass of its eigenvalue and the
    norm of its evolved mode spectrum; weighted by |c|^2 they make the
    ``RecoveryResult`` of ``evolve_lifted``: the solution ``u``, the
    projection's ``success_probability`` and ``cost_factor``, the
    ``spectral_norms`` and the ``cost``, priced by the same rule from the
    ``sparsity`` and ``max_norm`` of H.  The largest arrays hold one row
    per distinct eigenvalue: 129 x N for a 256-point Laplacian, dim x N
    when every eigenvalue is distinct.

    Warns when exp(-L) is not below 1e-4 (the default of ``warp_extend``),
    and when the part of u0 on eigencomponents with t*|lam| >= L, which
    convect past the p boundary, has norm above ``epsilon`` * |u0|.
    """
    if t < 0:
        raise InvalidArgumentError(f"evolution time must be nonnegative, got {t}")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size != u0.amplitudes.size:
        raise InvalidArgumentError(
            f"{lam.size} eigenvalues for a state of length {u0.amplitudes.size}"
        )
    if vectors is None:
        coeffs = np.fft.fftn(u0.as_array(), norm="ortho").reshape(-1)
    else:
        coeffs = vectors.conj().T @ u0.amplitudes
    weight = np.abs(coeffs) ** 2
    wrapped = float(np.sqrt(weight[t * np.abs(lam) >= p_grid.half_width].sum()))
    if wrapped > epsilon * u0.norm:
        warnings.warn(
            f"a part of norm {wrapped / u0.norm:.2e} |u0| sits on eigencomponents with "
            f"t*lambda >= {p_grid.half_width:g}, which convect past the p boundary; "
            "refine the auxiliary domain",
            AccuracyWarning,
            stacklevel=2,
        )

    values, inverse = np.unique(lam, return_inverse=True)
    rows = _lifted_rows(values, p_grid, t)
    mass = np.bincount(inverse, weights=weight, minlength=values.size)
    w_norm = math.sqrt(float(mass @ rows.spectral_sq))
    success, cost_factor = _projection_numbers(
        float(mass @ rows.block_mass),
        float(np.linalg.norm(coeffs * rows.fit[inverse])),
        w_norm,
        p_grid,
    )
    u_coeffs = coeffs * rows.integration[inverse]
    if vectors is None:
        u = np.fft.ifftn(u_coeffs.reshape(u0.shape), norm="ortho")
    else:
        u = vectors @ u_coeffs
    u = u0.with_amplitudes(u)
    return RecoveryResult(
        u=u,
        method="integration",
        success_probability=success,
        cost_factor=cost_factor,
        spectral_norms=(math.sqrt(float(mass.sum()) * rows.initial_sq), w_norm),
        cost=_price(
            u0.norm, u.norm, t, epsilon,
            sparsity=sparsity,
            max_norm=max_norm,
            max_norm_oscillatory=0.0,
            size=lam.size * p_grid.count,
        ),
    )


def schrodingerize_evolve(
    u0: StateVector,
    a_matrix: np.ndarray,
    p_grid: Grid1D | tuple | None,
    t: float,
    epsilon: float = 1e-3,
    workers: int | None = None,
) -> tuple[WarpedState, RecoveryResult]:
    """End-to-end run for du/dt = -A u: decompose A = H + i*Hbar, then
    ``evolve_lifted``.

    ``p_grid`` is None, a Grid1D or an (L, N) pair whose None entries take
    the defaults L=12, N=256.  Warns when t*lambda_max(H) reaches the p
    boundary.  Returns the lifted state at time t and the recovery of
    ``evolve_lifted``: the calibrated quadrature solution with its success
    probability, cost factor, spectral norms and cost report.
    """
    a = np.asarray(a_matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] != u0.amplitudes.size:
        raise InvalidArgumentError(
            f"matrix dimension {a.shape[0]} != state length {u0.amplitudes.size}"
        )
    pair = hermitian_decompose(a)
    p_grid = _p_grid_from(p_grid)
    lam_max = float(np.abs(pair.h.spectrum[0]).max()) if pair.h.max_norm > 0 else 0.0
    _warn_convection(t, lam_max, p_grid)
    return evolve_lifted(
        u0, pair, p_grid, t, epsilon=epsilon, truncation_tol=max(1e-4, epsilon), workers=workers
    )

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
measurement probability and amplification cost factor.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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
    "evolve_splitstep_heat",
    "recover_integrate",
    "recover_point",
    "project_positive",
    "decay_factors",
    "evolve_lifted",
    "run_cost",
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
    """

    u: StateVector
    method: str
    success_probability: float | None = None
    p_star: float | None = None
    u_norm: float | None = None
    cost_factor: float | None = None
    cost: object | None = None


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


def evolve_splitstep_heat(
    s0: SpectralState,
    potential,
    grids,
    t: float,
    steps: int,
) -> SpectralState:
    """Strang split-step fast path for heat-form problems (Hbar = 0).

    Exploits that the Laplacian is diagonal in the spatial Fourier basis
    and the potential is diagonal in space: per substep
    exp(-i dt mu V/2) F^-1 exp(-i dt mu |xi|^2) F exp(-i dt mu V/2).
    Exact for V = 0; otherwise second order, error O((t/steps)^2).
    """
    if isinstance(grids, Grid1D):
        grids = [grids]
    grids = list(grids)
    if steps < 1:
        raise InvalidArgumentError(f"steps must be >= 1, got {steps}")
    if t < 0:
        raise InvalidArgumentError(f"evolution time must be nonnegative, got {t}")
    n = s0.eta_grid.count
    shape = tuple(g.count for g in grids) + (n,)
    arr = s0.state.amplitudes.reshape(shape)
    x_axes = tuple(range(len(grids)))
    mus = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=s0.eta_grid.spacing))

    ksq = np.zeros(shape[:-1])
    for axis, g in enumerate(grids):
        xi = 2.0 * np.pi * np.fft.fftfreq(g.count, d=g.spacing)
        sh = [1] * len(shape[:-1])
        sh[axis] = g.count
        ksq = ksq + (xi**2).reshape(sh)

    if potential is None:
        v = np.zeros(shape[:-1])
    elif callable(potential):
        axes = np.meshgrid(*[g.points for g in grids], indexing="ij")
        v = np.broadcast_to(np.asarray(potential(*axes)), shape[:-1])
    else:
        v = np.broadcast_to(np.asarray(potential), shape[:-1])
    if np.iscomplexobj(v) and np.abs(np.asarray(v).imag).max() > 0:
        raise InvalidArgumentError("split-step path requires a real potential (heat form)")
    v = np.asarray(v, dtype=float)

    if not np.any(v):
        phase = np.exp(-1j * t * ksq[..., None] * mus)
        out = np.fft.ifftn(np.fft.fftn(arr, axes=x_axes) * phase, axes=x_axes)
        return SpectralState(s0.state.with_amplitudes(out.reshape(-1)), s0.eta_grid)

    dt = t / steps
    half_v = np.exp(-0.5j * dt * v[..., None] * mus)
    kin = np.exp(-1j * dt * ksq[..., None] * mus)
    out = arr
    for _ in range(steps):
        out = out * half_v
        out = np.fft.ifftn(np.fft.fftn(out, axes=x_axes) * kin, axes=x_axes)
        out = out * half_v
    return SpectralState(s0.state.with_amplitudes(out.reshape(-1)), s0.eta_grid)


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


def project_positive(w: WarpedState) -> RecoveryResult:
    """Project onto the p >= 0 block and collapse out the exp(-p) profile.

    The p = 0 slice enters with half quadrature weight.  Returns the
    normalized direction of u, the magnitude estimate from a least-squares
    fit of the profile, the projection probability
    |P w|^2 / |w|^2  ~ (|u| |exp(-p)| / |w|)^2, and the amplification cost
    factor |w| / (sqrt(N/(2L)) |u|), which equals |u(0)| / |u(t)| because
    the lifted norm is conserved.
    """
    grid = w.p_grid
    arr = w.state.as_array()
    pos, weights, profile, denom = _projection_weights(grid)
    block = arr[..., pos]
    block_mass = float(np.sum(weights * np.abs(block) ** 2))
    if block_mass == 0.0:
        raise DegenerateStateError("state has no support on p >= 0")
    u_est = (block * (weights * profile)).sum(axis=-1) / denom
    u_norm = float(np.linalg.norm(u_est))
    if u_norm == 0.0:
        raise DegenerateStateError("positive block is orthogonal to the decay profile")
    w_norm = w.state.norm
    success = block_mass / w_norm**2
    normalizer = math.sqrt(grid.count / (2.0 * grid.half_width))
    cost_factor = w_norm / (normalizer * u_norm)
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


def evolve_lifted(
    u0: StateVector,
    pair: HermitianPair,
    p_grid: Grid1D,
    t: float,
    truncation_tol: float = 1e-4,
    workers: int | None = None,
    norms: bool = False,
) -> tuple[WarpedState, tuple[float, float] | None]:
    """Lift u0, transform p, evolve every mode to time t, transform back.

    The one route from an initial state to the lifted state at time t.
    With ``norms`` it also returns the norms of the spectral state before
    and after the evolution, which agree to rounding because every block is
    unitary; otherwise None, sparing two passes over the lifted array.
    """
    s0 = dft_p(warp_extend(u0, p_grid, truncation_tol=truncation_tol))
    s_t = evolve_blocks(s0, pair, assemble_eta_diagonal(p_grid), t, workers=workers)
    spectral_norms = (s0.state.norm, s_t.state.norm) if norms else None
    del s0  # one lifted copy fewer while the inverse transform allocates
    return idft_p(s_t), spectral_norms


def run_cost(
    pair: HermitianPair,
    p_grid: Grid1D,
    t: float,
    epsilon: float,
    norm_ratio: float,
) -> CostReport:
    """Query/gate cost of simulating H (x) D + Hbar (x) 1 for one run.

    ``norm_ratio`` is the measured amplification |u(0)|/|u(t)|; the
    auxiliary register adds log2(N) qubits to the system's.
    """
    return schrodingerisation_cost(
        norm_ratio=norm_ratio,
        s=max(pair.h.sparsity, pair.h_bar.sparsity, 1),
        t=max(t, np.finfo(float).tiny),
        max_norm=max(pair.h.max_norm, np.finfo(float).tiny),
        epsilon=epsilon,
        m_h=math.log2(pair.h.dimension * p_grid.count),
        max_norm_oscillatory=pair.h_bar.max_norm,
    )


def schrodingerize_evolve(
    u0: StateVector,
    a_matrix: np.ndarray,
    p_grid: Grid1D | tuple | None,
    t: float,
    recovery: str = "integration",
    p_star: float | None = None,
    epsilon: float = 1e-3,
    workers: int | None = None,
) -> tuple[WarpedState, RecoveryResult]:
    """End-to-end run for du/dt = -A u: decompose, lift, evolve, recover.

    ``p_grid`` is None, a Grid1D or an (L, N) pair whose None entries take
    the defaults L=12, N=256.  Returns the lifted state at time t together
    with the recovery result; the recovery carries a query/gate cost report
    for simulating the total Hamiltonian, using the measured norm ratio
    |u(0)|/|u(t)|.
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
    w_t, _ = evolve_lifted(
        u0, pair, p_grid, t, truncation_tol=max(1e-4, epsilon), workers=workers
    )
    if recovery == "integration":
        rec = recover_integrate(w_t, calibrate=True)
        u_t_norm = rec.u.norm
    elif recovery == "point":
        if p_star is None:
            p_star = p_grid.points[p_grid.count // 2 + max(1, p_grid.count // 8)]
        rec = recover_point(w_t, p_star, convection_estimate=t * lam_max)
        u_t_norm = rec.u.norm
    elif recovery == "projection":
        rec = project_positive(w_t)
        u_t_norm = rec.u_norm
    else:
        raise InvalidArgumentError(f"unknown recovery method {recovery!r}")
    norm_ratio = u0.norm / u_t_norm if u_t_norm > 0 else float("inf")
    return w_t, replace(rec, cost=run_cost(pair, p_grid, t, epsilon, norm_ratio))

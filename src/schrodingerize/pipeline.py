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

The stages pass StateVectors whose last axis carries the auxiliary grid:
"p" in physical p-space (``warp_extend``, ``idft_p``), "eta" over the
ascending modes (``dft_p``, ``evolve_blocks``); any other last axis raises
InvalidArgumentError.

Three recovery routes are provided: calibrated trapezoid quadrature over
p >= 0 and point evaluation exp(p*) w(., p*), which return the recovered
state, and projection onto the p >= 0 block, which adds its measurement
probability and amplification cost factor; the first and last read a real
weight vector off the p row (``_recovery_weights``).
``evolve_lifted`` is the one run of the whole path: it recovers by
quadrature, attaches the projection's two numbers and prices the run.
``evolve_eigenbasis`` gives the same result when Hbar = 0 from the spectrum
of H, one auxiliary row per distinct eigenvalue that u0 weighs instead of
the whole state, its modes turned by exp(-i t lam mu_j) (``_mode_phases``).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    AccuracyWarning,
    AxisSpec,
    DegenerateStateError,
    Grid1D,
    InvalidArgumentError,
    StateVector,
    _preflight,
)
from .costs import CostReport, _schrodingerisation_cost
from .operators import (
    EtaDiagonal, HermitianPair, _growth, assemble_eta_diagonal, hermitian_decompose
)

__all__ = [
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

# Bytes per auxiliary mode of the O(N) arrays of a run: mode wavenumbers,
# the weights of decay_factors and the (2, N) transform that makes them (a
# Gibbs run peaks at about 108, a ground state at 96).
_MODE_BYTES = 128
# dim x N complex copies evolve_lifted holds at once: two whole copies (the
# lifted state and its mode spectrum, or the evolved spectrum and its
# inverse transform) plus the p >= 0 blocks the recoveries read; 2.8 measured
_LIFTED_COPIES = 3
# complex (B, b, b) stacks held beside them: the pair and one mode's
# decomposition (3.5 measured for a general 64 x 64 A on 256 modes); the
# Chebyshev recurrence holds as many, the pair and its folded operators
_PAIR_STACKS = 4
# complex n x n copies of hermitian_decompose with the spectrum of H: 7.0
# measured for a complex A at n = 256 .. 1024 (5.5 for a real one)
_SPLIT_COPIES = 7

# complex entries per chunk buffer of the Chebyshev recurrence; a step costs _STEP_PER_B2
# eigh b^3-units per column and b^2, _STEP_OVERHEAD per chunk (fit: CHANGES.md)
_CHEB_CHUNK = 1 << 16
_STEP_PER_B2 = 0.23
_STEP_OVERHEAD = 2.7e4
# small eigh calls are call-bound: for the choice of path alone, one mode costs
# _EIGH_PER_B2 b^3-units per b^2 and block and _EIGH_PER_CALL more (fit: CHANGES.md)
_EIGH_PER_B2 = 56
_EIGH_PER_CALL = 9.6e3

# Fitted error model of the Hbar = 0 factor, quadrature recovery (see
# default_p_grid): constant, order in dp, and the share of the half-width's
# wrap error that the discretisation may add.
_FACTOR_ERROR_CONSTANT = 0.05
_FACTOR_ERROR_ORDER = 4
_FACTOR_ERROR_SHARE = 1e-3


@dataclass(frozen=True)
class RecoveryResult:
    """What a projection or a whole lifted run reports beside its solution.

    ``project_positive`` gives the normalized direction ``u`` with the
    magnitude estimate ``u_norm``, the measurement ``success_probability``
    and the amplification ``cost_factor`` |w| / (sqrt(N/(2L)) |u|).
    ``evolve_lifted`` and ``evolve_eigenbasis`` give the quadrature solution
    ``u`` with the projection's two numbers, the lifted ``spectral_norms``
    before and after the evolution and the ``cost`` report.
    """

    u: StateVector
    success_probability: float | None = None
    u_norm: float | None = None
    cost_factor: float | None = None
    spectral_norms: tuple[float, float] | None = None
    cost: CostReport | None = None


def _discretisation_error(dp: float, shift: float, margin: float) -> float:
    """Fitted bound C dp^4 (1/s^2 + 1/(L - s)^2) of the factor error that
    the spacing dp adds at a shift s with L - s = ``margin``, each distance
    floored at dp."""
    return _FACTOR_ERROR_CONSTANT * dp**_FACTOR_ERROR_ORDER * (
        max(shift, dp) ** -2 + max(margin, dp) ** -2
    )


def default_p_grid(epsilon: float, t: float, lambda_max: float) -> Grid1D:
    """Auxiliary grid of an Hbar = 0 relaxation to infidelity eps over time
    t of a spectrum in [0, lambda_max]; all three are required (runs that
    do not size their grid take the fixed default L=12, N=256).

    The half-width is L = max(12, ln(1/eps) + t*lambda_max + 2): the
    profile convected by t*lambda_max keeps a margin of ln(1/eps) + 2 to
    the p boundary.  L sets the accuracy floor.  Lift, evolution and
    calibrated quadrature scale an eigencomponent shifted by s = t*lambda
    by the factor g(s) with g(0) = 1.  In the continuum, on
    the periodic domain, g(s) - exp(-s) = 4 exp(-L) sinh(s/2)^2 /
    (1 - exp(-L)) <= exp(-(L - s)), the wrap error, at most eps*exp(-2)
    here.  On N points the spacing dp = 2L/N adds, at 0 < s < L,

        |g_N(s) - g(s)| <= C dp^4 (1/s^2 + 1/(L - s)^2),  C = 0.05,

    with s and L - s floored at dp: the kink of exp(-|p|), convected to
    p = -s, sits a distance s from one end of the quadrature interval
    [0, L] and L - s from the other.  Fitted against dp = 2 .. 0.05 at
    L = 6 .. 160 for both parities of N/2 (fourth order; the largest
    ratio to the bound was 0.049, at s = L/2 with N/2 odd).  Near s = 0
    the error is second order instead, about 0.036 dp^2, but a relaxation
    to eps runs t >= ln(1/eps)/gap, so every excited component has
    s >= ln(1/eps).  N is the smallest even count whose spacing keeps the
    model at s = ln(1/eps) and L - s = L - t*lambda_max within 0.1% of the
    wrap error there, so the spacing leaves the accuracy to L.  N then
    depends on eps, t and lambda_max only: 1,626 for eps = 1e-3,
    t = 17.03, lambda_max = 4 (L = 77.0), where the former rule
    dp <= min(0.05, eps) took 154,092, and 42,834 at eps = 1e-8 (L = 181)
    instead of 3.6e10.  ``_relaxation_error`` turns the same model into
    the run's predicted infidelity, eps exp(t*gap) A^2 with A the bound on
    every excited factor: 5.6e-7 for the grid above at gap 0.5, where the
    exact relaxation reaches 1.8e-8 to 3.3e-8.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must be in (0, 1), got {epsilon}")
    shift = math.log(1.0 / epsilon)
    reach = t * lambda_max
    half_width = max(DEFAULT_P_HALF_WIDTH, shift + reach + 2.0)
    margin = half_width - reach
    target = _FACTOR_ERROR_SHARE * math.exp(-margin)
    # the first spacing meets the model with unfloored distances, the
    # second with both floored at dp; either keeps the model within target
    dp = max(
        (target / (_FACTOR_ERROR_CONSTANT * (shift**-2 + margin**-2))) ** 0.25,
        math.sqrt(target / (2.0 * _FACTOR_ERROR_CONSTANT)),
    )
    return Grid1D(half_width, 2 * max(1, math.ceil(half_width / dp)))


def _relaxation_error(
    p_grid: Grid1D, epsilon: float, t: float, lambda_max: float, gap: float
) -> float:
    """Predicted infidelity of an Hbar = 0 relaxation on ``p_grid``: the
    ground component of a spectrum shifted to [0, lambda_max] with gap
    ``gap``, relaxed for t = ln(1/(eps alpha0^2))/gap.

    The excited components sit at shifts s in [t*gap, t*lambda_max], and
    each factor g(s) is at most exp(-s) + exp(-(L - s)) plus the fitted
    discretisation bound of ``default_p_grid``; so every |g(s)| is at most
    A = exp(-t*gap) + exp(-(L - t*lambda_max)) + C dp^4 (1/(t*gap)^2 +
    1/(L - t*lambda_max)^2).  The infidelity is then at most
    A^2 (1 - alpha0^2)/alpha0^2 <= eps exp(t*gap) A^2, since
    1/alpha0^2 = eps exp(t*gap).  Capped at 1, and 1 when the convected
    profile reaches the p boundary.
    """
    reach = t * lambda_max
    margin = p_grid.half_width - reach
    if margin <= 0.0:
        return 1.0
    bound = (
        math.exp(-t * gap)
        + math.exp(-margin)
        + _discretisation_error(p_grid.spacing, t * gap, margin)
    )
    return min(1.0, math.exp(math.log(epsilon) + t * gap + 2.0 * math.log(bound)))


def _lifted_phase(rows: int, count: int, held: int, work: int) -> tuple[str, int, int]:
    """The ``core._preflight`` phase of a lifted run of ``count`` modes over
    ``rows`` rows: O(N) mode arrays, _LIFTED_COPIES rows x N complex copies
    and ``held`` bytes beside them, and its evolution's ``work``."""
    return (
        f"a lifted run of {count} auxiliary modes over {rows} rows",
        count * (_MODE_BYTES + _LIFTED_COPIES * rows * 16) + held,
        work,
    )


def _p_grid_from(
    p_config,
    half_width: float = DEFAULT_P_HALF_WIDTH,
    count: int = DEFAULT_P_COUNT,
) -> Grid1D:
    """Auxiliary grid of ``p_config``, one experiment's defaults filling the gaps.

    ``p_config`` is None, a Grid1D, or a (half_width, count) pair whose None
    entries take the defaults ``half_width`` and ``count``.
    """
    if isinstance(p_config, Grid1D):
        return p_config
    given_width, given_count = p_config or (None, None)
    half_width = half_width if given_width is None else given_width
    return Grid1D(float(half_width), int(count if given_count is None else given_count))


def _check_p_grid(p_grid: Grid1D, reach: float, epsilon: float, lam_min=0.0, max_norm=0.0):
    """The one check of a run, before any array of N: warns the first line
    outside the package once each for truncation, exp(-L) not below
    max(1e-4, eps); convection, ``reach`` = t*lambda at or past L; and growth
    (``operators._growth``), the smallest eigenvalue ``lam_min`` of H below
    -PSD_RTOL * ``max_norm`` (0 for the shifted ground-state and Gibbs spectra)."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    half_width, tolerance = p_grid.half_width, max(1e-4, epsilon)
    tail = math.exp(-half_width)
    for message in (
        tail >= tolerance
        and f"exp(-{half_width:g}) = {tail:.2e} exceeds the requested truncation tolerance "
        f"{tolerance:g}",
        reach >= half_width
        and f"convection t*lambda = {reach:.2f} reaches the p boundary {half_width:g}: the "
        "lifted profile would convect past the p boundary; refine the auxiliary domain",
        _growth(lam_min, max_norm),
    ):
        if message:
            warnings.warn(message, AccuracyWarning, stacklevel=level)


def _check_time(t: float) -> None:
    """Refuse an evolution time that is negative or not finite."""
    if not (math.isfinite(t) and t >= 0):
        raise InvalidArgumentError(f"evolution time must be finite and nonnegative, got {t}")


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x; a real ``a`` acts on the real and imaginary parts of a complex
    ``x`` apart, so NumPy makes no complex copy of ``a``."""
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return a @ x
    return a @ x.real + 1j * (a @ x.imag)


def _profile(p_grid: Grid1D) -> np.ndarray:
    """exp(-|p|) on ``p_grid``: the lifted profile, evaluated nowhere else."""
    return np.exp(-np.abs(p_grid.points))


def _aux_grid(state: StateVector, name: str) -> Grid1D:
    """The grid of the last axis of ``state``, which must be ``name`` and have one."""
    last = state.layout[-1]
    if last.name != name or last.grid is None:
        raise InvalidArgumentError(f"expected a last axis {name!r} with a grid, got {last}")
    return last.grid


def warp_extend(u0: StateVector, p_grid: Grid1D) -> StateVector:
    """Lift u0 into w(0, x, p) = exp(-|p|) u0(x) on the extended p grid.

    A stage: the runs that lift check the grid, whose periodic wrap feeds
    mass back into the domain when exp(-half_width) is not small.
    """
    amplitudes = np.multiply.outer(u0.amplitudes, _profile(p_grid))
    layout = u0.layout + (AxisSpec("p", p_grid.count, p_grid),)
    return StateVector._adopt(amplitudes, layout)


def _phase(n: int) -> np.ndarray:
    # exp(+i*mu_k*p_0) for p_0 = -half_width: real alternating signs.
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def _p_transform(arr: np.ndarray, transform) -> np.ndarray:
    """transform(phase * swap(arr)) over the trailing axis, unitary: with
    ``np.fft.ifft`` the ascending mode coefficients of ``dft_p``, with
    ``np.fft.fft`` the p samples of ``idft_p``.  The swap of the two halves
    (fftshift and ifftshift alike at an even length) writes a fresh complex
    buffer; the phase and the transform then run in it."""
    n = arr.shape[-1]
    half = n // 2
    out = np.empty(arr.shape, dtype=complex)
    out[..., :half] = arr[..., half:]
    out[..., half:] = arr[..., :half]
    out *= _phase(n)
    return transform(out, axis=-1, norm="ortho", out=out)


def dft_p(w: StateVector) -> StateVector:
    """Unitary forward transform of the trailing p axis, modes ascending.

    Bin j holds the coefficient of exp(-i*mu_j*p); a pure tone
    exp(-i*mu*p) therefore lands on the single mode +mu.
    """
    grid = _aux_grid(w, "p")
    spec = _p_transform(w.as_array(), np.fft.ifft)
    return StateVector._adopt(spec, w.layout[:-1] + (AxisSpec("eta", grid.count, grid),))


def idft_p(s: StateVector) -> StateVector:
    """Inverse of dft_p; the round trip is exact to unitary rounding."""
    grid = _aux_grid(s, "eta")
    phys = _p_transform(s.as_array(), np.fft.fft)
    return StateVector._adopt(phys, s.layout[:-1] + (AxisSpec("p", grid.count, grid),))


def _mode_phases(lam: np.ndarray, mus: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t lam mu_j), the turn of auxiliary mode mu_j of the eigencomponent
    lam when Hbar = 0, built and exponentiated in one complex buffer."""
    phases = np.zeros(lam.shape + mus.shape, dtype=complex)
    np.multiply.outer(lam, mus, out=phases.real)
    # bit for bit -1j*t*outer; scaling a .imag view instead gives the same
    # bits, but after a zgemm the exp then ran 10-20x slower on AVX-512
    phases *= -1j * t
    return np.exp(phases, out=phases)


def _evolve_modes(s0: StateVector, pair: HermitianPair, mus: np.ndarray, t: float):
    """Evolve mode slice j of s0 by exp(-i*t*(mu_j*H + Hbar)), one batched
    eigendecomposition of the (B, b, b) stack mu_j*H + Hbar per mode,
    applied and discarded before the next."""
    blocks_in = s0.amplitudes.reshape(-1, pair.h.blocks.shape[-1], s0.shape[-1])
    blocks_out = np.empty_like(blocks_in)
    for j, mu in enumerate(mus):
        lam, vec = np.linalg.eigh(mu * pair.h.blocks + pair.h_bar.blocks)
        coeff = vec.conj().transpose(0, 2, 1) @ blocks_in[:, :, j, None]
        blocks_out[:, :, j] = (vec @ (np.exp(-1j * t * lam)[:, :, None] * coeff))[:, :, 0]
    return StateVector._adopt(blocks_out, s0.layout)


@lru_cache(maxsize=4)
def _bessel_series(x: float) -> np.ndarray:
    """J_0(x) .. J_K(x), x >= 0, K where the tail 2 sum |J_k| falls below
    2^-52: Miller's backward recurrence from past the turning point k = x,
    scaled by J_0^2 + 2 sum J_k^2 = 1 and signed by J_0 + 2 sum J_2k = 1.
    Read-only and cached by x: a run prices its path and evolves its first
    chunk at the same t*r, so it builds that series once."""
    if x < 2.0**-52:
        series = np.ones(1)
    else:
        top = int(x + 10.0 * x ** (1 / 3) + 40.0)
        j = np.zeros(top + 2)
        j[top] = 1.0
        for k in range(top, 0, -1):
            j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
            if abs(j[k - 1]) > 1e100:
                j[k - 1 :] *= 1e-100
        j /= math.copysign(math.sqrt(2.0 * float(j @ j) - j[0] ** 2), j[0] + 2.0 * j[2::2].sum())
        tail = 2.0 * np.cumsum(np.abs(j[::-1]))[::-1]
        series = j[: np.flatnonzero(tail >= 2.0**-52)[-1] + 1]
    series.setflags(write=False)
    return series


def _intervals(pair: HermitianPair) -> tuple:
    """Spectral intervals (lo, hi) of H and Hbar; with Hbar = 0 that of H is
    None, read by no path, so an eigenbasis run decomposes H once."""
    bar = pair.h_bar._bounds
    return (pair.h._bounds if bar != (0.0, 0.0) else None), bar


def _mode_intervals(bounds, mus) -> tuple[float, float, np.ndarray]:
    """Centres c_H, c_Hbar of the spectral ``bounds`` of H and Hbar, and the
    half-widths r_j of Weyl's intervals mu_j lam(H) + [lam_min(Hbar),
    lam_max(Hbar)] of mu_j*H + Hbar, centred at mu_j c_H + c_Hbar, padded by
    1e-12 of their scale."""
    (h_lo, h_hi), (bar_lo, bar_hi) = bounds
    scale = np.abs(mus) * max(-h_lo, h_hi) + max(-bar_lo, bar_hi)
    radius = np.abs(mus) * (0.5 * (h_hi - h_lo)) + 0.5 * (bar_hi - bar_lo) + 1e-12 * scale
    return 0.5 * (h_lo + h_hi), 0.5 * (bar_lo + bar_hi), radius


@lru_cache(maxsize=4)
def _propagator(shape, bounds, p_grid: Grid1D, t: float) -> tuple[str, float, float]:
    """The path for the modes of ``p_grid`` to time t under a pair of (B, b, b)
    stacks of ``shape`` and spectral ``bounds`` (``_intervals``), its work in
    decomposition units and the bytes it holds beside the lifted copies; from
    scalars, before any array of N, and cached by them, so the pre-flight,
    ``evolve_lifted`` and ``evolve_blocks`` of one run price it once.
    "eigenbasis" when Hbar = 0 decomposes H once; else per-mode eigh,
    "modes", priced N*(B*(b^3 + _EIGH_PER_B2*b^2) + _EIGH_PER_CALL) and
    booked N*B*b^3, or the recurrence, "chebyshev", degree*(N*B*b^2*
    _STEP_PER_B2 + chunks*_STEP_OVERHEAD), degree that of t*r at
    |mu| = pi*N/(2L), runs, whichever is cheaper."""
    blocks, b, _ = shape
    stack = 16 * blocks * b * b
    if bounds[1] == (0.0, 0.0):
        return "eigenbasis", (blocks * b) ** 3, _PAIR_STACKS * stack
    count, step = p_grid.count, max(1, _CHEB_CHUNK // (blocks * b))
    per_step = count * blocks * b * b * _STEP_PER_B2 + -(-count // step) * _STEP_OVERHEAD
    eigh = count * blocks * b**3
    price = eigh + count * (blocks * b * b * _EIGH_PER_B2 + _EIGH_PER_CALL)
    x = t * float(_mode_intervals(bounds, math.pi * (count // 2) / p_grid.half_width)[2])
    degree = x if x * per_step >= price else _bessel_series(x).size - 1
    if degree * per_step >= price:
        return "modes", eigh, _PAIR_STACKS * stack
    # three chunk buffers, two arrays of N and the series' four of its length
    table = 32 * (degree + 10 * degree ** (1 / 3) + 42)
    recurrence = 16 * (3 * blocks * b * min(count, step) + 2 * count) + table
    return "chebyshev", degree * per_step, _PAIR_STACKS * stack + recurrence


def _gemm(a: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = a @ x for a complex ``x``; a real ``a`` acts on its float view."""
    real = not np.iscomplexobj(a)
    np.matmul(a, x.view(float) if real else x, out=out.view(float) if real else out)


def _evolve_chebyshev(s0: StateVector, pair: HermitianPair, mus: np.ndarray, t: float):
    """Evolve mode slice j of s0 by exp(-i*t*(mu_j*H + Hbar)) with one
    Chebyshev recurrence (Tal-Ezer & Kosloff 1984) per chunk of columns: with r
    the chunk's largest r_j, exp(-i*t*A_j) = exp(-i*t*c_j) sum_k (2 - delta_k0)
    (-i)^k J_k(t*r) T_k(X_j), X_j = (mu_j*H + Hbar - c_j)/r, c_j = mu_j*c_H +
    c_Hbar.  Each chunk refills two stacks in place with the folded operators
    H' = (2/r)(H - c_H) and Hbar' = (2/r)(Hbar - c_Hbar), so that 2 X_j T =
    mu_j H'T + Hbar'T, and a step T_{k+1} = 2 X T_k - T_{k-1} is two batched
    GEMMs and five elementwise passes over three chunk buffers: the column
    scaling by mu, the subtraction of T_{k-1}, the addition of Hbar'T_k, and
    the coefficient's product and accumulation."""
    (blocks, b, _), n = pair.h.blocks.shape, mus.size
    h_mid, bar_mid, radius = _mode_intervals(_intervals(pair), mus)
    state = s0.amplitudes.reshape(blocks, b, n)
    out = np.empty_like(state)
    h, h_bar = (np.empty(m.blocks.shape, m.blocks.dtype) for m in (pair.h, pair.h_bar))
    step = max(1, _CHEB_CHUNK // (blocks * b))
    for lo in range(0, n, step):
        cols = slice(lo, lo + step)
        r, mu = float(radius[cols].max()), mus[cols]
        bessel, scale = _bessel_series(t * r), 2.0 / r
        for folded, source, mid in ((h, pair.h, h_mid), (h_bar, pair.h_bar, bar_mid)):
            np.multiply(source.blocks, scale, out=folded)
            folded.reshape(blocks, b * b)[:, :: b + 1] -= scale * mid  # the diagonals
        cur = state[..., cols].copy()
        prev, tmp, acc = np.zeros_like(cur), np.empty_like(cur), out[..., cols]
        np.multiply(cur, bessel[0], out=acc)
        for k in range(1, bessel.size):
            _gemm(h, cur, tmp)
            tmp *= mu
            np.subtract(tmp, prev, out=prev)
            _gemm(h_bar, cur, tmp)
            prev += tmp
            if k == 1:
                prev *= 0.5  # T_1 = X T_0
            prev, cur = cur, prev
            np.multiply(cur, 2.0 * bessel[k] * (1, -1j, -1, 1j)[k % 4], out=tmp)
            acc += tmp
        acc *= np.exp(-1j * t * (mu * h_mid + bar_mid))
    return StateVector._adopt(out, s0.layout)


def evolve_blocks(
    s0: StateVector, pair: HermitianPair, d_matrix: EtaDiagonal, t: float
) -> StateVector:
    """Evolve each mode slice by exp(-i*t*(mu_j*H + Hbar)), exact in time.

    Flattened, this equals exp(-i*(H (x) D + Hbar (x) 1)*t).  H and Hbar
    carry the same (B, b, b) stack shape (B = 1 for a matrix without block
    structure), and the path ``_propagator`` names from their spectral
    bounds runs: with Hbar = 0 the eigenbasis of H, read from its cached
    spectrum; otherwise one batched eigendecomposition of mu_j*H.blocks +
    Hbar.blocks per mode, applied and discarded before the next, or one
    Chebyshev recurrence for every mode at once, a step two batched GEMMs
    with H and Hbar shifted and scaled once per chunk of columns, and five
    elementwise passes.  The two agree to rounding (the general-dense
    benchmark's solution moves by 3.7e-15 relative); at large t*|mu|*|H|
    the recurrence is the more accurate.  A negative or non-finite t raises
    InvalidArgumentError.
    """
    _check_time(t)
    n = d_matrix.count
    p_grid = _aux_grid(s0, "eta")
    if p_grid.count != n:
        raise InvalidArgumentError("eta axis and mode diagonal disagree in size")
    arr = s0.amplitudes.reshape(-1, n)
    if arr.shape[0] != pair.h.dimension:
        raise InvalidArgumentError(
            f"state block dimension {arr.shape[0]} != Hamiltonian dimension {pair.h.dimension}"
        )
    mus = d_matrix.diagonal
    path = _propagator(pair.h.blocks.shape, _intervals(pair), p_grid, t)[0]
    if path == "eigenbasis":
        lam, vec = pair.h.spectrum
        coeff = vec.conj().T @ arr
        coeff *= _mode_phases(lam, mus, t)
        return StateVector._adopt(vec @ coeff, s0.layout)
    return (_evolve_chebyshev if path == "chebyshev" else _evolve_modes)(s0, pair, mus, t)


def _recovery_weights(p_grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The recoveries as real weight vectors over the p row: the calibrated
    trapezoid rule of ``recover_integrate``, the profile fit of
    ``project_positive`` and the p >= 0 block it fits, p = 0 counted half.
    The quadrature adds the half-weighted endpoint p = L, read at its image
    p = -L, and is divided by its own value on the profile (dp cancels)."""
    half = p_grid.count // 2
    profile = _profile(p_grid)
    block = np.zeros(p_grid.count)
    block[half:] = 1.0
    block[half] = 0.5
    quadrature = block.copy()
    quadrature[0] = 0.5
    quadrature /= quadrature @ profile
    fit = block * profile
    fit /= fit @ profile
    return quadrature, fit, block


def recover_integrate(w: StateVector) -> StateVector:
    """u(x) = integral of w(x, p) over p >= 0 by the calibrated trapezoid rule.

    Nodes run from p = 0 to p = half_width, the endpoint taken from the
    periodic image p = -half_width, with half weights at both ends.  The
    result is divided by the same quadrature applied to the initial profile
    exp(-|p|) (exactly 1 in the continuum), which removes the O(dp^2)
    quadrature bias shared by all modes and makes the t = 0 round trip
    exact.
    """
    u = w.as_array() @ _recovery_weights(_aux_grid(w, "p"))[0]
    return StateVector(u.reshape(-1), w.layout[:-1])


def recover_point(w: StateVector, p_star: float) -> StateVector:
    """u(x) = w(x, p*) / exp(-p*) at a positive grid point p*.

    No interpolation: p* must lie on the grid.  The value at p* is only
    meaningful while the convected profile has not wrapped past it, i.e.
    while t*lambda_max < half_width - p*.  A stage, a diagnostic: it
    computes and does not warn.
    """
    grid = _aux_grid(w, "p")
    if p_star <= 0:
        raise InvalidArgumentError(f"p_star must be positive, got {p_star}")
    idx = int(round((p_star + grid.half_width) / grid.spacing))
    if idx < 0 or idx >= grid.count or abs(grid.points[idx] - p_star) > 1e-9 * max(1.0, p_star):
        raise InvalidArgumentError(f"p_star = {p_star} is not a grid point")
    u = w.as_array()[..., idx] / _profile(grid)[idx]
    return StateVector(u.reshape(-1), w.layout[:-1])


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


def _positive_readout(w: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Per row of w: the least-squares fit of the profile exp(-p) to the
    p >= 0 block, and the block's weighted squared norm."""
    grid = _aux_grid(w, "p")
    half = grid.count // 2
    _, fit, weights = _recovery_weights(grid)
    block = w.as_array()[..., half:]
    mass = np.abs(block)
    mass *= mass
    return block @ fit[half:], mass @ weights[half:]


def project_positive(w: StateVector) -> RecoveryResult:
    """Project onto the p >= 0 block and collapse out the exp(-p) profile.

    The p = 0 slice enters with half quadrature weight.  Returns the
    normalized direction of u, the magnitude estimate from a least-squares
    fit of the profile, the projection probability
    |P w|^2 / |w|^2  ~ (|u| |exp(-p)| / |w|)^2, and the amplification cost
    factor |w| / (sqrt(N/(2L)) |u|), which equals |u(0)| / |u(t)| because
    the lifted norm is conserved.
    """
    u_est, block_mass = _positive_readout(w)
    u_norm = float(np.linalg.norm(u_est))
    success, cost_factor = _projection_numbers(
        float(block_mass.sum()), u_norm, w.norm, _aux_grid(w, "p")
    )
    return RecoveryResult(
        u=StateVector((u_est / u_norm).reshape(-1), w.layout[:-1]),
        success_probability=success,
        u_norm=u_norm,
        cost_factor=cost_factor,
    )


def _mode_weights(p_grid: Grid1D, recovery: str) -> tuple[np.ndarray, np.ndarray]:
    """Weights c_j of ``decay_factors`` over the ascending modes, and the
    indices of the modes it sums.

    A recovery reads a real weight vector r of ``_recovery_weights`` off
    the p row, so through ``idft_p`` it weights mode j by conj(dft_p(r)_j):
    c = a * conj(b) for [a; b] = dft_p([profile; r]).  r is the calibrated
    trapezoid rule of ``recover_integrate`` ("integration"), whose weights
    vanish to rounding on every even mode j != 0 (whole periods) and are
    left out, or the profile fit of ``project_positive`` ("projection").
    """
    n = p_grid.count
    quadrature, fit, _ = _recovery_weights(p_grid)
    if recovery == "integration":
        m = np.arange(n) - n // 2  # mu_j = pi * m_j / half_width
        summed = np.flatnonzero((m % 2 == 1) | (m == 0))
        r = quadrature
    elif recovery == "projection":
        summed = np.arange(n)
        r = fit
    else:
        raise InvalidArgumentError(f"unknown recovery method {recovery!r}")
    a, b = _p_transform(np.stack([_profile(p_grid), r]), np.fft.ifft)
    return summed, a * b.conj()


# eigenvalues times modes per chunk of decay_factors: bounds its
# exp(-i t lam mu_j) block at 1 MiB
_FACTOR_CHUNK = 1 << 16


def decay_factors(lam, p_grid: Grid1D, t: float, recovery: str) -> np.ndarray:
    """Factor by which lift, evolution to time t and recovery scale an
    eigencomponent of H with eigenvalue ``lam`` when Hbar = 0.

    Every eigencomponent then relaxes on its own and each stage is linear,
    so ``evolve_lifted`` followed by the recovery equals
    V diag(g(lam)) V^dag u0 with g(lam) = sum_j c_j exp(-i t mu_j lam) over
    the ascending modes mu_j of ``dft_p``, the weights c_j those of the
    profile and the recovery, transformed by the pipeline's own ``dft_p``.
    ``recovery`` is "integration" (``recover_integrate``, whose weights
    vanish at every even mode j != 0, skipped) or "projection" (the profile
    fit of ``project_positive``, whose direction is that route's result).
    The sum over modes runs in chunks, so memory is O(N + len(lam) * chunk)
    and no len(lam) x N array is built.  A stage: the runs that call it
    check the grid against t * max|lam| first.
    """
    _check_time(t)
    summed, weights = _mode_weights(p_grid, recovery)
    lam = np.asarray(lam, dtype=float)
    weights = weights[summed]
    mus = assemble_eta_diagonal(p_grid).diagonal[summed]

    out = np.zeros(lam.shape, dtype=complex)
    step = max(1, _FACTOR_CHUNK // max(lam.size, 1))
    for start in range(0, summed.size, step):
        chunk = slice(start, start + step)
        out += _mode_phases(lam, mus[chunk], t) @ weights[chunk]
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
    priced by the recovered amplification |u(0)| / |u(t)|, without the
    cost model's growth warning: the run's grid check decides growth."""
    return _schrodingerisation_cost(
        u0_norm / u_t_norm if u_t_norm > 0 else float("inf"),
        max(sparsity, 1),
        max(t, np.finfo(float).tiny),
        max(max_norm, np.finfo(float).tiny),
        epsilon,
        math.log2(size),
        max_norm_oscillatory,
    )


def evolve_lifted(
    u0: StateVector,
    pair: HermitianPair,
    p_grid: Grid1D,
    t: float,
    epsilon: float = 1e-3,
) -> tuple[StateVector, RecoveryResult]:
    """Lift u0, evolve every auxiliary mode to time t, recover, measure, price.

    The one route from an initial state to a recovered run, for general
    and transport runs and each leg of the stationary search.  Returns the
    lifted state at time t and the calibrated quadrature recovery, which
    also carries the projection's ``success_probability`` and
    ``cost_factor``, the ``spectral_norms`` before and after the evolution
    (equal to rounding, every block being unitary), and the query/gate
    ``cost`` of simulating H (x) D + Hbar (x) 1 to precision ``epsilon``,
    priced by the recovered amplification |u(0)|/|u(t)|; the auxiliary
    register adds log2(N) qubits to the system's.  Other recovery routes
    (``recover_point``, ``project_positive``) read the returned lifted state.
    A negative or non-finite t raises InvalidArgumentError first; a run past
    a cap of ``core`` by its lifted copies or by its evolution's
    work raises ResourceLimitError before the lift, both as ``_propagator``
    prices the path ``evolve_blocks`` takes.  A stage: its callers check the grid.
    """
    _check_time(t)
    _, work, held = _propagator(pair.h.blocks.shape, _intervals(pair), p_grid, t)
    _preflight(_lifted_phase(u0.amplitudes.size, p_grid.count, held, work))
    s0 = dft_p(warp_extend(u0, p_grid))
    s_t = evolve_blocks(s0, pair, assemble_eta_diagonal(p_grid), t)
    spectral_norms = (s0.norm, s_t.norm)
    del s0  # one lifted copy fewer while the inverse transform allocates
    w_t = idft_p(s_t)
    u = recover_integrate(w_t)
    fit, block_mass = _positive_readout(w_t)
    success, cost_factor = _projection_numbers(
        float(block_mass.sum()), float(np.linalg.norm(fit)), w_t.norm, p_grid
    )
    cost = _price(
        u0.norm, u.norm, t, epsilon,
        sparsity=max(pair.h.sparsity, pair.h_bar.sparsity),
        max_norm=pair.h.max_norm,
        max_norm_oscillatory=pair.h_bar.max_norm,
        size=pair.h.dimension * p_grid.count,
    )
    return w_t, RecoveryResult(
        u=u,
        success_probability=success,
        cost_factor=cost_factor,
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
    profile = dft_p(warp_extend(unit, p_grid)).amplitudes
    # in place: when every eigenvalue of H is distinct the rows are as large
    # as the lifted state, and idft_p adds a copy
    spec = _mode_phases(lam, assemble_eta_diagonal(p_grid).diagonal, t)
    spec *= profile
    spectral_sq = (np.abs(spec) ** 2).sum(axis=-1)
    layout = (AxisSpec("lambda", lam.size), AxisSpec("eta", p_grid.count, p_grid))
    s_t = StateVector._adopt(spec, layout)
    del spec
    w_t = idft_p(s_t)
    del s_t
    fit, block_mass = _positive_readout(w_t)
    return _Rows(
        integration=recover_integrate(w_t).amplitudes,
        fit=fit,
        block_mass=block_mass,
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
    ``sparsity`` and ``max_norm`` of H.

    Rows are built only where u0 has weight: the lightest components, of
    total mass at most (2^-52 |u0|)^2, get none and add nothing to ``u``,
    the fit or the block mass, which moves ``u`` by at most 2^-52 |u0|
    times the largest quadrature factor |g(lam)|; their mass enters the
    spectral norms exactly, every row's phases having modulus 1.  The
    heaviest component always keeps its row.  The largest arrays hold one
    row per distinct eigenvalue kept: on a 256-point Laplacian 3 x N for a
    u0 on cos(j pi x), j <= 2, and 129 x N for one that weighs every mode.

    Checks the grid once, before any row, with ``epsilon``, the growth of
    H from min(lam) and ``max_norm``, and the reach read off the weighted
    spectrum: the largest t*|lam| at which the part of u0 with t*|lam| at
    or above it still has norm above ``epsilon`` * |u0|, so it warns of
    convection exactly when the part with t*|lam| >= L is that large.
    Kept rows past ``core.ARRAY_BYTES_LIMIT`` are refused with
    ResourceLimitError before any is allocated.
    """
    _check_time(t)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size != u0.amplitudes.size:
        raise InvalidArgumentError(
            f"{lam.size} eigenvalues for a state of length {u0.amplitudes.size}"
        )
    if vectors is None:
        coeffs = np.fft.fftn(u0.as_array(), norm="ortho").reshape(-1)
    else:
        coeffs = _matvec(vectors.conj().T, u0.amplitudes)
    weight = np.abs(coeffs) ** 2
    shift = t * np.abs(lam)
    order = np.argsort(shift)[::-1]
    above = np.flatnonzero(np.sqrt(np.cumsum(weight[order])) > epsilon * u0.norm)
    reach = float(shift[order[above[0]]]) if above.size else 0.0
    _check_p_grid(p_grid, reach, epsilon, float(lam.min()), max_norm)

    # the heaviest component keeps its row, so a zero u0 reaches the
    # projection's refusal
    light = np.argsort(weight)
    below = np.searchsorted(np.cumsum(weight[light]), (2.0**-52 * u0.norm) ** 2, "right")
    dropped, kept = np.split(light, [min(below, lam.size - 1)])
    kept = np.sort(kept)
    values, inverse = np.unique(lam[kept], return_inverse=True)
    _preflight(_lifted_phase(values.size, p_grid.count, 0, 0))
    rows = _lifted_rows(values, p_grid, t)
    mass = np.bincount(inverse, weights=weight[kept], minlength=values.size)
    # every row's phases have modulus 1, so the dropped mass keeps its
    # initial squared norm in the lifted one
    dropped_sq = float(weight[dropped].sum()) * rows.initial_sq
    w_norm = math.sqrt(float(mass @ rows.spectral_sq) + dropped_sq)
    success, cost_factor = _projection_numbers(
        float(mass @ rows.block_mass),
        float(np.linalg.norm(coeffs[kept] * rows.fit[inverse])),
        w_norm,
        p_grid,
    )
    u_coeffs = np.zeros_like(coeffs)
    u_coeffs[kept] = coeffs[kept] * rows.integration[inverse]
    if vectors is None:
        u = np.fft.ifftn(u_coeffs.reshape(u0.shape), norm="ortho")
    else:
        u = _matvec(vectors, u_coeffs)
    u = u0.with_amplitudes(u)
    return RecoveryResult(
        u=u,
        success_probability=success,
        cost_factor=cost_factor,
        spectral_norms=(math.sqrt(float(mass.sum()) * rows.initial_sq + dropped_sq), w_norm),
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
) -> tuple[StateVector, RecoveryResult]:
    """End-to-end run for du/dt = -A u: decompose A = H + i*Hbar, then
    ``evolve_lifted``.

    ``p_grid`` is None, a Grid1D or an (L, N) pair whose None entries take
    the defaults L=12, N=256.  Checks the grid once, before the lift, with
    eps, the reach t*max|lambda(H)| and the growth of H from its smallest
    eigenvalue (the split does not check it).  Returns the lifted state at time t
    and the recovery of ``evolve_lifted``: the calibrated quadrature
    solution with its success probability, cost factor, spectral norms and
    cost report.  A split of A past a cap of ``core`` raises
    ResourceLimitError before A is copied.
    """
    _check_time(t)
    shape = np.shape(a_matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {shape}")
    n = shape[0]
    if n != u0.amplitudes.size:
        raise InvalidArgumentError(f"matrix dimension {n} != state length {u0.amplitudes.size}")
    _preflight((f"the Hermitian split of dimension {n}", _SPLIT_COPIES * 16 * n * n, n**3))
    pair = hermitian_decompose(a_matrix, check_psd=False)
    p_grid = _p_grid_from(p_grid)
    lam = pair.h.spectrum[0] if pair.h.max_norm > 0 else np.zeros(1)
    _check_p_grid(p_grid, t * float(np.abs(lam).max()), epsilon, float(lam[0]), pair.h.max_norm)
    return evolve_lifted(u0, pair, p_grid, t, epsilon=epsilon)

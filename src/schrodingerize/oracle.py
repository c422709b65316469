"""Independent reference solvers used to validate the pipeline.

Nothing here reuses the operator-assembly code: the heat reference applies
mode-wise decay factors directly, expm_apply works on the raw matrix, and
the transport reference is a method-of-lines RK4 integrator in physical
space.  These are the trusted ground truth for every end-to-end check.

All of it runs in NumPy's linear algebra.  SciPy ships its own BLAS, with
its own thread pool; calling it after a pipeline run that kept NumPy's
BLAS threads busy made both pools contend for the same cores, so the
non-normal branch of expm_apply uses expm_multiply, whose products are
NumPy's, instead of scipy.linalg.expm.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import (
    AccuracyWarning,
    Grid1D,
    InvalidArgumentError,
    ResourceLimitError,
    StabilityError,
    StateVector,
)

__all__ = ["expm_apply", "heat_analytic", "transport_reference"]

EXPM_DENSE_LIMIT = 4096
_NORMALITY_RTOL = 1e-12


def expm_apply(a, u0, t: float) -> np.ndarray:
    """exp(-A*t) @ u0 by dense linear algebra.

    Hermitian and normal matrices go through an eigendecomposition; anything
    else goes to the exact action of the exponential by truncated Taylor
    series with scaling (Al-Mohy & Higham 2011, scipy's expm_multiply),
    whose matrix products run in NumPy's BLAS like the rest of the package.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] > EXPM_DENSE_LIMIT:
        raise ResourceLimitError(
            f"dense matrix exponential capped at dimension {EXPM_DENSE_LIMIT}, got {a.shape[0]}"
        )
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.size != a.shape[0]:
        raise InvalidArgumentError(f"vector length {u0.size} != dimension {a.shape[0]}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.conj().T).max()) <= _NORMALITY_RTOL * scale:
        lam, vec = np.linalg.eigh(a)
        return vec @ (np.exp(-lam * t) * (vec.conj().T @ u0))
    gram_defect = float(np.abs(a @ a.conj().T - a.conj().T @ a).max())
    if gram_defect <= _NORMALITY_RTOL * scale * scale:
        lam, vec = np.linalg.eig(a)
        return vec @ (np.exp(-lam * t) * np.linalg.solve(vec, u0))
    # imported here so that importing the package leaves scipy.sparse unloaded
    from scipy.sparse.linalg import expm_multiply

    return expm_multiply(-a * t, u0)


def _grid_list(grids) -> list[Grid1D]:
    return [grids] if isinstance(grids, Grid1D) else list(grids)


def heat_analytic(u0, grids, t: float):
    """Exact periodic heat solution: each Fourier mode decays by exp(-|xi|^2 t).

    Works on a StateVector over the spatial axes or a plain array shaped
    like the tensor grid; the return type matches the input.
    """
    grids = _grid_list(grids)
    is_state = isinstance(u0, StateVector)
    arr = u0.as_array() if is_state else np.asarray(u0, dtype=complex)
    arr = arr.reshape(tuple(g.count for g in grids))
    spec = np.fft.fftn(arr)
    for axis, g in enumerate(grids):
        xi = 2.0 * np.pi * np.fft.fftfreq(g.count, d=g.spacing)
        shape = [1] * arr.ndim
        shape[axis] = g.count
        spec = spec * np.exp(-t * xi**2).reshape(shape)
    out = np.fft.ifftn(spec)
    if is_state:
        return u0.with_amplitudes(out.reshape(-1))
    return out


def _transport_rhs(w, model, xi_ops, k_vals):
    # dW/dt = -k . grad_x W + sigma*W - Sigma(k) W  on the (x.., k..) grid
    d = model.dimension
    out = np.zeros_like(w)
    for l in range(d):
        spec = np.fft.fft(w, axis=l)
        deriv = np.fft.ifft(1j * xi_ops[l] * spec, axis=l)
        out -= k_vals[l] * deriv
    kd = model.k_count
    flat = w.reshape(-1, kd)
    scattered = flat @ model.sigma.T - flat * model.sigma_total[None, :]
    return out + scattered.reshape(w.shape)


def _spectral_radius_estimate(rhs, shape, iterations: int = 25) -> float:
    rng = np.random.default_rng(20230517)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(iterations):
        v = rhs(v)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return 0.0
        rho = nrm
        v /= nrm
    return rho


def transport_reference(model, w0, t: float, steps: int | None = None):
    """Method-of-lines RK4 for the kinetic transport equation.

    Spatial derivatives are spectral, collisions act on the flattened
    velocity axis.  The default step count is ceil(10 * t * rho) with rho a
    power-iteration estimate of the generator's spectral radius; norm growth
    beyond 10x trips a StabilityError.
    """
    is_state = isinstance(w0, StateVector)
    arr = w0.as_array() if is_state else np.asarray(w0, dtype=complex)
    shape = tuple(g.count for g in model.x_grids) + tuple(g.count for g in model.k_grids)
    arr = arr.reshape(shape).astype(complex)
    d = model.dimension
    xi_ops, k_vals = [], []
    for l in range(d):
        g = model.x_grids[l]
        xi = 2.0 * np.pi * np.fft.fftfreq(g.count, d=g.spacing)
        sh = [1] * arr.ndim
        sh[l] = g.count
        xi_ops.append(xi.reshape(sh))
        kg = model.k_grids[l]
        sh = [1] * arr.ndim
        sh[d + l] = kg.count
        k_vals.append(kg.points.reshape(sh))

    def rhs(w):
        return _transport_rhs(w, model, xi_ops, k_vals)

    if t == 0.0:
        out = arr
    else:
        rho = _spectral_radius_estimate(rhs, shape)
        needed = max(1, math.ceil(10.0 * t * rho))
        if steps is None:
            steps = needed
        elif steps * 2.5 < t * rho:
            warnings.warn(
                f"{steps} RK4 steps for t*rho ~ {t * rho:.1f} is outside the stability region",
                AccuracyWarning,
                stacklevel=2,
            )
        dt = t / steps
        w = arr
        norm0 = np.linalg.norm(w)
        for _ in range(steps):
            k1 = rhs(w)
            k2 = rhs(w + 0.5 * dt * k1)
            k3 = rhs(w + 0.5 * dt * k2)
            k4 = rhs(w + dt * k3)
            w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if np.linalg.norm(w) > 10.0 * max(norm0, 1e-300):
                raise StabilityError("transport reference integration is diverging")
        out = w
    if is_state:
        return w0.with_amplitudes(out.reshape(-1))
    return out

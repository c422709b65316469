"""Independent reference solvers used to validate the pipeline.

Nothing here reuses the operator-assembly code: the heat reference applies
mode-wise decay factors directly, expm_apply works on the raw matrix, and
the transport reference builds the kinetic generator from the scattering
data and the grids.  These are the trusted ground truth for every
end-to-end check.

Transport has one reference, ``transport_exact``, which ``run_transport``
compares against.  It Fourier transforms x, after which the kinetic
equation is one K^d x K^d linear ODE per spatial frequency xi, and applies
the matrix exponential of each frequency's generator sigma - diag(Sigma) -
i*diag(xi . k): one batched Pade-13 scaling and squaring (Higham 2005)
over the frequencies, exact up to rounding.

All of it runs in NumPy's linear algebra: that Pade is also the dense
exponential of every non-Hermitian matrix in expm_apply, so a run loads no
second linear-algebra library.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Grid1D, InvalidArgumentError, _preflight

__all__ = ["expm_apply", "heat_analytic", "transport_exact"]

_HERMITICITY_RTOL = 1e-12
# matrix entries per chunk of transport_exact: bounds its complex temporaries
# at 1 MiB up to K^d = 256, past which a chunk is one frequency
_EXPM_CHUNK = 1 << 16
# peak complex n x n copies by tracemalloc at n = 512 and 1024: the Pade of
# expm_apply 10.5, of one-frequency chunks of transport_exact 11.0 (K = 512
# and 1024; run_transport, holding its states, 11.0 to 11.1); the eigh
# branch of expm_apply 2.0 to 2.1, its Hermiticity test included
_PADE_COPIES = 11.5
_EIGH_COPIES = 2.5
# Pade-13 coefficients and the 1-norm up to which that approximant is exact
# to double precision (Higham 2005, Table 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm_apply(a, u0, t: float) -> np.ndarray:
    """exp(-A*t) @ u0 by dense linear algebra.

    A Hermitian matrix goes through its eigendecomposition; any other, normal
    or not, through the Pade-13 scaling and squaring of ``_expm_stack``.
    Either is refused from the shape of A alone, before A is copied: past
    dimension ``core.EXPM_DENSE_LIMIT`` (4096) by its decomposition work,
    and the Pade from n = 3,417 on, where its working set passes
    ``core.ARRAY_BYTES_LIMIT`` (2 GiB).
    """
    shape = np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {shape}")
    n = shape[0]
    _preflight((f"the dense exponential of dimension {n}", _EIGH_COPIES * 16 * n * n, n**3))
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.size != n:
        raise InvalidArgumentError(f"vector length {u0.size} != dimension {n}")
    # the test runs on A as given, so a real A is made complex only for its branch
    a = np.asarray(a)
    a = a.astype(np.promote_types(a.dtype, float), copy=False)
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.conj().T).max()) <= _HERMITICITY_RTOL * scale:
        lam, vec = np.linalg.eigh(np.asarray(a, dtype=complex))
        return vec @ (np.exp(-lam * t) * (vec.conj().T @ u0))
    _preflight((f"the Pade exponential of dimension {n}", _PADE_COPIES * 16 * n * n, n**3))
    return _expm_stack(-t * np.asarray(a, dtype=complex)[None])[0] @ u0


def _grid_list(grids) -> list[Grid1D]:
    return [grids] if isinstance(grids, Grid1D) else list(grids)


def heat_analytic(u0, grids, t: float):
    """Exact periodic heat solution: each Fourier mode decays by exp(-|xi|^2 t).

    Takes an array of the tensor grid's size and returns one shaped like
    the grid.
    """
    grids = _grid_list(grids)
    arr = np.asarray(u0, dtype=complex).reshape(tuple(g.count for g in grids))
    spec = np.fft.fftn(arr)
    for axis, g in enumerate(grids):
        xi = 2.0 * np.pi * np.fft.fftfreq(g.count, d=g.spacing)
        shape = [1] * arr.ndim
        shape[axis] = g.count
        spec = spec * np.exp(-t * xi**2).reshape(shape)
    return np.fft.ifftn(spec)


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp(a) of every matrix in a (B, n, n) stack by Pade-13 scaling and
    squaring, each matrix scaled by its own power of two."""
    b = _PADE13
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.maximum(0, np.ceil(np.log2(np.maximum(norm, 1e-300) / _THETA13))).astype(int)
    a = a * np.exp2(-squarings)[:, None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        r[more] = r[more] @ r[more]
    return r


def transport_exact(model, w0, t: float):
    """Exact solution of the kinetic transport equation on the (x, k) grid.

    After a Fourier transform of x, each spatial frequency xi evolves its
    velocity spectrum by exp(t*G_xi) with G_xi = sigma - diag(Sigma) -
    i*diag(xi . k), built from the scattering data, the velocity points
    and the x grids alone.  The (J^d, K^d, K^d) stack of exponentials is
    computed in chunks of at most max(K^2d, 2^16) entries by Pade-13
    scaling and squaring, exact to rounding for every resolved mode.  Takes
    an array of the (x.., k..) grid's size and returns one shaped like it.
    """
    if not math.isfinite(t):
        raise InvalidArgumentError(f"evolution time must be finite, got {t}")
    shape = tuple(g.count for g in model.x_grids) + tuple(g.count for g in model.k_grids)
    d = model.dimension
    x_axes = tuple(range(d))
    kd = model.k_count
    arr = np.asarray(w0, dtype=complex).reshape(shape)
    spec = np.fft.fftn(arr, axes=x_axes).reshape(-1, kd)
    xi = np.meshgrid(
        *[2.0 * np.pi * np.fft.fftfreq(g.count, d=g.spacing) for g in model.x_grids],
        indexing="ij",
    )
    advection = np.stack([a.reshape(-1) for a in xi], axis=-1) @ model.k_points().T
    scattering = model.sigma - np.diag(model.sigma_total)
    diag = np.arange(kd)
    step = max(1, _EXPM_CHUNK // (kd * kd))
    for start in range(0, spec.shape[0], step):
        chunk = slice(start, start + step)
        gen = np.broadcast_to(t * scattering, (len(advection[chunk]), kd, kd)).astype(complex)
        gen[:, diag, diag] -= 1j * t * advection[chunk]
        spec[chunk] = (_expm_stack(gen) @ spec[chunk, :, None])[:, :, 0]
    return np.fft.ifftn(spec.reshape(shape), axes=x_axes)


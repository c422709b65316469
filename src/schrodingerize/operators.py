"""Assembly of the Hermitian matrices used by the warped-phase method.

Four families of operators are built here:

* the spectral Schrodinger Hamiltonian  P_1^2 + .. + P_d^2 + V  on a
  periodic tensor grid, where each P_l is the Fourier-collocation momentum
  operator along axis l,
* the diagonal matrix D of auxiliary-variable Fourier modes mu_j, stored in
  ascending order,
* the Hermitian split A = H + i*Hbar of an arbitrary square matrix, with
  H = (A + A^dag)/2 and Hbar = i*(A^dag - A)/2,
* total Hamiltonians:  H (x) D + Hbar (x) 1  for general dynamics, and the
  kinetic-transport form  L (x) 1 - 1 (x) Sigma (x) D + 1 (x) sigma (x) D.

Matrices of dimension <= DENSE_LIMIT are kept dense so that exact dense
eigensolves stay cheap; larger ones switch to CSR storage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .core import (
    AccuracyWarning,
    Grid1D,
    InvalidArgumentError,
    ModeVector,
    fourier_modes,
)

__all__ = [
    "HERMITICITY_ATOL",
    "DENSE_LIMIT",
    "HermitianMatrix",
    "HermitianPair",
    "EtaDiagonal",
    "TransportModel",
    "assemble_schrodinger_hamiltonian",
    "assemble_eta_diagonal",
    "hermitian_decompose",
    "assemble_total_hamiltonian",
    "assemble_transport_hamiltonian",
    "write_triplets",
    "read_triplets",
]

HERMITICITY_ATOL = 1e-12
DENSE_LIMIT = 1024
PSD_RTOL = 1e-10


def _hermiticity_defect(entries) -> float:
    if sp.issparse(entries):
        diff = entries - entries.conjugate().T
        return 0.0 if diff.nnz == 0 else float(np.abs(diff.data).max())
    return float(np.abs(entries - entries.conj().T).max())


def _max_row_nnz(entries) -> int:
    if sp.issparse(entries):
        csr = entries.tocsr()
        csr.eliminate_zeros()
        if csr.shape[0] == 0:
            return 0
        return int(np.diff(csr.indptr).max())
    return int(np.count_nonzero(entries, axis=1).max()) if entries.shape[0] else 0


def _max_abs(entries) -> float:
    if sp.issparse(entries):
        return 0.0 if entries.nnz == 0 else float(np.abs(entries.data).max())
    return float(np.abs(entries).max()) if entries.size else 0.0


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense or CSR Hermitian matrix with its sparsity and max-norm.

    ``sparsity`` is the maximum number of nonzeros in any row and
    ``max_norm`` the largest entry magnitude; together with an evolution
    time they set the scale tau = s*t*max_norm of the query-cost model.
    """

    dimension: int
    entries: object
    sparsity: int
    max_norm: float

    @classmethod
    def from_entries(cls, entries, *, symmetrize: bool = False) -> "HermitianMatrix":
        if not sp.issparse(entries):
            entries = np.asarray(entries, dtype=complex)
            if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
                raise InvalidArgumentError(f"matrix must be square, got shape {entries.shape}")
            if symmetrize:
                entries = 0.5 * (entries + entries.conj().T)
        else:
            if entries.shape[0] != entries.shape[1]:
                raise InvalidArgumentError(f"matrix must be square, got shape {entries.shape}")
            entries = entries.tocsr().astype(complex)
            if symmetrize:
                entries = 0.5 * (entries + entries.conjugate().T)
        defect = _hermiticity_defect(entries)
        scale = max(1.0, _max_abs(entries))
        if defect > HERMITICITY_ATOL * scale:
            raise InvalidArgumentError(
                f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e}"
            )
        if not sp.issparse(entries):
            entries = 0.5 * (entries + entries.conj().T)
            entries.setflags(write=False)
        return cls(
            dimension=entries.shape[0],
            entries=entries,
            sparsity=_max_row_nnz(entries),
            max_norm=_max_abs(entries),
        )

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.entries)

    def dense(self) -> np.ndarray:
        if self.is_sparse:
            return self.entries.toarray()
        return np.array(self.entries)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvector columns, decomposed on first use."""
        lam, vec = np.linalg.eigh(self.dense())
        lam.setflags(write=False)
        vec.setflags(write=False)
        return lam, vec


def _zero_like(dimension: int) -> HermitianMatrix:
    return HermitianMatrix.from_entries(np.zeros((dimension, dimension), dtype=complex))


@dataclass(frozen=True)
class HermitianPair:
    """The split A = H + i*Hbar into a dissipative and an oscillatory part.

    H carries the decaying (assumed positive semi-definite) dynamics and
    Hbar the unitary rotation; the heat equation is Hbar = 0 and a pure
    Schrodinger problem is H = 0.
    """

    h: HermitianMatrix
    h_bar: HermitianMatrix

    def __post_init__(self):
        if self.h.dimension != self.h_bar.dimension:
            raise InvalidArgumentError(
                f"pair dimensions differ: {self.h.dimension} vs {self.h_bar.dimension}"
            )

    def reconstruct(self) -> np.ndarray:
        return self.h.dense() + 1j * self.h_bar.dense()


def hermitian_decompose(a: np.ndarray, *, check_psd: bool = True) -> HermitianPair:
    """Split a square matrix A into Hermitian H = (A+A^dag)/2 and
    Hbar = i(A^dag-A)/2, so that A = H + i*Hbar exactly.

    A negative eigenvalue of H beyond tolerance signals dynamics that grow
    in time; that is legal input, so it warns instead of raising.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {a.shape}")
    h = 0.5 * (a + a.conj().T)
    h_bar = 0.5j * (a.conj().T - a)
    hm = HermitianMatrix.from_entries(h)
    hbm = HermitianMatrix.from_entries(h_bar)
    if check_psd and hm.max_norm > 0:
        lam_min = float(hm.spectrum[0][0])
        if lam_min < -PSD_RTOL * hm.max_norm:
            warnings.warn(
                f"dissipative part has negative eigenvalue {lam_min:.3e}; "
                "the original dynamics grow in time",
                AccuracyWarning,
                stacklevel=2,
            )
    return HermitianPair(h=hm, h_bar=hbm)


@dataclass(frozen=True)
class EtaDiagonal:
    """Diagonal matrix of auxiliary Fourier modes mu_j, ascending.

    The modes field keeps the DFT-ordered wavenumbers of the grid; the
    stored diagonal is their sorted version, matching the mode order of
    spectral states produced by the forward auxiliary transform.
    """

    modes: ModeVector
    diagonal: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=float)
        if np.any(np.diff(diag) <= 0):
            raise InvalidArgumentError("eta diagonal must be strictly ascending")
        d = np.array(diag)
        d.setflags(write=False)
        object.__setattr__(self, "diagonal", d)

    @property
    def count(self) -> int:
        return self.diagonal.size

    @property
    def max_norm(self) -> float:
        return float(np.abs(self.diagonal).max())


def assemble_eta_diagonal(eta_grid: Grid1D) -> EtaDiagonal:
    """D = diag of the grid's Fourier modes in ascending order.

    max_norm is pi*(count/2)/half_width, attained by the unpaired most
    negative mode.
    """
    mv = fourier_modes(eta_grid)
    return EtaDiagonal(modes=mv, diagonal=mv.sorted_modes)


def _momentum_squared_1d(grid: Grid1D) -> np.ndarray:
    # F^dag diag(mu^2) F with the unitary DFT; real symmetric because mu^2
    # is invariant under mode negation (the unpaired mode maps to itself).
    mu2 = fourier_modes(grid).modes ** 2
    f = np.fft.fft(np.eye(grid.count), axis=0, norm="ortho")
    p2 = f.conj().T @ (mu2[:, None] * f)
    return 0.5 * (p2.real + p2.real.T)


def _sample_potential(potential, grids: list[Grid1D]) -> np.ndarray:
    shape = tuple(g.count for g in grids)
    if potential is None:
        return np.zeros(shape)
    if callable(potential):
        axes = np.meshgrid(*[g.points for g in grids], indexing="ij")
        v = np.asarray(potential(*axes))
        v = np.broadcast_to(v, shape)
    else:
        v = np.asarray(potential)
        if v.ndim == 0:
            v = np.broadcast_to(v, shape)
        elif v.shape != shape:
            v = v.reshape(shape)
    if np.iscomplexobj(v) and np.abs(v.imag).max() > 0:
        raise InvalidArgumentError("potential must be real-valued")
    return np.asarray(v, dtype=float)


def assemble_schrodinger_hamiltonian(potential, grids, d: int | None = None) -> HermitianMatrix:
    """Spectral discretisation of -laplacian + V on a periodic tensor grid.

    Returns P_1^2 + .. + P_d^2 + diag(V) where each P_l applies
    diag(modes) in Fourier space along axis l; the Laplacian part is
    positive semi-definite, so the result is PSD whenever V >= 0.
    """
    if isinstance(grids, Grid1D):
        grids = [grids]
    grids = list(grids)
    if d is None:
        d = len(grids)
    if d < 1 or d != len(grids):
        raise InvalidArgumentError(f"need one grid per dimension, got d={d}, {len(grids)} grids")
    v = _sample_potential(potential, grids).reshape(-1)
    total = int(np.prod([g.count for g in grids], dtype=np.int64))
    use_sparse = total > DENSE_LIMIT
    if use_sparse:
        h = sp.diags(v.astype(complex), format="csr")
        for l, g in enumerate(grids):
            p2 = sp.csr_matrix(_momentum_squared_1d(g).astype(complex))
            left = int(np.prod([gg.count for gg in grids[:l]], dtype=np.int64))
            right = int(np.prod([gg.count for gg in grids[l + 1:]], dtype=np.int64))
            h = h + sp.kron(sp.eye(left), sp.kron(p2, sp.eye(right)), format="csr")
    else:
        h = np.diag(v.astype(complex))
        for l, g in enumerate(grids):
            p2 = _momentum_squared_1d(g)
            left = int(np.prod([gg.count for gg in grids[:l]], dtype=np.int64))
            right = int(np.prod([gg.count for gg in grids[l + 1:]], dtype=np.int64))
            h = h + np.kron(np.eye(left), np.kron(p2, np.eye(right)))
    return HermitianMatrix.from_entries(h, symmetrize=True)


def assemble_total_hamiltonian(pair: HermitianPair, d_matrix: EtaDiagonal) -> HermitianMatrix:
    """H_total = H (x) D + Hbar (x) 1, Hermitian of dimension dim(H)*N.

    Its spectrum is the union over modes mu_j of the spectra of
    mu_j*H + Hbar, and its max-norm is max(max|H|*max|D|, max|Hbar|) up to
    entry collisions on the diagonal.
    """
    n = d_matrix.count
    dim = pair.h.dimension * n
    diag = d_matrix.diagonal
    if dim > DENSE_LIMIT:
        h = sp.csr_matrix(pair.h.dense())
        hb = sp.csr_matrix(pair.h_bar.dense())
        total = sp.kron(h, sp.diags(diag), format="csr") + sp.kron(hb, sp.eye(n), format="csr")
    else:
        total = np.kron(pair.h.dense(), np.diag(diag)) + np.kron(
            pair.h_bar.dense(), np.eye(n)
        )
    return HermitianMatrix.from_entries(total)


@dataclass(frozen=True)
class TransportModel:
    """Scattering data and grids for the kinetic transport equation.

    ``sigma`` is the discrete differential cross-section matrix over the
    flattened velocity grid (symmetric: isotropic scattering, quadrature
    weight already absorbed) and ``sigma_total`` its column sums, which
    pairs gains with losses so that total mass is conserved exactly.
    The Fourier modes of ``x_grids`` provide the xi values of the
    advection symbol xi . k.
    """

    x_grids: tuple[Grid1D, ...]
    k_grids: tuple[Grid1D, ...]
    sigma: np.ndarray
    sigma_total: np.ndarray
    dimension: int

    @classmethod
    def create(cls, x_grids, k_grids, sigma) -> "TransportModel":
        x_grids = tuple([x_grids] if isinstance(x_grids, Grid1D) else x_grids)
        k_grids = tuple([k_grids] if isinstance(k_grids, Grid1D) else k_grids)
        if len(x_grids) != len(k_grids) or not x_grids:
            raise InvalidArgumentError("need matching nonempty x and k grid lists")
        d = len(x_grids)
        kd = int(np.prod([g.count for g in k_grids], dtype=np.int64))
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (kd, kd):
            raise InvalidArgumentError(
                f"sigma must be {kd}x{kd} over the flattened velocity grid, got {sigma.shape}"
            )
        defect = float(np.abs(sigma - sigma.T).max())
        if defect > HERMITICITY_ATOL * max(1.0, float(np.abs(sigma).max())):
            raise InvalidArgumentError(f"sigma must be symmetric, max |s - s^T| = {defect:.3e}")
        sigma = 0.5 * (sigma + sigma.T)
        sigma.setflags(write=False)
        sigma_total = sigma.sum(axis=0)
        sigma_total.setflags(write=False)
        return cls(
            x_grids=x_grids,
            k_grids=k_grids,
            sigma=sigma,
            sigma_total=sigma_total,
            dimension=d,
        )

    @property
    def x_count(self) -> int:
        return int(np.prod([g.count for g in self.x_grids], dtype=np.int64))

    @property
    def k_count(self) -> int:
        return int(np.prod([g.count for g in self.k_grids], dtype=np.int64))

    def k_points(self) -> np.ndarray:
        """Flattened velocity grid, shape (K^d, d), row-major."""
        axes = np.meshgrid(*[g.points for g in self.k_grids], indexing="ij")
        return np.stack([a.reshape(-1) for a in axes], axis=-1)

    def xi_modes(self) -> np.ndarray:
        """Flattened spatial Fourier modes, shape (J^d, d), DFT order per axis."""
        axes = np.meshgrid(*[fourier_modes(g).modes for g in self.x_grids], indexing="ij")
        return np.stack([a.reshape(-1) for a in axes], axis=-1)

    def advection_diagonal(self) -> np.ndarray:
        """Entries xi_i . k_j over the (xi, k) product grid, row-major."""
        xi = self.xi_modes()
        k = self.k_points()
        return (xi[:, None, :] * k[None, :, :]).sum(axis=-1).reshape(-1)

    def collision_matrix(self) -> np.ndarray:
        """sigma - diag(Sigma): the dissipative part of the scattering."""
        return np.diag(self.sigma_total) - self.sigma


def assemble_transport_hamiltonian(model: TransportModel, d_matrix: EtaDiagonal) -> HermitianMatrix:
    """L (x) 1 - 1 (x) Sigma (x) D + 1 (x) sigma (x) D over (xi, k, eta).

    L is diagonal with entries xi_i . k_j (spatial modes in DFT order);
    the eta axis carries the ascending modes of ``d_matrix``.  The
    evolution pipeline uses the mode-relabelled equivalent
    (Sigma - sigma) (x) D + L (x) 1; the two differ only by the sign
    labelling of the auxiliary modes.
    """
    defect = float(np.abs(model.sigma - model.sigma.T).max())
    if defect > HERMITICITY_ATOL * max(1.0, float(np.abs(model.sigma).max())):
        raise InvalidArgumentError("sigma asymmetry would break Hermiticity")
    n = d_matrix.count
    ladv = model.advection_diagonal()
    scatter = model.sigma - np.diag(model.sigma_total)  # sigma - Sigma
    dim = ladv.size * n
    if dim > DENSE_LIMIT:
        total = sp.kron(sp.diags(ladv.astype(complex)), sp.eye(n), format="csr") + sp.kron(
            sp.eye(model.x_count),
            sp.kron(sp.csr_matrix(scatter.astype(complex)), sp.diags(d_matrix.diagonal)),
            format="csr",
        )
    else:
        total = np.kron(np.diag(ladv), np.eye(n)) + np.kron(
            np.eye(model.x_count), np.kron(scatter, np.diag(d_matrix.diagonal))
        )
    return HermitianMatrix.from_entries(total)


def write_triplets(matrix: HermitianMatrix, path) -> None:
    """Serialize to the triplet text format.

    Line 1: ``dimension <D>``; every following line ``row col re im`` with
    0-based indices, one per stored nonzero entry.
    """
    if matrix.is_sparse:
        coo = matrix.entries.tocoo()
        rows, cols, vals = coo.row, coo.col, coo.data
    else:
        rows, cols = np.nonzero(matrix.entries)
        vals = matrix.entries[rows, cols]
    with open(path, "w") as fh:
        fh.write(f"dimension {matrix.dimension}\n")
        for r, c, v in zip(rows, cols, vals):
            fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")


def read_triplets(path) -> HermitianMatrix:
    """Inverse of write_triplets."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "dimension":
            raise InvalidArgumentError(f"{path}: malformed triplet header")
        dim = int(header[1])
        rows, cols, vals = [], [], []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            vals.append(complex(float(parts[2]), float(parts[3])))
    if dim > DENSE_LIMIT:
        entries = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    else:
        entries = np.zeros((dim, dim), dtype=complex)
        entries[rows, cols] = vals
    return HermitianMatrix.from_entries(entries)

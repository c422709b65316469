"""Assembly of the Hermitian matrices used by the warped-phase method.

Five families of operators are built here:

* the spectral Schrodinger Hamiltonian  P_1^2 + .. + P_d^2 + V  on a
  periodic tensor grid, where each P_l is the Fourier-collocation momentum
  operator along axis l,
* the diagonal matrix D of auxiliary-variable Fourier modes mu_j, stored in
  ascending order,
* the Hermitian split A = H + i*Hbar of an arbitrary square matrix, with
  H = (A + A^dag)/2 and Hbar = i*(A^dag - A)/2,
* the total Hamiltonian  H (x) D + Hbar (x) 1  of any pair (H, Hbar),
* the pair of kinetic transport (``TransportModel.hermitian_pair``):
  H = Sigma - sigma and Hbar = diag(xi . k).

Every Hermitian matrix is stored as the (B, b, b) stack of its diagonal
blocks, B = 1 for a matrix without block structure.  The blocks are
stated where a problem is built: the transport pair, Fourier transformed
in x, has one K^d x K^d block per spatial frequency.  A stack that is real
symmetric up to HERMITICITY_ATOL is stored as float64, as the transport
pair, heat's Hamiltonian and the paper's classical examples are.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import AccuracyWarning, Grid1D, InvalidArgumentError, fourier_modes

__all__ = [
    "HermitianMatrix",
    "HermitianPair",
    "EtaDiagonal",
    "TransportModel",
    "assemble_schrodinger_hamiltonian",
    "assemble_eta_diagonal",
    "hermitian_decompose",
    "assemble_total_hamiltonian",
]

HERMITICITY_ATOL = 1e-12
PSD_RTOL = 1e-10


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    return blocks.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class HermitianMatrix:
    """Hermitian matrix held as the read-only (B, b, b) stack of its
    diagonal blocks, with its sparsity and max-norm.

    The matrix is block_diag(blocks[0], .., blocks[B-1]) of dimension B*b.
    ``from_entries`` stores a real symmetric matrix as a float64 stack and
    any other as complex128; every consumer takes either dtype.
    ``sparsity`` is the maximum number of nonzeros in any row and
    ``max_norm`` the largest entry magnitude; together with an evolution
    time they set the scale tau = s*t*max_norm of the query-cost model.
    """

    blocks: np.ndarray
    sparsity: int
    max_norm: float

    @classmethod
    def from_entries(cls, entries) -> "HermitianMatrix":
        """From a square matrix (B = 1) or a (B, b, b) stack of diagonal blocks.

        Rejects entries farther from Hermitian than HERMITICITY_ATOL times
        the largest magnitude (at least 1), then stores (A + A^dag)/2 as
        float64 for real entries, which are never made complex, and for
        complex ones whose symmetrised imaginary part is within the same
        tolerance; so every decomposition of it, or of a real combination
        mu*H + Hbar, takes the real LAPACK driver.
        """
        is_complex = np.iscomplexobj(entries)
        blocks = np.asarray(entries, dtype=complex if is_complex else float)
        if blocks.ndim == 2:
            blocks = blocks[None]
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise InvalidArgumentError(
                f"matrix must be square or a stack of square blocks, got shape {np.shape(entries)}"
            )
        defect = float(np.abs(blocks - _adjoint(blocks)).max(initial=0.0))
        scale = max(1.0, float(np.abs(blocks).max(initial=0.0)))
        if defect > HERMITICITY_ATOL * scale:
            raise InvalidArgumentError(
                f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e}"
            )
        blocks = 0.5 * (blocks + _adjoint(blocks))
        if is_complex and float(np.abs(blocks.imag).max(initial=0.0)) <= HERMITICITY_ATOL * scale:
            blocks = blocks.real.copy()
        blocks.setflags(write=False)
        return cls(
            blocks=blocks,
            sparsity=int(np.count_nonzero(blocks, axis=-1).max(initial=0)),
            max_norm=float(np.abs(blocks).max(initial=0.0)),
        )

    @property
    def dimension(self) -> int:
        return self.blocks.shape[0] * self.blocks.shape[1]

    def dense(self) -> np.ndarray:
        count, b, _ = self.blocks.shape
        out = np.zeros((count, b, count, b), dtype=self.blocks.dtype)
        out[np.arange(count), :, np.arange(count), :] = self.blocks
        return out.reshape(self.dimension, self.dimension)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvector columns, decomposed on first use."""
        lam, vec = np.linalg.eigh(self.dense())
        lam.setflags(write=False)
        vec.setflags(write=False)
        return lam, vec

    @cached_property
    def _bounds(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue: (0, 0) for a zero matrix, else from
        ``spectrum`` if held, else eigvalsh."""
        if self.max_norm == 0.0:
            return 0.0, 0.0
        lam = self.spectrum[0] if "spectrum" in vars(self) else np.linalg.eigvalsh(self.blocks)
        return float(lam.min()), float(lam.max())


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
        if self.h.blocks.shape != self.h_bar.blocks.shape:
            raise InvalidArgumentError(
                f"pair block shapes differ: {self.h.blocks.shape} vs {self.h_bar.blocks.shape}"
            )

    def reconstruct(self) -> np.ndarray:
        return self.h.dense() + 1j * self.h_bar.dense()


def _growth(lam_min: float, max_norm: float) -> str | None:
    """The warning of a dissipative part H whose lam_min is below -PSD_RTOL |H|_max."""
    if lam_min < -PSD_RTOL * max_norm:
        return (
            f"dissipative part has negative eigenvalue {lam_min:.3e}; "
            "the original dynamics grow in time"
        )
    return None


def hermitian_decompose(a: np.ndarray, *, check_psd: bool = True) -> HermitianPair:
    """Split a square matrix A into Hermitian H = (A+A^dag)/2 and
    Hbar = i(A^dag-A)/2, so that A = H + i*Hbar exactly.

    A negative eigenvalue of H beyond tolerance signals dynamics that grow
    in time; that is legal input, so it warns (``_growth``) instead of raising.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {a.shape}")
    h = 0.5 * (a + a.conj().T)
    h_bar = 0.5j * (a.conj().T - a)
    hm = HermitianMatrix.from_entries(h)
    hbm = HermitianMatrix.from_entries(h_bar)
    growth = check_psd and hm.max_norm > 0 and _growth(float(hm.spectrum[0][0]), hm.max_norm)
    if growth:
        warnings.warn(growth, AccuracyWarning, stacklevel=2)
    return HermitianPair(h=hm, h_bar=hbm)


@dataclass(frozen=True)
class EtaDiagonal:
    """Diagonal matrix of auxiliary Fourier modes mu_j, strictly ascending,
    stored read-only: the mode order of spectral states produced by the
    forward auxiliary transform.
    """

    diagonal: np.ndarray

    def __post_init__(self):
        diag = np.array(self.diagonal, dtype=float)
        if np.any(np.diff(diag) <= 0):
            raise InvalidArgumentError("eta diagonal must be strictly ascending")
        diag.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)

    @property
    def count(self) -> int:
        return self.diagonal.size

    @property
    def max_norm(self) -> float:
        return float(np.abs(self.diagonal).max())


def assemble_eta_diagonal(eta_grid: Grid1D) -> EtaDiagonal:
    """D = diag of the grid's Fourier modes in ascending order, the
    fftshift of ``fourier_modes``.

    max_norm is pi*(count/2)/half_width, attained by the unpaired most
    negative mode.
    """
    return EtaDiagonal(diagonal=np.fft.fftshift(fourier_modes(eta_grid)))


def _momentum_squared_row(grid: Grid1D) -> np.ndarray:
    # F^dag diag(mu^2) F with the unitary DFT is circulant, entry (a, b) =
    # row[(a - b) % n] with row = ifft(mu^2); real and even because mu^2 is
    # invariant under mode negation (the unpaired mode maps to itself), and
    # its even part is kept so that the matrix is exactly symmetric.
    row = np.fft.ifft(fourier_modes(grid) ** 2).real
    return 0.5 * (row + np.roll(row[::-1], 1))


def _momentum_squared_1d(grid: Grid1D) -> np.ndarray:
    n = grid.count
    return _momentum_squared_row(grid)[np.subtract.outer(np.arange(n), np.arange(n)) % n]


def _laplacian_symbol(grids: list[Grid1D]) -> np.ndarray:
    """Eigenvalues mu_1^2 + .. + mu_d^2 of the spectral Laplacian, shaped
    like the tensor grid in the mode order of np.fft.fftn.

    P_1^2 + .. + P_d^2 is diagonal in the unitary DFT over all axes, so its
    eigenvectors are the columns of that DFT and need no decomposition.
    """
    lam = np.zeros(())
    for g in grids:
        lam = np.add.outer(lam, fourier_modes(g) ** 2)
    return lam


def _laplacian_sparsity_and_max_norm(grids: list[Grid1D]) -> tuple[int, float]:
    """``sparsity`` and ``max_norm`` of assemble_schrodinger_hamiltonian(None,
    grids), read off the rows of its 1-D factors without forming any matrix.

    Every row of the circulant P_l^2 permutes the same entries, with
    row[0] > 0 on the diagonal.  A row of the Kronecker sum holds one row of
    every P_l^2, all sharing that diagonal entry, so it has
    sum_l nnz_l - (d - 1) nonzeros, and its largest entry is the larger of
    the summed diagonals and the largest off-diagonal entry of any factor.
    """
    nnz, diagonal, off_diagonal = 0, 0.0, 0.0
    for g in grids:
        row = _momentum_squared_row(g)
        nnz += int(np.count_nonzero(row))
        diagonal += float(row[0])
        off_diagonal = max(off_diagonal, float(np.abs(row[1:]).max()))
    return nnz - (len(grids) - 1), max(diagonal, off_diagonal)


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


def assemble_schrodinger_hamiltonian(potential, grids) -> HermitianMatrix:
    """Spectral discretisation of -laplacian + V on a periodic tensor grid.

    Returns P_1^2 + .. + P_d^2 + diag(V) where each P_l applies
    diag(modes) in Fourier space along axis l; the Laplacian part is
    positive semi-definite, so the result is PSD whenever V >= 0.
    """
    if isinstance(grids, Grid1D):
        grids = [grids]
    grids = list(grids)
    if not grids:
        raise InvalidArgumentError("need at least one grid")
    v = _sample_potential(potential, grids).reshape(-1)
    h = np.diag(v)
    for l, g in enumerate(grids):
        p2 = _momentum_squared_1d(g)
        left = int(np.prod([gg.count for gg in grids[:l]], dtype=np.int64))
        right = int(np.prod([gg.count for gg in grids[l + 1:]], dtype=np.int64))
        h += np.kron(np.eye(left), np.kron(p2, np.eye(right)))
    return HermitianMatrix.from_entries(h)


def assemble_total_hamiltonian(pair: HermitianPair, d_matrix: EtaDiagonal) -> HermitianMatrix:
    """H_total = H (x) D + Hbar (x) 1, Hermitian of dimension dim(H)*N.

    Its spectrum is the union over modes mu_j of the spectra of
    mu_j*H + Hbar, and its max-norm is max(max|H|*max|D|, max|Hbar|) up to
    entry collisions on the diagonal.
    """
    n = d_matrix.count
    total = np.kron(pair.h.dense(), np.diag(d_matrix.diagonal)) + np.kron(
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
        axes = np.meshgrid(*[fourier_modes(g) for g in self.x_grids], indexing="ij")
        return np.stack([a.reshape(-1) for a in axes], axis=-1)

    def advection_diagonal(self) -> np.ndarray:
        """Entries xi_i . k_j over the (xi, k) product grid, row-major."""
        xi = self.xi_modes()
        k = self.k_points()
        return (xi[:, None, :] * k[None, :, :]).sum(axis=-1).reshape(-1)

    def collision_matrix(self) -> np.ndarray:
        """diag(Sigma) - sigma: the dissipative part of the scattering."""
        return np.diag(self.sigma_total) - self.sigma

    @cached_property
    def _intervals(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Spectral intervals of H and Hbar of ``hermitian_pair()``: the
        extreme scattering rates, from one eigvalsh of the collision matrix
        on first use, and the range of xi . k."""
        rates, symbol = np.linalg.eigvalsh(self.collision_matrix()), self.advection_diagonal()
        return (float(rates[0]), float(rates[-1])), (float(symbol.min()), float(symbol.max()))

    def hermitian_pair(self) -> HermitianPair:
        """The split A = H + i*Hbar of the spatially Fourier-transformed
        transport generator, one K^d x K^d block per spatial frequency xi.

        H stacks diag(Sigma) - sigma (positive semi-definite for nonnegative
        sigma) J^d times, and Hbar holds the advection symbol diag(xi . k)
        on each block, so that mode mu evolves under
        mu*(Sigma - sigma) + diag(xi . k).  Both come with their spectral
        bounds, the scattering rates and the range of xi . k, so no
        propagator decomposes them for those.
        """
        jd, kd = self.x_count, self.k_count
        advection = np.zeros((jd, kd, kd))
        advection[:, np.arange(kd), np.arange(kd)] = self.advection_diagonal().reshape(jd, kd)
        h = HermitianMatrix.from_entries(np.broadcast_to(self.collision_matrix(), (jd, kd, kd)))
        h_bar = HermitianMatrix.from_entries(advection)
        # prime the cached properties: the blocks of H equal the collision
        # matrix and Hbar is diagonal, so these are eigvalsh's bounds
        vars(h)["_bounds"], vars(h_bar)["_bounds"] = self._intervals
        return HermitianPair(h=h, h_bar=h_bar)

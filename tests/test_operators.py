import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodingerize import (
    AccuracyWarning,
    InvalidArgumentError,
    TransportModel,
    assemble_eta_diagonal,
    assemble_schrodinger_hamiltonian,
    assemble_total_hamiltonian,
    fourier_modes,
    hermitian_decompose,
    make_grid,
)
from schrodingerize.operators import (
    HermitianMatrix,
    HermitianPair,
    _laplacian_sparsity_and_max_norm,
    _laplacian_symbol,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary_dft(n):
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


class TestHermitianMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidArgumentError):
            HermitianMatrix.from_entries(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sparsity_and_max_norm(self):
        m = HermitianMatrix.from_entries(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert m.sparsity == 2
        assert m.max_norm == 2.0

    def test_spectrum_decomposed_once_and_read_only(self):
        rng = np.random.default_rng(8)
        b = random_complex(rng, (5, 5))
        m = HermitianMatrix.from_entries(b + b.conj().T)
        lam, vec = m.spectrum
        assert m.spectrum[0] is lam and m.spectrum[1] is vec
        assert np.allclose(lam, np.linalg.eigvalsh(m.dense()), atol=1e-12)
        assert np.allclose((vec * lam) @ vec.conj().T, m.dense(), atol=1e-12)
        with pytest.raises(ValueError):
            lam[0] = 0.0


class TestBlockStack:
    @staticmethod
    def stack(rng, nblocks=3, b=2):
        a = random_complex(rng, (nblocks, b, b))
        return a + a.conj().swapaxes(-1, -2)

    def test_dimension_and_dense_block_diag(self):
        blocks = self.stack(np.random.default_rng(21))
        m = HermitianMatrix.from_entries(blocks)
        assert m.blocks.shape == (3, 2, 2)
        assert m.dimension == 6
        assert np.array_equal(m.dense(), scipy.linalg.block_diag(*blocks))

    def test_square_matrix_is_one_block(self):
        m = HermitianMatrix.from_entries(np.eye(4))
        assert m.blocks.shape == (1, 4, 4)
        assert m.dimension == 4
        with pytest.raises(ValueError):
            m.blocks[0, 0, 0] = 2.0

    def test_norms_and_spectrum_match_dense_built(self):
        rng = np.random.default_rng(22)
        blocks = self.stack(rng, nblocks=4, b=3)
        blocks[1, 0, 2] = blocks[1, 2, 0] = 0.0  # rows of unequal weight
        blocks[2] *= 5.0
        stacked = HermitianMatrix.from_entries(blocks)
        dense = HermitianMatrix.from_entries(scipy.linalg.block_diag(*blocks))
        assert stacked.sparsity == dense.sparsity == 3
        assert stacked.max_norm == dense.max_norm
        assert np.array_equal(stacked.spectrum[0], dense.spectrum[0])
        assert np.array_equal(stacked.spectrum[1], dense.spectrum[1])

    def test_non_hermitian_block_rejected(self):
        blocks = self.stack(np.random.default_rng(23))
        blocks[2, 0, 1] += 1.0
        with pytest.raises(InvalidArgumentError, match="not Hermitian"):
            HermitianMatrix.from_entries(blocks)

    def test_non_square_blocks_rejected(self):
        with pytest.raises(InvalidArgumentError, match="square"):
            HermitianMatrix.from_entries(np.zeros((2, 2, 3)))

    def test_pair_rejects_different_block_shapes(self):
        blocks = self.stack(np.random.default_rng(24))
        stacked = HermitianMatrix.from_entries(blocks)
        dense = HermitianMatrix.from_entries(scipy.linalg.block_diag(*blocks))
        with pytest.raises(InvalidArgumentError, match="block shapes"):
            HermitianPair(h=stacked, h_bar=dense)


class TestHermitianDecompose:
    def test_hermitian_input(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, (4, 4))
        h = a @ a.conj().T  # PSD, so no growth warning
        pair = hermitian_decompose(h)
        assert np.allclose(pair.h.dense(), h, atol=1e-14)
        assert pair.h_bar.max_norm == pytest.approx(0.0, abs=1e-14)

    def test_anti_hermitian_input(self):
        rng = np.random.default_rng(2)
        b = random_complex(rng, (4, 4))
        b = b + b.conj().T
        pair = hermitian_decompose(1j * b)  # H = 0 exactly: no PSD warning
        assert pair.h.max_norm == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(pair.h_bar.dense(), b, atol=1e-13)

    def test_indefinite_dissipative_part_warns(self):
        with pytest.warns(AccuracyWarning):
            hermitian_decompose(np.diag([1.0, -1.0]))

    def test_two_by_two_example(self):
        pair = hermitian_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(pair.h.dense(), [[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(pair.h_bar.dense(), [[0.0, -0.5j], [0.5j, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hermitian_decompose(np.zeros((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_reconstruction_roundtrip(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (dim, dim))
        pair = hermitian_decompose(a, check_psd=False)
        assert np.abs(pair.reconstruct() - a).max() < 1e-12 * max(1.0, np.abs(a).max())


class TestEtaDiagonal:
    def test_unit_half_width_four_modes(self):
        d = assemble_eta_diagonal(make_grid(1.0, 4))
        assert np.allclose(d.diagonal, [-2 * np.pi, -np.pi, 0.0, np.pi])

    def test_two_modes(self):
        d = assemble_eta_diagonal(make_grid(3.0, 2))
        assert np.allclose(d.diagonal, [-np.pi / 3.0, 0.0])

    def test_max_norm(self):
        for hw, n in [(1.0, 4), (12.0, 256), (2.0, 16)]:
            d = assemble_eta_diagonal(make_grid(hw, n))
            assert d.max_norm == pytest.approx(np.pi * (n / 2) / hw, rel=1e-12)


class TestSchrodingerHamiltonian:
    def test_constant_potential_constant_eigenvector(self):
        g = make_grid(1.0, 8)
        h = assemble_schrodinger_hamiltonian(lambda x: 3.0 * np.ones_like(x), [g])
        ones = np.ones(8)
        assert np.allclose(h.dense() @ ones, 3.0 * ones, atol=1e-10)

    def test_plane_wave_eigenvector(self):
        g = make_grid(1.0, 16)
        h = assemble_schrodinger_hamiltonian(None, [g])
        wave = np.exp(1j * np.pi * g.points)
        assert np.allclose(h.dense() @ wave, np.pi**2 * wave, atol=1e-9)

    def test_matches_explicit_spectral_construction(self):
        # independent oracle: F^dag diag(mu^2) F + diag(x^2) with an explicit
        # DFT matrix, compared entrywise
        g = make_grid(1.0, 8)
        f = unitary_dft(8)
        mu2 = fourier_modes(g).modes ** 2
        expected = f.conj().T @ np.diag(mu2) @ f + np.diag(g.points**2)
        h = assemble_schrodinger_hamiltonian(lambda x: x**2, [g])
        assert np.abs(h.dense() - expected).max() < 1e-10

    def test_empty_grid_list_rejected(self):
        with pytest.raises(InvalidArgumentError):
            assemble_schrodinger_hamiltonian(None, [])

    def test_complex_potential_rejected(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidArgumentError):
            assemble_schrodinger_hamiltonian(np.array([1j, 0, 0, 0]), [g])

    def test_psd_for_nonnegative_potential(self):
        g = make_grid(1.0, 12)
        h = assemble_schrodinger_hamiltonian(lambda x: x**2 + 1.0, [g])
        lam = np.linalg.eigvalsh(h.dense())
        assert lam.min() >= -1e-10 * h.max_norm

    def test_two_dimensional_plane_wave(self):
        gx, gy = make_grid(1.0, 8), make_grid(1.0, 8)
        h = assemble_schrodinger_hamiltonian(None, [gx, gy])
        xx, yy = np.meshgrid(gx.points, gy.points, indexing="ij")
        wave = np.exp(1j * np.pi * (xx + 2 * yy)).reshape(-1)
        assert np.allclose(h.dense() @ wave, (np.pi**2 + 4 * np.pi**2) * wave, atol=1e-8)


LAPLACIAN_GRIDS = {
    "1d": [(1.0, 8)],
    "1d-wide": [(3.0, 64)],
    "2d": [(1.0, 16), (1.0, 16)],
    "2d-unequal": [(1.0, 16), (2.5, 6)],
    "3d-unequal": [(1.0, 4), (0.5, 10), (2.0, 8)],
}


class TestLaplacianWithoutAssembly:
    @pytest.mark.parametrize("spec", LAPLACIAN_GRIDS.values(), ids=LAPLACIAN_GRIDS.keys())
    def test_sparsity_and_max_norm_match_the_assembled_matrix(self, spec):
        grids = [make_grid(*g) for g in spec]
        h = assemble_schrodinger_hamiltonian(None, grids)
        sparsity, max_norm = _laplacian_sparsity_and_max_norm(grids)
        assert sparsity == h.sparsity
        assert max_norm == pytest.approx(h.max_norm, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", LAPLACIAN_GRIDS.values(), ids=LAPLACIAN_GRIDS.keys())
    def test_symbol_diagonalises_the_assembled_matrix(self, spec):
        # H u = ifftn(lam * fftn(u)) with the unitary DFT, lam in fftn order
        grids = [make_grid(*g) for g in spec]
        shape = tuple(g.count for g in grids)
        u = random_complex(np.random.default_rng(5), shape)
        h = assemble_schrodinger_hamiltonian(None, grids)
        lam = _laplacian_symbol(grids)
        assert lam.shape == shape
        expected = h.dense() @ u.reshape(-1)
        got = np.fft.ifftn(lam * np.fft.fftn(u, norm="ortho"), norm="ortho").reshape(-1)
        assert np.abs(got - expected).max() < 1e-10 * h.max_norm


class TestTotalHamiltonian:
    def test_kron_positions(self):
        pair = HermitianPair(
            h=HermitianMatrix.from_entries(np.array([[0.0, 1.0], [1.0, 0.0]])),
            h_bar=HermitianMatrix.from_entries(np.zeros((2, 2))),
        )
        # ascending eta diagonal (0, pi) is realised by a 2-mode grid of
        # half-width 1 shifted: build the matrix directly instead
        d = assemble_eta_diagonal(make_grid(1.0, 2))  # diag(-pi, 0)
        total = assemble_total_hamiltonian(pair, d).dense()
        expected = np.kron([[0.0, 1.0], [1.0, 0.0]], np.diag([-np.pi, 0.0]))
        assert np.abs(total - expected).max() == 0.0
        nz = np.argwhere(total != 0)
        assert {tuple(r) for r in nz} == {(0, 2), (2, 0)}

    def test_pure_oscillatory_block_repeats(self):
        rng = np.random.default_rng(3)
        b = random_complex(rng, (3, 3))
        b = 0.5 * (b + b.conj().T)
        pair = HermitianPair(
            h=HermitianMatrix.from_entries(np.zeros((3, 3))),
            h_bar=HermitianMatrix.from_entries(b),
        )
        d = assemble_eta_diagonal(make_grid(1.0, 4))
        total = assemble_total_hamiltonian(pair, d).dense()
        assert np.allclose(total, np.kron(b, np.eye(4)), atol=1e-14)

    def test_spectrum_is_union_of_block_spectra(self):
        # dense eigensolve of both forms
        rng = np.random.default_rng(4)
        a = random_complex(rng, (3, 3))
        pair = hermitian_decompose(a, check_psd=False)
        d = assemble_eta_diagonal(make_grid(1.0, 4))
        total = assemble_total_hamiltonian(pair, d)
        lam_total = np.sort(np.linalg.eigvalsh(total.dense()))
        blocks = [
            np.linalg.eigvalsh(mu * pair.h.dense() + pair.h_bar.dense())
            for mu in d.diagonal
        ]
        lam_union = np.sort(np.concatenate(blocks))
        assert np.abs(lam_total - lam_union).max() < 1e-10

    def test_hermitian_and_max_norm(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, (4, 4))
        pair = hermitian_decompose(a, check_psd=False)
        d = assemble_eta_diagonal(make_grid(2.0, 8))
        total = assemble_total_hamiltonian(pair, d)
        dense = total.dense()
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        # max-norm sits at max(|H|max*|D|max, |Hbar|max) up to diagonal
        # collisions between the two Kronecker terms
        floor = max(pair.h.max_norm * d.max_norm, pair.h_bar.max_norm)
        ceiling = pair.h.max_norm * d.max_norm + pair.h_bar.max_norm
        assert 0.49 * floor <= total.max_norm <= ceiling + 1e-12


class TestTransport:
    def make_model(self, j=4, k=4, c=1.0):
        sigma = np.full((k, k), c / k)
        return TransportModel.create([make_grid(1.0, j)], [make_grid(1.0, k)], sigma)

    def test_sigma_total_is_column_sums(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(0, 1, (4, 4))
        s = 0.5 * (s + s.T)
        model = TransportModel.create([make_grid(1.0, 4)], [make_grid(1.0, 4)], s)
        assert np.allclose(model.sigma_total, s.sum(axis=0))

    def test_asymmetric_sigma_rejected(self):
        s = np.full((4, 4), 0.25)
        s[0, 1] += 1e-6  # rank-one style perturbation
        with pytest.raises(InvalidArgumentError):
            TransportModel.create([make_grid(1.0, 4)], [make_grid(1.0, 4)], s)

    def transport_total(self, model, d):
        return assemble_total_hamiltonian(model.hermitian_pair(), d)

    def test_free_streaming_diagonal(self):
        model = TransportModel.create(
            [make_grid(1.0, 4)], [make_grid(1.0, 4)], np.zeros((4, 4))
        )
        d = assemble_eta_diagonal(make_grid(1.0, 2))
        total = self.transport_total(model, d).dense()
        xi = fourier_modes(make_grid(1.0, 4)).modes
        kpts = make_grid(1.0, 4).points
        expected = np.kron(np.diag(np.multiply.outer(xi, kpts).reshape(-1)), np.eye(2))
        assert np.abs(total - expected).max() < 1e-12

    def test_constant_sigma_row_sums(self):
        # single xi = 0 mode: J = 2 grid has modes {0, -pi}; look at the
        # xi = 0 block of the sigma x D part at fixed eta
        c = 0.8
        k = 4
        model = TransportModel.create(
            [make_grid(1.0, 2)], [make_grid(1.0, k)], np.full((k, k), c / k)
        )
        d = assemble_eta_diagonal(make_grid(1.0, 4))
        total = self.transport_total(model, d).dense()
        n = d.count
        # remove the advection part to isolate the scattering block
        xi = fourier_modes(make_grid(1.0, 2)).modes
        adv = np.kron(
            np.diag(np.multiply.outer(xi, make_grid(1.0, k).points).reshape(-1)), np.eye(n)
        )
        scatter = total - adv
        for eta_idx, mu in enumerate(d.diagonal):
            rows = []
            for kk in range(k):
                row = scatter[kk * n + eta_idx, :]
                gain = sum(row[kk2 * n + eta_idx] for kk2 in range(k) if kk2 != kk)
                rows.append(gain)
            # off-diagonal gain row sums: -(K-1)/K * c * mu (diagonal holds the rest)
            assert np.allclose(rows, -(k - 1) / k * c * mu, atol=1e-12)

    @staticmethod
    def brute_force_generator(model, d):
        """The warped transport generator mu*Sigma - mu*sigma + xi.k of the
        pipeline's mode labelling, applied to every basis vector over
        (xi, k, eta) with the axes of every dimension looped explicitly."""
        x_counts = [g.count for g in model.x_grids]
        k_counts = [g.count for g in model.k_grids]
        xi_axes = [fourier_modes(g).modes for g in model.x_grids]
        k_axes = [g.points for g in model.k_grids]
        s, sig_tot = model.sigma, model.sigma.sum(axis=0)
        jd, kd, n = model.x_count, model.k_count, d.count
        dim = jd * kd * n
        brute = np.zeros((dim, dim))
        for col in range(dim):
            vec = np.zeros(dim)
            vec[col] = 1.0
            arr = vec.reshape(jd, kd, n)
            out = np.zeros_like(arr)
            for ji in range(jd):
                xi = [ax[i] for ax, i in zip(xi_axes, np.unravel_index(ji, x_counts))]
                for ki in range(kd):
                    kv = [ax[i] for ax, i in zip(k_axes, np.unravel_index(ki, k_counts))]
                    advect = sum(a * b for a, b in zip(xi, kv))
                    for ei in range(n):
                        mu = d.diagonal[ei]
                        acc = advect * arr[ji, ki, ei]
                        acc += mu * sig_tot[ki] * arr[ji, ki, ei]
                        acc -= mu * sum(s[ki, k2] * arr[ji, k2, ei] for k2 in range(kd))
                        out[ji, ki, ei] = acc
            brute[:, col] = out.reshape(-1)
        return brute

    def test_matches_brute_force_generator(self):
        rng = np.random.default_rng(7)
        j = k = 2
        n = 2
        s = rng.uniform(0.1, 1.0, (k, k))
        s = 0.5 * (s + s.T)
        model = TransportModel.create([make_grid(1.0, j)], [make_grid(1.0, k)], s)
        d = assemble_eta_diagonal(make_grid(1.0, n))
        total = self.transport_total(model, d).dense()
        assert np.abs(total - self.brute_force_generator(model, d)).max() < 1e-12

    def test_matches_brute_force_generator_2d(self):
        rng = np.random.default_rng(8)
        j = k = 2
        s = rng.uniform(0.1, 1.0, (k * k, k * k))
        s = 0.5 * (s + s.T)
        model = TransportModel.create(
            [make_grid(1.0, j), make_grid(1.5, j)], [make_grid(1.0, k), make_grid(2.0, k)], s
        )
        d = assemble_eta_diagonal(make_grid(1.0, 4))
        total = self.transport_total(model, d).dense()
        assert np.abs(total - self.brute_force_generator(model, d)).max() < 1e-12

    def test_hermitian(self):
        model = self.make_model()
        d = assemble_eta_diagonal(make_grid(1.0, 4))
        total = self.transport_total(model, d)
        dense = total.dense()
        assert np.abs(dense - dense.conj().T).max() < 1e-12

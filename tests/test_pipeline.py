import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodingerize import (
    AccuracyWarning,
    AxisSpec,
    DegenerateStateError,
    Grid1D,
    InvalidArgumentError,
    StateVector,
    WarpedState,
    assemble_eta_diagonal,
    assemble_total_hamiltonian,
    default_p_grid,
    dft_p,
    evolve_blocks,
    expm_apply,
    fourier_modes,
    hermitian_decompose,
    idft_p,
    make_grid,
    project_positive,
    recover_integrate,
    recover_point,
    schrodingerize_evolve,
    warp_extend,
)
from schrodingerize.operators import HermitianMatrix, HermitianPair
from schrodingerize.pipeline import (
    SpectralState,
    _lifted_rows,
    _mode_weights,
    decay_factors,
    evolve_eigenbasis,
)


def vector_state(amps):
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    return StateVector(amps, (AxisSpec("x1", amps.size),))


def random_dissipative(rng, dim, lam_max=2.0):
    q = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    h = q @ np.diag(rng.uniform(0.0, lam_max, dim)) @ q.conj().T
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return h + 1j * 0.5 * (g + g.conj().T)


def cosine_similarity(a, b):
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestWarpExtend:
    def test_zero_slice_equals_initial(self):
        g = make_grid(12.0, 128)
        u0 = vector_state([1.0, 2.0 - 1.0j, 0.5])
        w = warp_extend(u0, g)
        arr = w.state.as_array()
        assert np.array_equal(arr[:, 64], u0.amplitudes)  # p = 0 at index N/2

    def test_even_extension(self):
        g = make_grid(8.0, 64)
        u0 = vector_state([1.0, -0.7j])
        arr = warp_extend(u0, g, truncation_tol=1e-3).state.as_array()
        pts = g.points
        i_plus = np.argmin(np.abs(pts - 1.0))
        i_minus = np.argmin(np.abs(pts + 1.0))
        assert np.allclose(arr[:, i_plus], arr[:, i_minus])

    def test_profile_values_exact(self):
        g = make_grid(6.0, 32)
        u0 = vector_state([2.0])
        arr = warp_extend(u0, g, truncation_tol=1e-2).state.as_array()
        assert np.abs(arr[0] - 2.0 * np.exp(-np.abs(g.points))).max() < 1e-14

    def test_lifted_norm_matches_closed_form(self):
        # |w(0)|^2 ~ (N/2L) * |u0|^2 * integral exp(-2|p|) dp = (N/2L)|u0|^2
        g = make_grid(12.0, 256)
        rng = np.random.default_rng(21)
        u0 = vector_state(rng.standard_normal(5))
        w = warp_extend(u0, g)
        predicted = math.sqrt(g.count / (2.0 * g.half_width)) * u0.norm
        assert w.state.norm == pytest.approx(predicted, rel=1e-2)

    def test_short_domain_warns(self):
        g = make_grid(4.0, 32)
        with pytest.warns(AccuracyWarning):
            warp_extend(vector_state([1.0]), g, truncation_tol=1e-4)


class TestAuxiliaryTransforms:
    def test_constant_in_p_hits_zero_mode(self):
        g = make_grid(2.0, 16)
        amps = np.tile(np.array([1.0 + 0.5j]), 16)
        w = WarpedState(StateVector(amps, (AxisSpec("x1", 1), AxisSpec("p", 16, g))), g)
        spec = dft_p(w).state.as_array()[0]
        d = assemble_eta_diagonal(g)
        zero_idx = int(np.argmin(np.abs(d.diagonal)))
        others = np.delete(np.abs(spec), zero_idx)
        assert np.abs(spec[zero_idx]) > 1.0
        assert others.max() < 1e-12

    def test_pure_tone_lands_on_matching_mode(self):
        # the analysis basis is exp(-i*mu*p): the tone exp(-i*mu_m*p)
        # concentrates on mode +mu_m (and exp(+i*mu_m*p) on -mu_m)
        g = make_grid(2.0, 16)
        mv = fourier_modes(g)
        mu_m = mv.modes[3]
        tone = np.exp(-1j * mu_m * g.points)
        w = WarpedState(StateVector(tone, (AxisSpec("p", 16, g),)), g)
        spec = dft_p(w).state.amplitudes
        d = assemble_eta_diagonal(g)
        idx = int(np.argmax(np.abs(spec)))
        assert d.diagonal[idx] == pytest.approx(mu_m, rel=1e-12)
        assert np.delete(np.abs(spec), idx).max() < 1e-12

    def test_roundtrip_and_norm(self):
        rng = np.random.default_rng(22)
        g = make_grid(5.0, 64)
        amps = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        w = WarpedState(
            StateVector(amps.reshape(-1), (AxisSpec("x1", 3), AxisSpec("p", 64, g))), g
        )
        s = dft_p(w)
        assert s.state.norm == pytest.approx(w.state.norm, rel=1e-12)
        back = idft_p(s)
        assert np.abs(back.state.amplitudes - w.state.amplitudes).max() < 1e-12


class HeatFixture:
    """Small heat-form problem shared by several tests."""

    def __init__(self, m=32, n=64, half_width=12.0, t=0.1):
        self.grid = make_grid(1.0, m)
        from schrodingerize import assemble_schrodinger_hamiltonian

        self.h = assemble_schrodinger_hamiltonian(None, [self.grid])
        self.pair = HermitianPair(
            h=self.h,
            h_bar=HermitianMatrix.from_entries(np.zeros((m, m))),
        )
        self.p_grid = make_grid(half_width, n)
        self.d = assemble_eta_diagonal(self.p_grid)
        self.t = t
        u0 = 1.0 + np.cos(np.pi * self.grid.points)
        layout = (AxisSpec("x1", m, self.grid),)
        self.u0 = StateVector(u0.astype(complex), layout)
        self.w0 = warp_extend(self.u0, self.p_grid)
        self.s0 = dft_p(self.w0)

    def evolved(self, t=None, workers=None):
        return evolve_blocks(self.s0, self.pair, self.d, self.t if t is None else t, workers)


class TestEvolveBlocks:
    def test_time_zero_identity(self):
        fix = HeatFixture()
        s = fix.evolved(t=0.0)
        assert np.abs(s.state.amplitudes - fix.s0.state.amplitudes).max() < 1e-14

    def test_zero_mode_slice_frozen(self):
        fix = HeatFixture()
        s = fix.evolved(t=0.7)
        zero_idx = int(np.argmin(np.abs(fix.d.diagonal)))
        before = fix.s0.state.as_array()[:, zero_idx]
        after = s.state.as_array()[:, zero_idx]
        assert np.abs(after - before).max() < 1e-12

    @staticmethod
    def check_against_dense_exponential(rng, a):
        # oracle: exp(-i H_total t) applied to the flattened state
        dim, n, t = a.shape[0], 4, 0.7
        pair = hermitian_decompose(a, check_psd=False)
        p_grid = make_grid(1.0, n)
        d = assemble_eta_diagonal(p_grid)
        amps = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
        s0 = dft_p(
            WarpedState(
                StateVector(amps.reshape(-1), (AxisSpec("x1", dim), AxisSpec("p", n, p_grid))),
                p_grid,
            )
        )
        total = assemble_total_hamiltonian(pair, d)
        expected = expm_apply(1j * total.dense(), s0.state.amplitudes, t)
        got = evolve_blocks(s0, pair, d, t)
        assert np.abs(got.state.amplitudes - expected).max() < 1e-10

    def test_matches_dense_exponential_of_total_hamiltonian(self):
        rng = np.random.default_rng(23)
        self.check_against_dense_exponential(rng, random_dissipative(rng, 2))

    def test_shared_eigenbasis_matches_dense_exponential_of_total_hamiltonian(self):
        # Hermitian A: Hbar = 0, so every mode reuses the eigenbasis of H
        rng = np.random.default_rng(25)
        a = random_hermitian(rng, 3)
        assert hermitian_decompose(a, check_psd=False).h_bar.max_norm == 0.0
        self.check_against_dense_exponential(rng, a)

    def test_norm_conserved(self):
        fix = HeatFixture()
        for t in (0.05, 0.3, 2.0):
            s = fix.evolved(t=t)
            assert s.state.norm == pytest.approx(fix.s0.state.norm, rel=1e-10)

    def test_worker_count_does_not_change_bits(self):
        rng = np.random.default_rng(24)
        dim, n = 3, 16
        a = random_dissipative(rng, dim)
        pair = hermitian_decompose(a, check_psd=False)
        p_grid = make_grid(6.0, n)
        d = assemble_eta_diagonal(p_grid)
        amps = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
        s0 = dft_p(
            WarpedState(
                StateVector(amps.reshape(-1), (AxisSpec("x1", dim), AxisSpec("p", n, p_grid))),
                p_grid,
            )
        )
        serial = evolve_blocks(s0, pair, d, 0.9, workers=1)
        threaded = evolve_blocks(s0, pair, d, 0.9, workers=8)
        assert np.array_equal(serial.state.amplitudes, threaded.state.amplitudes)

    def test_negative_time_rejected(self):
        fix = HeatFixture()
        with pytest.raises(InvalidArgumentError):
            fix.evolved(t=-0.1)

    def test_dimension_mismatch_rejected(self):
        fix = HeatFixture()
        wrong = assemble_eta_diagonal(make_grid(12.0, 32))
        with pytest.raises(InvalidArgumentError):
            evolve_blocks(fix.s0, fix.pair, wrong, 0.1)


def random_hermitian(rng, b):
    g = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    return 0.5 * (g + g.conj().T)


def block_diagonal(rng, sizes):
    return scipy.linalg.block_diag(*[random_hermitian(rng, b) for b in sizes])


def block_stack(rng, nblocks, b):
    return np.stack([random_hermitian(rng, b) for _ in range(nblocks)])


def evolve_matrices(h, hbar, amps, p_grid, t):
    """evolve_blocks of the (dim, N) mode amplitudes under the pair (h, hbar),
    each a square matrix or a (B, b, b) stack of diagonal blocks."""
    pair = HermitianPair(
        h=HermitianMatrix.from_entries(h), h_bar=HermitianMatrix.from_entries(hbar)
    )
    layout = (AxisSpec("x1", amps.shape[0]), AxisSpec("eta", p_grid.count, p_grid))
    s0 = SpectralState(StateVector(amps.reshape(-1), layout), p_grid)
    return evolve_blocks(s0, pair, assemble_eta_diagonal(p_grid), t).state.as_array()


def per_mode_expm(h, hbar, amps, p_grid, t):
    mus = assemble_eta_diagonal(p_grid).diagonal
    return np.stack(
        [scipy.linalg.expm(-1j * t * (mu * h + hbar)) @ col for mu, col in zip(mus, amps.T)],
        axis=1,
    )


STACK_SHAPES = (
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestBlockSplit:
    P_GRID = make_grid(4.0, 8)

    @settings(max_examples=30, deadline=None)
    @given(*STACK_SHAPES)
    def test_equal_blocks_match_interleaved_single_block(self, nblocks, b, t, seed):
        # the (B, b, b) stacks against their dense() matrices as one block
        # (B = 1), rows and columns interleaved by a random relabelling
        rng = np.random.default_rng(seed)
        n = nblocks * b
        h = HermitianMatrix.from_entries(block_stack(rng, nblocks, b))
        hbar = HermitianMatrix.from_entries(block_stack(rng, nblocks, b))
        amps = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        perm = np.arange(n).reshape(nblocks, b)[rng.permutation(nblocks)]
        perm = perm[:, rng.permutation(b)].T.reshape(-1)
        h_perm = h.dense()[np.ix_(perm, perm)]
        hbar_perm = hbar.dense()[np.ix_(perm, perm)]

        split = evolve_matrices(h.blocks, hbar.blocks, amps, self.P_GRID, t)
        whole = np.empty_like(split)
        whole[perm] = evolve_matrices(h_perm, hbar_perm, amps[perm], self.P_GRID, t)
        assert np.abs(split - whole).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(*STACK_SHAPES)
    def test_stack_matches_per_mode_expm(self, nblocks, b, t, seed):
        rng = np.random.default_rng(seed)
        h, hbar = block_stack(rng, nblocks, b), block_stack(rng, nblocks, b)
        amps = rng.standard_normal((nblocks * b, 8)) + 1j * rng.standard_normal((nblocks * b, 8))
        got = evolve_matrices(h, hbar, amps, self.P_GRID, t)
        expected = per_mode_expm(
            scipy.linalg.block_diag(*h), scipy.linalg.block_diag(*hbar), amps, self.P_GRID, t
        )
        assert np.abs(got - expected).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_unequal_blocks_match_per_mode_expm(self, sizes, t, seed):
        # unequal blocks have no stack form: the matrix is one block
        if len(set(sizes)) == 1:
            sizes = sizes + [sizes[0] + 1]
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        h, hbar = block_diagonal(rng, sizes), block_diagonal(rng, sizes)
        amps = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        got = evolve_matrices(h, hbar, amps, self.P_GRID, t)
        assert np.abs(got - per_mode_expm(h, hbar, amps, self.P_GRID, t)).max() < 1e-12


class TestRecoverIntegrate:
    def test_exponential_profile_quadrature(self):
        # integral of exp(-p) over p >= 0 is exactly 1
        g = make_grid(20.0, 4000)  # dp = 0.01
        u0 = vector_state([1.0])
        w = warp_extend(u0, g, truncation_tol=1e-3)
        rec = recover_integrate(w)
        assert abs(rec.u.amplitudes[0] - 1.0) < 1e-4

    def test_zero_state(self):
        g = make_grid(8.0, 32)
        w = WarpedState(StateVector(np.zeros(32), (AxisSpec("p", 32, g),)), g)
        rec = recover_integrate(w)
        assert np.all(rec.u.amplitudes == 0)

    def test_trapezoid_second_order(self):
        errs = []
        for n in (1000, 2000):
            g = make_grid(20.0, n)
            w = warp_extend(vector_state([1.0]), g, truncation_tol=1e-3)
            errs.append(abs(recover_integrate(w).u.amplitudes[0] - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_calibrated_roundtrip_exact(self):
        g = make_grid(12.0, 64)
        rng = np.random.default_rng(25)
        u0 = vector_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        rec = recover_integrate(warp_extend(u0, g), calibrate=True)
        assert np.abs(rec.u.amplitudes - u0.amplitudes).max() < 1e-14


class TestRecoverPoint:
    def test_fresh_state_exact(self):
        g = make_grid(12.0, 64)
        rng = np.random.default_rng(26)
        u0 = vector_state(rng.standard_normal(3))
        w = warp_extend(u0, g)
        p_star = g.points[40]
        rec = recover_point(w, p_star)
        assert np.abs(rec.u.amplitudes - u0.amplitudes).max() < 1e-12
        assert rec.p_star == pytest.approx(p_star)

    def test_off_grid_rejected(self):
        g = make_grid(12.0, 64)
        w = warp_extend(vector_state([1.0]), g)
        with pytest.raises(InvalidArgumentError):
            recover_point(w, 1.0001 * g.points[40])

    def test_nonpositive_rejected(self):
        g = make_grid(12.0, 64)
        w = warp_extend(vector_state([1.0]), g)
        with pytest.raises(InvalidArgumentError):
            recover_point(w, -1.0)

    def test_validity_window_warning(self):
        g = make_grid(12.0, 64)
        w = warp_extend(vector_state([1.0]), g)
        with pytest.warns(AccuracyWarning):
            recover_point(w, g.points[40], convection_estimate=100.0)

    def test_agrees_with_integration_on_evolved_state(self):
        # point evaluation feels the interpolation wiggle of the kinked
        # profile pointwise, so it needs a finer auxiliary grid than the
        # averaging quadrature route
        fix = HeatFixture(m=32, n=1024)
        w_t = idft_p(fix.evolved())
        p_star = fix.p_grid.points[fix.p_grid.count // 2 + 64]
        by_point = recover_point(w_t, p_star).u.amplitudes
        by_quad = recover_integrate(w_t, calibrate=True).u.amplitudes
        rel = np.linalg.norm(by_point - by_quad) / np.linalg.norm(by_quad)
        assert rel < 1e-4


class TestProjectPositive:
    def test_fresh_state_probability_and_cost_factor(self):
        g = make_grid(12.0, 256)
        rng = np.random.default_rng(27)
        u0_amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u0_amps /= np.linalg.norm(u0_amps)
        u0 = vector_state(u0_amps)
        w = warp_extend(u0, g)
        rec = project_positive(w)
        # direct summation oracle with the half-weight convention at p = 0
        pos = g.points[g.count // 2:]
        weights = np.ones(pos.size)
        weights[0] = 0.5
        expected = np.sum(weights * np.exp(-2 * pos)) / w.state.norm**2
        assert rec.success_probability == pytest.approx(expected, rel=1e-12)
        assert 0.4 < rec.success_probability < 0.6
        assert rec.cost_factor == pytest.approx(1.0, abs=0.02)
        assert cosine_similarity(rec.u.amplitudes, u0_amps) > 1 - 1e-12

    def test_probability_decreases_under_heat_flow(self):
        fix = HeatFixture(m=32, n=256)
        probs = []
        for t in (0.0, 0.1, 0.2):
            w_t = idft_p(fix.evolved(t=t))
            probs.append(project_positive(w_t).success_probability)
        assert probs[0] > probs[1] > probs[2]

    def test_negative_support_only_is_degenerate(self):
        g = make_grid(8.0, 32)
        amps = np.zeros(32)
        amps[: 32 // 2] = 1.0  # support strictly on p < 0
        w = WarpedState(StateVector(amps, (AxisSpec("p", 32, g),)), g)
        with pytest.raises(DegenerateStateError):
            project_positive(w)


class TestLeftMovingSupport:
    def test_point_recovery_independent_of_p_star_in_window(self):
        # dissipative flow moves the profile left only: values at p > 0 stay
        # faithful while t*(active decay rate) + p_star < half_width; here
        # the initial data populates modes 0 and pi^2 only
        fix = HeatFixture(m=32, n=1024, half_width=12.0, t=0.1)
        w_t = idft_p(fix.evolved())
        active_rate = np.pi**2
        results = []
        for frac in (0.05, 0.15, 0.4):
            p_star = fix.p_grid.points[fix.p_grid.count // 2 + int(frac * fix.p_grid.count // 2)]
            assert fix.t * active_rate + p_star < fix.p_grid.half_width
            results.append(recover_point(w_t, p_star).u.amplitudes)
        for other in results[1:]:
            rel = np.linalg.norm(other - results[0]) / np.linalg.norm(results[0])
            assert rel < 1e-3


class TestSchrodingerizeEvolve:
    def test_zero_matrix_identity(self):
        rng = np.random.default_rng(28)
        u0 = vector_state(rng.standard_normal(4))
        for t in (0.0, 1.0, 3.0):
            _, rec = schrodingerize_evolve(u0, np.zeros((4, 4)), None, t)
            assert np.abs(rec.u.amplitudes - u0.amplitudes).max() < 1e-10

    def test_anti_hermitian_preserves_norm(self):
        rng = np.random.default_rng(29)
        b = rng.standard_normal((4, 4))
        b = b + b.T
        u0 = vector_state(rng.standard_normal(4))
        _, rec = schrodingerize_evolve(u0, 1j * b, None, 0.8)
        assert rec.u.norm == pytest.approx(u0.norm, rel=1e-8)

    def test_random_dissipative_matches_exponential(self):
        rng = np.random.default_rng(30)
        errs = []
        for _ in range(5):
            a = random_dissipative(rng, 4)
            u0_amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u0 = vector_state(u0_amps)
            _, rec = schrodingerize_evolve(u0, a, None, 0.5)
            expected = expm_apply(a, u0_amps, 0.5)
            errs.append(np.linalg.norm(rec.u.amplitudes - expected) / np.linalg.norm(expected))
        assert max(errs) < 1e-3

    def test_error_decreases_with_resolution(self):
        rng = np.random.default_rng(31)
        a = random_dissipative(rng, 4)
        u0_amps = rng.standard_normal(4)
        u0 = vector_state(u0_amps)
        expected = expm_apply(a, u0_amps, 0.4)
        errs = []
        for half_width, n in [(8.0, 32), (12.0, 128), (12.0, 512)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AccuracyWarning)
                _, rec = schrodingerize_evolve(u0, a, Grid1D(half_width, n), 0.4)
            errs.append(np.linalg.norm(rec.u.amplitudes - expected) / np.linalg.norm(expected))
        assert errs[0] > errs[1] > errs[2]

    def test_oracle_equivalence_small_battery(self):
        # all dims <= 8, auxiliary counts <= 32, documented tolerance
        rng = np.random.default_rng(32)
        for dim in (2, 4, 8):
            for n in (16, 32):
                a = random_dissipative(rng, dim, lam_max=1.0)
                u0_amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                u0 = vector_state(u0_amps)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", AccuracyWarning)
                    _, rec = schrodingerize_evolve(u0, a, Grid1D(8.0, n), 0.3)
                expected = expm_apply(a, u0_amps, 0.3)
                rel = np.linalg.norm(rec.u.amplitudes - expected) / np.linalg.norm(expected)
                assert rel < 0.05, (dim, n, rel)

    def test_recovery_methods_agree_in_direction(self):
        rng = np.random.default_rng(33)
        a = random_dissipative(rng, 4, lam_max=1.0)
        u0 = vector_state(rng.standard_normal(4))
        grid = Grid1D(12.0, 1024)
        w_t, rec = schrodingerize_evolve(u0, a, grid, 0.4)
        p_star = grid.points[grid.count // 2 + grid.count // 8]
        # every eigenvalue of the dissipative part is below lam_max = 1
        point = recover_point(w_t, p_star, convection_estimate=0.4 * 1.0).u.amplitudes
        projection = project_positive(w_t).u.amplitudes
        assert cosine_similarity(rec.u.amplitudes, point) > 1 - 1e-6
        assert cosine_similarity(rec.u.amplitudes, projection) > 1 - 1e-6

    def test_cost_attached(self):
        u0 = vector_state([1.0, 0.0])
        _, rec = schrodingerize_evolve(u0, np.diag([0.0, 1.0]).astype(complex), None, 0.5)
        assert rec.cost is not None
        assert rec.cost.queries > 0
        assert rec.cost.norm_ratio == pytest.approx(u0.norm / rec.u.norm, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            schrodingerize_evolve(vector_state([1.0, 2.0]), np.zeros((3, 3)), None, 0.1)


class TestDecayFactors:
    @pytest.mark.parametrize("half_width, n", [(12.0, 8), (5.0, 10), (12.0, 64), (20.0, 250)])
    def test_integration_weights_match_the_stages_and_vanish_on_even_modes(self, half_width, n):
        # the weights against the explicit stages: the profile through
        # dft_p, and the calibrated trapezoid rule pulled back through
        # idft_p one unit mode at a time
        grid = Grid1D(half_width, n)
        summed, weights = _mode_weights(grid, "integration")
        m = np.arange(-(n // 2), n // 2)
        even = (m % 2 == 0) & (m != 0)
        assert np.all(weights[even] == 0.0)
        assert np.array_equal(summed, np.flatnonzero(~even))

        profile = dft_p(warp_extend(vector_state([1.0]), grid, truncation_tol=1.0))
        layout = (AxisSpec("x1", n), AxisSpec("eta", n, grid))
        units = SpectralState(StateVector(np.eye(n).reshape(-1), layout), grid)
        functional = recover_integrate(idft_p(units), calibrate=True).u.amplitudes
        explicit = profile.state.amplitudes * functional
        scale = np.abs(explicit).max()
        assert np.abs(explicit[even]).max() < 1e-14 * scale
        assert np.abs(weights - explicit).max() < 1e-13 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=4, max_value=256).map(lambda k: 2 * k),
        st.floats(min_value=4.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_explicit_lift(self, dim, n, half_width, t, seed):
        # V (g * V^dag u0) against schrodingerize_evolve on a PSD H (Hbar = 0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = x @ x.conj().T / dim
        lam, vec = np.linalg.eigh(h)
        u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        grid = Grid1D(half_width, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            w_t, integration = schrodingerize_evolve(vector_state(u0), h, grid, t)
            factors = {r: decay_factors(lam, grid, t, r) for r in ("integration", "projection")}
        for recovery, rec in (("integration", integration), ("projection", project_positive(w_t))):
            u_t = vec @ (factors[recovery] * (vec.conj().T @ u0))
            if recovery == "projection":
                assert np.linalg.norm(u_t) == pytest.approx(rec.u_norm, rel=1e-12)
                u_t = u_t / np.linalg.norm(u_t)
            expected = rec.u.amplitudes
            assert np.linalg.norm(u_t - expected) <= 1e-12 * np.linalg.norm(expected), recovery

    def test_warns_when_convection_reaches_the_boundary(self):
        with pytest.warns(AccuracyWarning, match="convection"):
            decay_factors(np.array([0.0, 2.0]), Grid1D(4.0, 64), 2.5, "integration")

    def test_rejects_unknown_recovery_and_negative_time(self):
        with pytest.raises(InvalidArgumentError):
            decay_factors(np.array([1.0]), Grid1D(12.0, 64), 1.0, "point")
        with pytest.raises(InvalidArgumentError):
            decay_factors(np.array([1.0]), Grid1D(12.0, 64), -1.0, "integration")


class TestEvolveEigenbasis:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1.0, max_value=60.0), min_size=1, max_size=12),
        st.integers(min_value=4, max_value=256).map(lambda k: 2 * k),
        st.floats(min_value=4.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_row_factors_equal_decay_factors(self, lam, n, half_width, t):
        # the lifted rows against the closed-form weights, for both rules
        lam = np.array(lam)
        grid = Grid1D(half_width, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            rows = _lifted_rows(lam, grid, t)
            for recovery, got in (("integration", rows.integration), ("projection", rows.fit)):
                expected = decay_factors(lam, grid, t, recovery)
                assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_dft_basis_matches_explicit_eigenvectors(self):
        # vectors=None (the unitary DFT) against the same basis as columns
        grid = make_grid(1.0, 16)
        modes = fourier_modes(grid).modes
        u0 = StateVector(
            1.0 + np.cos(np.pi * grid.points) + 0.2j * np.sin(2 * np.pi * grid.points),
            (AxisSpec("x1", 16, grid),),
        )
        dft = np.fft.ifft(np.eye(16), axis=0, norm="ortho")  # columns: DFT eigenvectors
        args = (make_grid(12.0, 128), 0.1, 16, 1.0)
        fast = evolve_eigenbasis(u0, modes**2, None, *args)
        dense = evolve_eigenbasis(u0, modes**2, dft, *args)
        assert np.abs(fast.u.amplitudes - dense.u.amplitudes).max() < 1e-13
        assert fast.success_probability == pytest.approx(dense.success_probability, rel=1e-13)
        assert fast.cost_factor == pytest.approx(dense.cost_factor, rel=1e-13)

    def test_time_zero_round_trip_and_conserved_norm(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(0.0, 2.0, 5)
        vectors = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        u0 = vector_state(rng.standard_normal(5))
        grid = make_grid(12.0, 256)
        rec = evolve_eigenbasis(u0, lam, vectors, grid, 0.0, 5, 2.0)
        assert np.abs(rec.u.amplitudes - u0.amplitudes).max() < 1e-12
        rec = evolve_eigenbasis(u0, lam, vectors, grid, 1.5, 5, 2.0)
        assert rec.spectral_norms[1] == pytest.approx(rec.spectral_norms[0], rel=1e-12)
        assert 0.0 < rec.success_probability < 1.0

    def test_zero_state_and_bad_arguments_rejected(self):
        grid = make_grid(12.0, 64)
        with pytest.raises(DegenerateStateError):
            evolve_eigenbasis(vector_state(np.zeros(2)), [0.0, 1.0], np.eye(2), grid, 0.1, 2, 1.0)
        with pytest.raises(InvalidArgumentError):
            evolve_eigenbasis(vector_state([1.0, 0.0]), [0.0, 1.0], np.eye(2), grid, -0.1, 2, 1.0)
        with pytest.raises(InvalidArgumentError):
            evolve_eigenbasis(vector_state([1.0, 0.0]), [0.0], np.eye(2), grid, 0.1, 2, 1.0)


class TestDefaultPGrid:
    def test_package_default(self):
        g = default_p_grid()
        assert g.half_width == 12.0
        assert g.count == 256

    def test_precision_driven(self):
        g = default_p_grid(epsilon=0.01, t=5.3, lambda_max=1.0)
        assert g.half_width >= 12.0
        assert g.spacing <= 0.01

    def test_bad_epsilon(self):
        with pytest.raises(InvalidArgumentError):
            default_p_grid(epsilon=2.0)

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from schrodingerize import (
    InvalidArgumentError,
    ResourceLimitError,
    TransportModel,
    expm_apply,
    heat_analytic,
    make_grid,
    transport_exact,
)
from schrodingerize import core, oracle
from schrodingerize.cli import _eval_expression
from schrodingerize.oracle import _expm_stack


class TestExpmApply:
    def test_zero_matrix(self):
        u = np.array([1.0, 2.0, 3.0])
        assert np.allclose(expm_apply(np.zeros((3, 3)), u, 1.7), u)

    def test_identity_matrix(self):
        u = np.array([1.0, -2.0])
        assert np.allclose(expm_apply(np.eye(2), u, 1.0), math.exp(-1.0) * u)

    def test_against_adaptive_rk(self):
        # cross-method oracle: integrate du/dt = -A u with tight tolerances
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = 0.8

        def rhs(_, y):
            v = y[:3] + 1j * y[3:]
            dv = -a @ v
            return np.concatenate([dv.real, dv.imag])

        sol = solve_ivp(
            rhs, (0.0, t), np.concatenate([u0.real, u0.imag]),
            method="DOP853", rtol=1e-12, atol=1e-13,
        )
        expected = sol.y[:3, -1] + 1j * sol.y[3:, -1]
        got = expm_apply(a, u0, t)
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-9

    def test_semigroup_property(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4))
        u0 = rng.standard_normal(4)
        once = expm_apply(a, u0, 0.9)
        twice = expm_apply(a, expm_apply(a, u0, 0.4), 0.5)
        assert np.linalg.norm(once - twice) / np.linalg.norm(once) < 1e-10

    def test_normal_non_hermitian_path(self):
        # anti-Hermitian matrices are normal but not Hermitian
        rng = np.random.default_rng(14)
        b = rng.standard_normal((4, 4))
        b = b + b.T
        a = 1j * b
        u0 = rng.standard_normal(4)
        got = expm_apply(a, u0, 0.6)
        lam, vec = np.linalg.eigh(b)
        expected = vec @ (np.exp(-1j * lam * 0.6) * (vec.T @ u0))
        assert np.linalg.norm(got - expected) < 1e-10
        assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(u0), rel=1e-12)

    @staticmethod
    def assert_matches_dense_expm(a, u0, t):
        expected = scipy.linalg.expm(-a * t) @ u0
        got = expm_apply(a, u0, t)
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-12

    @pytest.mark.parametrize("dim", [2, 5, 16, 64])
    def test_non_normal_matches_dense_expm(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for t in (0.1, 0.8, 2.0):
            self.assert_matches_dense_expm(a, u0, t)

    def test_strongly_non_normal_upper_triangular(self):
        # eigenvector condition number ~1e15, and |exp(-A t)| is 3.3 at t = 0.5
        # and 10.7 at t = 1 although no eigenvalue is negative
        dim = 12
        a = 5.0 * np.triu(np.ones((dim, dim)), k=1) + np.diag(np.linspace(0.0, 1.0, dim))
        u0 = np.random.default_rng(3).standard_normal(dim)
        for t in (0.5, 1.0):
            self.assert_matches_dense_expm(a, u0, t)

    def test_general_dense_matches_dense_expm(self, general_dense_config, general_dense_matrix):
        u0 = general_dense_config["physics"]["u0"]
        u0 = np.asarray(u0["real"]) + 1j * np.asarray(u0["imag"])
        self.assert_matches_dense_expm(general_dense_matrix, u0, general_dense_config["physics"]["t"])

    def test_pade_past_the_byte_cap_refused_before_it_allocates(self, monkeypatch):
        # the cap set just below the Pade working set at n = 64: a
        # non-Hermitian A is refused before _expm_stack runs, and a Hermitian
        # A of the same size still takes its eigendecomposition
        def refuse(*args, **kwargs):
            raise AssertionError("the Pade exponential started past the byte cap")

        monkeypatch.setattr(oracle, "_expm_stack", refuse)
        cap = int(oracle._PADE_COPIES * 64 * 64 * 16) - 1
        monkeypatch.setattr(core, "ARRAY_BYTES_LIMIT", cap)
        rng = np.random.default_rng(15)
        g = rng.standard_normal((64, 64))
        u0 = rng.standard_normal(64)
        with pytest.raises(ResourceLimitError, match="dimension 64 .* MiB cap"):
            expm_apply(g + 0.5j * (g + g.T), u0, 0.5)
        h = g + g.T
        lam, vec = np.linalg.eigh(h)
        expected = vec @ (np.exp(-0.5 * lam) * (vec.T @ u0))
        assert np.linalg.norm(expm_apply(h, u0, 0.5) - expected) < 1e-10 * np.linalg.norm(expected)

    def test_dimension_cap(self, traced_peak):
        # refused from the shape alone: no complex copy of the 191 MiB input
        # (381.5 MiB were allocated before the refusal when A was converted first)
        a, u0 = np.zeros((5000, 5000)), np.zeros(5000)

        def refused():
            with pytest.raises(ResourceLimitError, match="capped at dimension 4096, got 5000"):
                expm_apply(a, u0, 1.0)

        assert traced_peak(refused, warm=False) < 2**20

    @pytest.mark.parametrize(
        "hermitian, phase", [(True, "the dense exponential"), (False, "the Pade exponential")]
    )
    def test_each_branch_refused_by_its_own_phase(self, monkeypatch, traced_peak, hermitian, phase):
        # the cap set just below each branch's phase at n = 64: that phase
        # alone passes it, and the refusal names it before A is copied
        rng = np.random.default_rng(16)
        g = rng.standard_normal((64, 64))
        a = g + g.T if hermitian else g
        copies = oracle._EIGH_COPIES if hermitian else oracle._PADE_COPIES
        monkeypatch.setattr(core, "ARRAY_BYTES_LIMIT", int(copies * 64 * 64 * 16) - 1)

        def refused():
            with pytest.raises(ResourceLimitError, match=f"^{phase} of dimension 64 needs"):
                expm_apply(a, np.ones(64), 0.5)

        assert traced_peak(refused, warm=False) < 2**20

    @pytest.mark.parametrize("hermitian", [True, False], ids=["eigh", "pade"])
    def test_predicted_phase_bounds_the_peak(self, preflight_phases, traced_peak, hermitian):
        # n = 512: 4 MiB per complex copy; the largest listed phase holds the
        # measured peak and stays within twice it
        rng = np.random.default_rng(17)
        g = rng.standard_normal((512, 512))
        a = g + g.T if hermitian else g
        peak = traced_peak(lambda: expm_apply(a, np.ones(512), 0.5))
        predicted = max(nbytes for _, nbytes, _ in preflight_phases)
        assert peak > 8 * 2**20
        assert peak <= predicted < 2 * peak

    def test_non_square_rejected(self):
        with pytest.raises(InvalidArgumentError):
            expm_apply(np.zeros((2, 3)), np.zeros(2), 1.0)


class TestHeatAnalytic:
    def test_constant_unchanged(self):
        g = make_grid(1.0, 16)
        u = np.ones(16)
        assert np.allclose(heat_analytic(u, g, 2.3), u)

    def test_cosine_decay(self):
        g = make_grid(1.0, 64)
        u0 = np.cos(np.pi * g.points)
        got = heat_analytic(u0, [g], 0.1)
        expected = math.exp(-math.pi**2 * 0.1) * u0
        assert np.abs(got - expected).max() < 1e-12
        # frozen decay factor, derived from exp(-pi^2/10)
        assert math.exp(-math.pi**2 * 0.1) == pytest.approx(0.37270783885343794, rel=1e-12)
        assert math.exp(-math.pi**2 * 0.1) == pytest.approx(0.37266, abs=1e-4)

    def test_t_zero_identity(self):
        rng = np.random.default_rng(15)
        g = make_grid(2.0, 32)
        u0 = rng.standard_normal(32)
        assert np.allclose(heat_analytic(u0, g, 0.0), u0, atol=1e-13)

    def test_norm_nonincreasing(self):
        rng = np.random.default_rng(16)
        g = make_grid(1.0, 32)
        u0 = rng.standard_normal(32)
        norms = [np.linalg.norm(heat_analytic(u0, g, t)) for t in (0.0, 0.05, 0.1, 0.5)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_two_dimensional_mode(self):
        gx, gy = make_grid(1.0, 16), make_grid(1.0, 16)
        xx, yy = np.meshgrid(gx.points, gy.points, indexing="ij")
        u0 = np.cos(np.pi * xx) * np.cos(2 * np.pi * yy)
        got = heat_analytic(u0, [gx, gy], 0.05)
        expected = math.exp(-(np.pi**2 + 4 * np.pi**2) * 0.05) * u0
        assert np.abs(got - expected).max() < 1e-12


def constant_sigma_model(j=8, k=8, c=1.0):
    sigma = np.full((k, k), c / k)
    return TransportModel.create([make_grid(1.0, j)], [make_grid(1.0, k)], sigma)


def rk4_transport(model, w0, t, steps):
    """Method-of-lines RK4 for the kinetic transport equation, in physical
    space: spectral x derivatives, collisions on the flattened velocity
    axis.  The independent cross-check of transport_exact's Pade-13."""
    d, kd = model.dimension, model.k_count
    shape = tuple(g.count for g in model.x_grids) + tuple(g.count for g in model.k_grids)
    xi, k_vals = [], []
    for l, (gx, gk) in enumerate(zip(model.x_grids, model.k_grids)):
        axis = [1] * 2 * d
        axis[l] = gx.count
        xi.append((2.0 * np.pi * np.fft.fftfreq(gx.count, d=gx.spacing)).reshape(axis))
        axis = [1] * 2 * d
        axis[d + l] = gk.count
        k_vals.append(gk.points.reshape(axis))

    def rhs(w):
        # dW/dt = -k . grad_x W + sigma*W - Sigma(k) W
        out = sum(-k * np.fft.ifft(1j * x * np.fft.fft(w, axis=l), axis=l)
                  for l, (x, k) in enumerate(zip(xi, k_vals)))
        flat = w.reshape(-1, kd)
        return out + (flat @ model.sigma.T - flat * model.sigma_total).reshape(shape)

    w, dt = np.asarray(w0, dtype=complex).reshape(shape), t / steps
    for _ in range(steps):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dt * k1)
        k3 = rhs(w + 0.5 * dt * k2)
        k4 = rhs(w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


class TestRk4Transport:
    def test_free_streaming_translation(self):
        # sigma = 0: each velocity slice advects by k*t, exact for resolved modes
        j = k = 8
        model = TransportModel.create(
            [make_grid(1.0, j)], [make_grid(1.0, k)], np.zeros((k, k))
        )
        gx = make_grid(1.0, j)
        gk = make_grid(1.0, k)
        xx, kk = np.meshgrid(gx.points, gk.points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx)
        t = 0.3
        got = rk4_transport(model, w0, t, steps=400)
        expected = 1.0 + 0.5 * np.cos(np.pi * (xx - kk * t))
        assert np.abs(got - expected).max() < 1e-7


def random_sigma(rng, kd, scale=1.0):
    """Random symmetric nonnegative cross-section matrix over kd velocities."""
    s = rng.uniform(0.0, scale / kd, (kd, kd))
    return s + s.T


def workload_instance(config):
    """Model and initial density of a ``transport`` benchmark config."""
    res, physics = config["resolution"], config["physics"]
    kd = res["K"]
    model = TransportModel.create(
        [make_grid(1.0, res["J"])], [make_grid(1.0, kd)],
        np.full((kd, kd), physics["sigma"]["value"] / kd),
    )
    xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
    return model, _eval_expression(physics["initial_condition"], {"x": xx, "k": kk}), physics["t"]


def random_instance(seed, dimension, j, k):
    rng = np.random.default_rng(seed)
    grid_x, grid_k = make_grid(1.0, j), make_grid(1.0, k)
    model = TransportModel.create(
        [grid_x] * dimension, [grid_k] * dimension, random_sigma(rng, k**dimension, 2.0)
    )
    w0 = rng.uniform(0.5, 1.5, (j,) * dimension + (k,) * dimension)
    return model, w0


def relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestExpmStack:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scipy_expm_per_block(self, nblocks, kd, advection, scattering, seed):
        # transport generators sigma - diag(Sigma) - i diag(xi . k), |xi . k| <= advection
        rng = np.random.default_rng(seed)
        sigma = random_sigma(rng, kd, scattering)
        gen = np.repeat((sigma - np.diag(sigma.sum(axis=0)))[None].astype(complex), nblocks, 0)
        diag = np.arange(kd)
        gen[:, diag, diag] -= 1j * rng.uniform(-advection, advection, (nblocks, kd))
        got = _expm_stack(gen)
        for block, exp in zip(gen, got):
            assert relative(exp, scipy.linalg.expm(block)) < 1e-12

    def test_zero_is_identity_to_rounding(self):
        got = _expm_stack(np.zeros((3, 4, 4), dtype=complex))
        assert np.abs(got - np.eye(4)).max() < 1e-15


class TestTransportExact:
    def test_workload_matches_converged_rk4(self, transport_config):
        model, w0, t = workload_instance(transport_config)
        exact = transport_exact(model, w0, t)
        assert relative(exact, rk4_transport(model, w0, t, steps=1000)) < 1e-9

    @pytest.mark.parametrize("dimension, j, k", [(1, 16, 8), (1, 8, 16), (2, 4, 4)])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_scattering_matches_converged_rk4(self, seed, dimension, j, k):
        model, w0 = random_instance(seed, dimension, j, k)
        for t in (0.3, 1.0):
            exact = transport_exact(model, w0, t)
            assert relative(exact, rk4_transport(model, w0, t, steps=1000)) < 1e-9

    def test_relaxation_toward_velocity_average(self):
        model = constant_sigma_model(c=2.0)
        gk = make_grid(1.0, 8)
        w0 = np.broadcast_to(1.0 + 0.5 * np.cos(np.pi * gk.points), (8, 8)).copy()
        deviations = []
        for t in (0.0, 0.5, 1.0, 2.0):
            w = transport_exact(model, w0, t).real
            avg = w.mean(axis=1, keepdims=True)
            deviations.append(np.linalg.norm(w - avg))
        assert all(a > b - 1e-12 for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] < 0.2 * deviations[0]

    def test_mass_conserved(self):
        rng = np.random.default_rng(17)
        model = constant_sigma_model(c=1.5)
        w0 = rng.uniform(0.5, 1.5, (8, 8))
        m0 = w0.sum()
        for t in (0.25, 1.0):
            w = transport_exact(model, w0, t)
            assert abs(w.real.sum() - m0) / m0 < 1e-8

    def test_free_streaming_translates_every_resolved_mode(self):
        # sigma = 0: each velocity slice advects by k*t; RK4 manages 1e-7 here
        j = k = 8
        model = TransportModel.create(
            [make_grid(1.0, j)], [make_grid(1.0, k)], np.zeros((k, k))
        )
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        for mode in (1, 2, 3):
            w0 = 1.0 + 0.5 * np.cos(mode * np.pi * xx) + 0.25 * np.sin(mode * np.pi * xx)
            t = 0.3
            got = transport_exact(model, w0, t)
            shifted = xx - kk * t
            expected = (
                1.0 + 0.5 * np.cos(mode * np.pi * shifted) + 0.25 * np.sin(mode * np.pi * shifted)
            )
            assert np.abs(got - expected).max() < 1e-12

    def test_time_zero_identity(self):
        model, w0 = random_instance(5, 1, 8, 8)
        assert np.abs(transport_exact(model, w0, 0.0) - w0).max() < 1e-14

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        model, w0 = random_instance(7, 1, 4, 4)
        with pytest.raises(InvalidArgumentError):
            transport_exact(model, w0, t)

    def test_chunks_do_not_change_the_result(self, monkeypatch):
        model, w0 = random_instance(6, 2, 4, 4)
        whole = transport_exact(model, w0, 0.7)
        monkeypatch.setattr(oracle, "_EXPM_CHUNK", 16 * 16 * 3)  # chunks of 3 frequencies
        assert relative(transport_exact(model, w0, 0.7), whole) < 1e-14

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrodingerize import (
    AccuracyWarning,
    AxisSpec,
    DegenerateStateError,
    Grid1D,
    InvalidArgumentError,
    StateVector,
    TransportModel,
    UnsupportedProblemError,
    assemble_schrodinger_hamiltonian,
    compute_moments,
    default_p_grid,
    estimate_t_final,
    find_stationary_transport,
    make_grid,
    observable_overlap,
    prepare_gibbs,
    prepare_ground_state,
    project_positive,
    run_heat,
    run_transport,
    schrodingerize_evolve,
    transport_reference,
)
from schrodingerize import apps, oracle
from schrodingerize.operators import HermitianMatrix, HermitianPair
from schrodingerize.pipeline import evolve_lifted


class TestRunHeat:
    def test_flat_mode_instance(self):
        grid = make_grid(1.0, 64)
        u0 = 1.0 + np.cos(np.pi * grid.points)
        result = run_heat(u0, None, grid, p_config=(12.0, 256), t=0.1)
        assert result.l2_relative_error < 1e-3
        expected = 1.0 + math.exp(-math.pi**2 * 0.1) * np.cos(np.pi * grid.points)
        rel = np.linalg.norm(result.u_recovered.amplitudes - expected) / np.linalg.norm(expected)
        assert rel < 1e-3

    def test_time_zero_roundtrip(self):
        grid = make_grid(1.0, 32)
        u0 = 1.0 + np.cos(np.pi * grid.points)
        result = run_heat(u0, None, grid, p_config=(12.0, 128), t=0.0)
        assert result.l2_relative_error < 1e-10

    def test_refinement_reduces_error(self):
        grid = make_grid(1.0, 64)
        u0 = 1.0 + np.cos(np.pi * grid.points)
        errs = [
            run_heat(u0, None, grid, p_config=(12.0, n), t=0.1).l2_relative_error
            for n in (64, 128, 256)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize(
        "ic",
        [
            lambda x: 1.0 + np.cos(np.pi * x),
            lambda x: 2.0 + np.sin(np.pi * x) + 0.5 * np.cos(2 * np.pi * x),
            lambda x: 1.0 + 0.3 * np.cos(3 * np.pi * x),
        ],
    )
    def test_simultaneous_refinement_battery(self, ic):
        # doubling the spatial and auxiliary resolutions together never
        # increases the error on the standard instances
        errs = []
        for m, n in [(16, 64), (32, 128), (64, 256)]:
            grid = make_grid(1.0, m)
            u0 = ic(grid.points)
            errs.append(
                run_heat(u0, None, grid, p_config=(12.0, n), t=0.1).l2_relative_error
            )
        assert errs[0] >= errs[1] >= errs[2]

    def test_with_potential_against_matrix_exponential(self):
        # initial data built from low modes of H: the auxiliary window only
        # covers t * (largest active decay rate), so spectrally full data
        # (e.g. a periodically non-smooth Gaussian) would leave a floor
        grid = make_grid(1.0, 32)
        h = assemble_schrodinger_hamiltonian(lambda x: 1.0 + np.cos(np.pi * x), [grid])
        vectors = np.linalg.eigh(h.dense())[1]
        u0 = vectors[:, :4] @ np.array([1.0, 0.6, -0.4, 0.2])
        result = run_heat(
            u0, lambda x: 1.0 + np.cos(np.pi * x), grid, p_config=(12.0, 512), t=0.05
        )
        assert result.l2_relative_error < 1e-3

    def test_two_dimensional_heat(self):
        gx, gy = make_grid(1.0, 16), make_grid(1.0, 16)
        xx, yy = np.meshgrid(gx.points, gy.points, indexing="ij")
        u0 = 1.0 + 0.5 * np.cos(np.pi * xx) * np.cos(np.pi * yy)
        result = run_heat(u0, None, [gx, gy], p_config=(12.0, 128), t=0.05)
        assert result.l2_relative_error < 1e-3

    def test_two_dimensional_peak_memory(self):
        # n = 1536 with V = 0: no n x n matrix is formed (the dense 36 MiB
        # H and its lifted run peaked at 111 MiB; it is about 1 MiB without)
        gx, gy = make_grid(1.0, 32), make_grid(1.0, 48)
        xx, yy = np.meshgrid(gx.points, gy.points, indexing="ij")
        u0 = 1.0 + 0.5 * np.cos(np.pi * xx) * np.cos(np.pi * yy)
        tracemalloc.start()
        try:
            result = run_heat(u0, None, [gx, gy], p_config=(12.0, 64), t=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.l2_relative_error < 1e-3
        assert peak < 8 * 2**20

    def test_two_dimensional_without_potential_decomposes_nothing(self, monkeypatch):
        # V = 0: the Laplacian is diagonal in the unitary DFT, so the 4096 x
        # 4096 matrix is never formed and never decomposed (the dense path
        # peaked at 776 MiB here)
        gx, gy = make_grid(1.0, 64), make_grid(1.0, 64)
        xx, yy = np.meshgrid(gx.points, gy.points, indexing="ij")
        u0 = 1.0 + 0.5 * np.cos(np.pi * xx) * np.cos(np.pi * yy)
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        tracemalloc.start()
        try:
            result = run_heat(u0, None, [gx, gy], p_config=(12.0, 256), t=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.l2_relative_error < 1e-3
        assert shapes == []
        assert peak < 32 * 2**20

    def test_warns_when_weighted_modes_convect_past_the_boundary(self):
        # mode j = 6 convects by t * (6 pi)^2 = 35.5 > L = 12: the recovered
        # state is off by 8.8e-2, so the run must say so
        grid = Grid1D(1.0, 256)
        u0 = 1.5 + 0.3 * np.cos(6 * np.pi * grid.points + 0.5)
        with pytest.warns(AccuracyWarning, match="convect past the p boundary"):
            result = run_heat(u0, None, grid, p_config=(12.0, 1024), t=0.1)
        assert result.l2_relative_error > 1e-2
        # a domain wide enough for that mode is quiet and accurate
        result = run_heat(u0, None, grid, p_config=(44.0, 1024), t=0.1)
        assert result.l2_relative_error < 1e-4

    def test_benchmark_data_does_not_warn(self):
        # modes j <= 2 convect by at most t * (2 pi)^2 = 3.95 < L = 12; every
        # other eigencomponent carries only rounding (warnings are errors here)
        grid = Grid1D(1.0, 256)
        x = grid.points
        u0 = 1.5 + 0.31 * np.cos(np.pi * x + 0.7) + 0.42 * np.cos(2 * np.pi * x + 2.1)
        result = run_heat(u0, None, grid, p_config=(12.0, 4096), t=0.1)
        assert result.l2_relative_error < 1e-3

    def test_norm_bookkeeping(self):
        grid = make_grid(1.0, 64)
        u0 = 1.0 + np.cos(np.pi * grid.points)
        result = run_heat(u0, None, grid, p_config=(12.0, 256), t=0.1)
        norms = result.norms
        assert norms["w_spectral_final"] == pytest.approx(
            norms["w_spectral_initial"], rel=1e-10
        )
        ratio = norms["u_initial"] / norms["u_reference"]
        assert norms["cost_factor"] == pytest.approx(ratio, rel=0.02)
        assert 0.0 < norms["success_probability"] < 1.0
        assert result.cost.queries > 0
        # the recovered amplification ratio feeds the cost model
        assert result.cost.norm_ratio == norms["u_initial"] / norms["u_recovered"]


def _explicit_heat_lift(u0, potential, grids, p_grid, t):
    """``evolve_lifted`` on the assembled dense pair (H, 0): the explicit lift."""
    h = assemble_schrodinger_hamiltonian(potential, grids)
    pair = HermitianPair(h=h, h_bar=HermitianMatrix.from_entries(np.zeros_like(h.blocks)))
    layout = tuple(AxisSpec(f"x{i + 1}", g.count, g) for i, g in enumerate(grids))
    state = StateVector(np.asarray(u0, dtype=complex).reshape(-1), layout)
    return evolve_lifted(state, pair, p_grid, t)[1]


class TestHeatAgainstExplicitLift:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 5).map(lambda k: 2 * k), min_size=1, max_size=2),
        st.integers(min_value=4, max_value=64).map(lambda k: 2 * k),
        st.floats(min_value=4.0, max_value=16.0),
        st.floats(min_value=0.0, max_value=0.3),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_state_and_norms_match(self, counts, n, half_width, t, with_potential, seed):
        # 1-D and 2-D, with and without V, against the explicit lift to 1e-10
        rng = np.random.default_rng(seed)
        grids = [Grid1D(float(rng.uniform(0.5, 2.0)), m) for m in counts]
        shape = tuple(counts)
        u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        potential = rng.uniform(0.0, 3.0, shape) if with_potential else None
        p_grid = Grid1D(half_width, n)
        with warnings.catch_warnings():
            # random data reaches every mode; both routes wrap alike
            warnings.simplefilter("ignore", AccuracyWarning)
            result = run_heat(u0, potential, grids, p_config=p_grid, t=t)
            explicit = _explicit_heat_lift(u0, potential, grids, p_grid, t)
        expected = explicit.u.amplitudes
        got = result.u_recovered.amplitudes
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
        norms = result.norms
        pairs = {
            "u_recovered": explicit.u.norm,
            "w_spectral_initial": explicit.spectral_norms[0],
            "w_spectral_final": explicit.spectral_norms[1],
            "success_probability": explicit.success_probability,
            "cost_factor": explicit.cost_factor,
        }
        for key, value in pairs.items():
            assert norms[key] == pytest.approx(value, rel=1e-10, abs=0.0), key
        # both lifted runs are unitary: the norm is conserved to rounding
        heat_norms = (norms["w_spectral_initial"], norms["w_spectral_final"])
        for initial, final in (explicit.spectral_norms, heat_norms):
            assert final == pytest.approx(initial, rel=1e-12, abs=0.0)
        cost, explicit_cost = result.cost.as_dict(), explicit.cost.as_dict()
        for key in ("tau", "queries", "gates", "qubit_count", "norm_ratio"):
            assert cost[key] == pytest.approx(explicit_cost[key], rel=1e-10, abs=0.0), key
        assert cost["inputs"]["s"] == explicit_cost["inputs"]["s"]
        assert cost["inputs"]["max_norm"] == pytest.approx(
            explicit_cost["inputs"]["max_norm"], rel=1e-14, abs=0.0
        )


class TestEstimateTFinal:
    def test_reference_point(self):
        assert estimate_t_final(1.0, 0.5, 0.01) == pytest.approx(
            5.298317366548036, rel=1e-12
        )

    def test_gap_scaling(self):
        assert estimate_t_final(2.0, 0.5, 0.01) == pytest.approx(
            estimate_t_final(1.0, 0.5, 0.01) / 2.0, rel=1e-12
        )

    def test_unit_case(self):
        assert estimate_t_final(1.0, 1.0, math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_gapless_rejected(self):
        with pytest.raises(InvalidArgumentError):
            estimate_t_final(0.0, 0.5, 0.01)


class TestPrepareGroundState:
    def test_two_level_reference(self):
        report = prepare_ground_state(
            np.diag([0.0, 1.0]), np.array([1.0, 1.0]) / math.sqrt(2), 0.01
        )
        assert report.t_final == pytest.approx(math.log(200.0), abs=1e-4)
        assert report.fidelity >= 0.99
        closed_form = 1.0 / (1.0 + math.exp(-2.0 * report.t_final))
        assert report.fidelity == pytest.approx(closed_form, abs=1e-4)
        assert report.gap == pytest.approx(1.0)
        assert report.alpha0_sq == pytest.approx(0.5)

    def test_exact_ground_state_input(self):
        report = prepare_ground_state(np.diag([0.0, 1.0]), np.array([1.0, 0.0]), 0.01)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_random_battery_reaches_target_fidelity(self):
        rng = np.random.default_rng(41)
        for _ in range(6):
            q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            energies = np.sort(rng.uniform(0.0, 2.0, 4))
            energies[1] = energies[0] + max(energies[1] - energies[0], 0.15)  # gap floor
            h = q @ np.diag(energies) @ q.T
            u0 = q[:, 0] + 0.8 * rng.standard_normal(4)
            if abs(q[:, 0] @ u0 / np.linalg.norm(u0)) ** 2 < 0.1:
                u0 = q[:, 0] + 0.3 * rng.standard_normal(4)
            epsilon = 0.01
            report = prepare_ground_state(h, u0, epsilon)
            assert report.fidelity >= 1 - epsilon, report

    def test_zero_overlap_rejected(self):
        with pytest.raises(InvalidArgumentError):
            prepare_ground_state(np.diag([0.0, 1.0]), np.array([0.0, 1.0]), 0.01)

    def test_degenerate_ground_level_rejected(self):
        with pytest.raises(UnsupportedProblemError):
            prepare_ground_state(np.eye(3), np.array([1.0, 0.0, 0.0]), 0.01)

    def test_benchmark_size_stays_small_and_decomposes_once(self, monkeypatch):
        # dim 32 at eps = 1e-3: the default auxiliary grid has 154,092 modes,
        # so one lifted copy of the state would be 32 x 154,092 complex (75 MiB)
        dim = 32
        rng = np.random.default_rng(7)
        energies = np.concatenate([[0.0], 0.5 + np.linspace(0.0, 3.5, dim - 1)])
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        h = (q * energies) @ q.T
        rest = q[:, 1:] @ rng.standard_normal(dim - 1)
        u0 = math.sqrt(0.2) * q[:, 0] + math.sqrt(0.8) * rest / np.linalg.norm(rest)
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        tracemalloc.start()
        try:
            report = prepare_ground_state(h, u0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert default_p_grid(1e-3, report.t_final, 4.0).count == 154_092
        assert report.fidelity >= 1 - 1e-3
        assert shapes == [(dim, dim)]
        assert peak < 32 * 2**20


class TestPrepareGibbs:
    def test_two_level_reference(self):
        report = prepare_gibbs(np.diag([0.0, 1.0]), beta=1.0)
        z = 1 + math.exp(-1.0)
        exact = np.diag([1.0, math.exp(-1.0)]) / z
        assert report.trace_distance_to_exact < 1e-6
        assert np.abs(report.rho - exact).max() < 1e-6
        assert report.partition_function == pytest.approx(z, rel=1e-12)

    def test_infinite_temperature_limit(self):
        report = prepare_gibbs(np.diag([0.0, 1.0]), beta=1e-6)
        assert np.abs(report.rho - np.eye(2) / 2).max() < 1e-5

    def test_random_symmetric_matrix(self):
        rng = np.random.default_rng(42)
        h = rng.standard_normal((3, 3))
        h = 0.5 * (h + h.T)
        report = prepare_gibbs(h, beta=1.0)
        assert report.trace_distance_to_exact < 1e-4

    def test_density_matrix_validity(self):
        rng = np.random.default_rng(43)
        for dim, beta in [(2, 0.5), (3, 1.0), (4, 2.0)]:
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (h + h.conj().T)
            report = prepare_gibbs(h, beta=beta)
            rho = report.rho
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_complex_hermitian_matches_exact(self):
        # tracing out the untouched register must give exp(-beta H)/Z even
        # when the eigenvectors are complex
        rng = np.random.default_rng(44)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.5 * (h + h.conj().T)
        report = prepare_gibbs(h, beta=0.8)
        assert report.trace_distance_to_exact < 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_half_width_covers_wide_spectrum(self, seed):
        # (beta/2)*(E_max - E_0) is 10.8-13.3 here, past the floor L = 10
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        h = 0.5 * (g + g.conj().T)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            report = prepare_gibbs(h, beta=2.0)
        assert report.trace_distance_to_exact < 1e-8

    def test_invalid_beta(self):
        with pytest.raises(InvalidArgumentError):
            prepare_gibbs(np.diag([0.0, 1.0]), beta=0.0)


def vector_state(amps):
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    return StateVector(amps, (AxisSpec("x1", amps.size),))


class TestExplicitLiftParity:
    """Ground state and Gibbs state against the lifted run they replace."""

    def test_ground_state_matches_explicit_lift(self):
        rng = np.random.default_rng(45)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q = np.linalg.qr(g)[0]
        energies = np.array([0.3, 0.9, 1.4, 2.0, 2.2])
        h = (q * energies) @ q.conj().T
        u0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u0 = u0 / np.linalg.norm(u0)
        # an (L, N) pair with L missing takes L from the default grid rule
        report = prepare_ground_state(h, u0, 0.01, p_grid=(None, 512))
        lam = np.linalg.eigvalsh(h)
        half_width = default_p_grid(0.01, report.t_final, lam[-1] - lam[0]).half_width
        shifted = h - lam[0] * np.eye(5)
        _, rec = schrodingerize_evolve(
            vector_state(u0), shifted, Grid1D(half_width, 512), report.t_final, epsilon=0.01
        )
        expected = rec.u.amplitudes / rec.u.norm
        assert np.linalg.norm(report.u_recovered.amplitudes - expected) < 1e-12
        assert report.fidelity == pytest.approx(
            float(np.abs(report.ground_state.conj() @ expected) ** 2), abs=1e-12
        )

    @pytest.mark.parametrize("dim, beta", [(3, 0.8), (4, 2.0)])
    def test_gibbs_matches_explicit_purification(self, dim, beta):
        # H (x) 1 on the maximally entangled pair, lifted and projected
        rng = np.random.default_rng(46 + dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 0.5 * (g + g.conj().T)
        report = prepare_gibbs(h, beta)
        big = np.kron(h - np.linalg.eigvalsh(h)[0] * np.eye(dim), np.eye(dim))
        pair = vector_state(np.eye(dim).reshape(-1) / math.sqrt(dim))
        w_t, _ = schrodingerize_evolve(pair, big, Grid1D(10.0, 2048), beta / 2.0)
        psi = project_positive(w_t).u.amplitudes.reshape(dim, dim)
        rho = psi @ psi.conj().T
        assert np.abs(report.rho - rho / np.trace(rho).real).max() < 1e-12


def constant_sigma_model(j=16, k=16, c=1.0):
    sigma = np.full((k, k), c / k)
    return TransportModel.create([make_grid(1.0, j)], [make_grid(1.0, k)], sigma)


class TestComputeMoments:
    def layout(self, j, k):
        return (
            AxisSpec("x1", j, make_grid(1.0, j)),
            AxisSpec("k1", k, make_grid(1.0, k)),
        )

    def test_uniform_density_zero_momentum(self):
        # the periodic grid has an unpaired point at -half_width; a density
        # supported on the symmetric remainder has exactly zero momentum
        j = k = 8
        arr = np.ones((j, k))
        arr[:, 0] = 0.0  # zero out the unpaired k = -1 column
        state = StateVector(arr.reshape(-1), self.layout(j, k))
        m = compute_moments(state)
        assert m.momentum[0] == pytest.approx(0.0, abs=1e-14)
        assert m.mass == pytest.approx(j * (k - 1) * (2 / 8) * (2 / 8))

    def test_single_point_density(self):
        j = k = 8
        gx, gk = make_grid(1.0, j), make_grid(1.0, k)
        arr = np.zeros((j, k))
        arr[2, 5] = 1.0
        m = compute_moments(arr, (gx, gk))
        dx, dk = gx.spacing, gk.spacing
        assert m.mass == pytest.approx(dx * dk)
        assert m.momentum[0] == pytest.approx(gk.points[5] * dx * dk)
        assert m.energy == pytest.approx(0.5 * gk.points[5] ** 2 * dx * dk)

    def test_mass_constant_under_reference_flow(self):
        rng = np.random.default_rng(45)
        model = constant_sigma_model(j=8, k=8, c=1.3)
        w0 = rng.uniform(0.5, 1.5, (8, 8))
        m0 = compute_moments(w0, (model.x_grids, model.k_grids)).mass
        for t in (0.3, 1.0):
            w = transport_reference(model, w0, t).real
            m = compute_moments(w, (model.x_grids, model.k_grids)).mass
            assert m == pytest.approx(m0, rel=1e-8)

    def test_complex_density_rejected(self):
        state = StateVector(np.full(16, 1.0 + 1e-3j), self.layout(4, 4))
        with pytest.raises(InvalidArgumentError):
            compute_moments(state)


class TestObservableOverlap:
    def test_identical_states(self):
        v = np.array([1.0, 2.0, 3.0])
        assert observable_overlap(v, v) == pytest.approx(1.0)

    def test_orthogonal_supports(self):
        assert observable_overlap(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_half_overlap(self):
        assert observable_overlap(
            np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)
        ) == pytest.approx(0.5)

    def test_phase_and_scale_invariance(self):
        rng = np.random.default_rng(46)
        g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        base = observable_overlap(g, w)
        assert observable_overlap(3.0 * g, w) == pytest.approx(base, rel=1e-12)
        assert observable_overlap(g, np.exp(1.7j) * w) == pytest.approx(base, rel=1e-12)
        assert observable_overlap(w, g) == pytest.approx(base, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgumentError):
            observable_overlap(np.zeros(3), np.ones(3))


class TestRunTransport:
    def test_free_streaming_matches_reference(self):
        j = k = 16
        model = TransportModel.create(
            [make_grid(1.0, j)], [make_grid(1.0, k)], np.zeros((k, k))
        )
        gx = model.x_grids[0]
        xx, _ = np.meshgrid(gx.points, model.k_grids[0].points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx)
        result = run_transport(model, w0, p_config=(8.0, 64), t=0.5)
        assert result.l2_relative_error < 1e-3

    def test_scattering_instance_matches_reference(self):
        model = constant_sigma_model()
        gx, gk = model.x_grids[0], model.k_grids[0]
        xx, kk = np.meshgrid(gx.points, gk.points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        result = run_transport(model, w0, p_config=(8.0, 64), t=1.0)
        assert result.l2_relative_error < 1e-2

    def test_mass_conservation(self):
        model = constant_sigma_model()
        gx, gk = model.x_grids[0], model.k_grids[0]
        xx, kk = np.meshgrid(gx.points, gk.points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        m0 = compute_moments(w0, (model.x_grids, model.k_grids)).mass
        result = run_transport(model, w0, p_config=(8.0, 64), t=1.0)
        assert abs(result.moments.mass - m0) / m0 < 1e-3

    def test_homogeneous_data_relaxes_to_velocity_average(self):
        model = constant_sigma_model(c=2.0)
        gk = model.k_grids[0]
        w0 = np.broadcast_to(1.0 + 0.5 * np.cos(np.pi * gk.points), (16, 16)).copy()
        deviations = []
        for t in (0.0, 0.5, 1.0):
            result = run_transport(model, w0, p_config=(8.0, 64), t=t)
            w = result.w_recovered.amplitudes.real.reshape(16, 16)
            deviations.append(np.linalg.norm(w - w.mean(axis=1, keepdims=True)))
        assert deviations[0] > deviations[1] > deviations[2]

    def test_complex_initial_data_warns(self):
        model = constant_sigma_model(j=4, k=4)
        with pytest.warns(AccuracyWarning):
            run_transport(model, np.full((4, 4), 1.0 + 0.1j), p_config=(8.0, 16), t=0.1)

    def test_three_dimensional_smoke(self):
        # minimal resolution, d = 3: exercises the dimension-generic paths
        grids_x = [make_grid(1.0, 2)] * 3
        grids_k = [make_grid(1.0, 2)] * 3
        kd = 8
        sigma = np.full((kd, kd), 0.5 / kd)
        model = TransportModel.create(grids_x, grids_k, sigma)
        rng = np.random.default_rng(47)
        w0 = rng.uniform(0.5, 1.5, (2, 2, 2, 2, 2, 2))
        result = run_transport(model, w0, p_config=(8.0, 16), t=0.3)
        assert result.l2_relative_error < 0.05
        m0 = compute_moments(w0, (model.x_grids, model.k_grids)).mass
        assert result.moments.mass == pytest.approx(m0, rel=1e-3)

    def test_two_dimensional_memory_stays_block_sized(self, monkeypatch):
        # 2-D J = K = 6: the generator is 36 blocks of 36 x 36; one dense
        # (J^2 K^2)^2 matrix alone would take 26 MiB
        pairs = []

        def recording_evolve_lifted(u0, pair, *args, **kwargs):
            pairs.append(pair)
            return evolve_lifted(u0, pair, *args, **kwargs)

        evolve_lifted = apps.evolve_lifted
        monkeypatch.setattr(apps, "evolve_lifted", recording_evolve_lifted)
        kd = 36
        grid = make_grid(1.0, 6)
        model = TransportModel.create([grid] * 2, [grid] * 2, np.full((kd, kd), 1.0 / kd))
        x1, x2, k1, k2 = np.meshgrid(*[grid.points] * 4, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * x1) * np.cos(np.pi * x2) + 0.25 * np.cos(np.pi * k1)
        tracemalloc.start()
        try:
            result = run_transport(model, w0, t=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.l2_relative_error < 1e-2
        assert pairs[0].h.blocks.shape == (36, kd, kd)
        assert pairs[0].h_bar.blocks.shape == (36, kd, kd)
        assert peak < 32 * 2**20

    def test_generator_decomposed_block_by_block(self, monkeypatch):
        # one (J, K, K) stack per auxiliary mode, never the (J*K)^2 generator
        j = k = 8
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        model = constant_sigma_model(j=j, k=k)
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        result = run_transport(model, w0, t=0.5)
        assert result.l2_relative_error < 1e-2
        assert len(shapes) == 64  # the default auxiliary grid has 64 modes
        assert all(shape == (j, k, k) for shape in shapes)
        assert (j * k, j * k) not in shapes


class TestStationaryTransport:
    def test_legs_skip_the_reference_and_match_run_transport(self, monkeypatch):
        model = constant_sigma_model(j=4, k=8, c=2.0)
        gk = model.k_grids[0]
        w0 = np.broadcast_to(1.0 + 0.5 * np.cos(np.pi * gk.points), (4, 8)).copy()
        expected = StateVector(w0.astype(complex).reshape(-1), apps._transport_layout(model))
        for _ in range(9):  # the leg count the search has always taken here
            expected = run_transport(model, expected, t=1.0).w_recovered

        calls = []

        def counting_reference(*args, **kwargs):
            calls.append(args)
            return transport_reference(*args, **kwargs)

        monkeypatch.setattr(apps, "transport_reference", counting_reference)
        monkeypatch.setattr(oracle, "transport_reference", counting_reference)
        stationary, legs, converged = find_stationary_transport(
            model, w0, leg=1.0, tol=1e-6, max_legs=40
        )
        assert calls == []
        assert (legs, converged) == (9, True)
        assert np.array_equal(stationary.amplitudes, expected.amplitudes)

    def test_constant_scattering_reaches_velocity_average(self):
        model = constant_sigma_model(j=4, k=8, c=2.0)
        gk = model.k_grids[0]
        w0 = np.broadcast_to(1.0 + 0.5 * np.cos(np.pi * gk.points), (4, 8)).copy()
        stationary, legs, converged = find_stationary_transport(
            model, w0, leg=1.0, tol=1e-6, max_legs=40
        )
        assert converged
        w = stationary.amplitudes.real.reshape(4, 8)
        avg = w.mean(axis=1, keepdims=True)
        assert np.abs(w - avg).max() < 1e-5

    def test_zero_state_rejected_like_run_transport(self):
        # every leg projects onto p >= 0, where a zero state has no mass
        model = constant_sigma_model(j=4, k=4)
        with pytest.raises(DegenerateStateError):
            run_transport(model, np.zeros((4, 4)), t=0.5)
        with pytest.raises(DegenerateStateError):
            find_stationary_transport(model, np.zeros((4, 4)), leg=0.5)

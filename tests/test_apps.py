import inspect
import json
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
    ResourceLimitError,
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
    transport_exact,
)
from schrodingerize import apps, cli, core, oracle, pipeline
from schrodingerize.costs import schrodingerisation_cost
from schrodingerize.operators import HermitianMatrix, HermitianPair, hermitian_decompose
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

    def test_potential_run_holds_about_two_row_copies(self):
        # V != 0 at M = 512: 512 distinct eigenvalues, so each row array is
        # 512 x 4096 complex (32 MiB); the inverse transform shifts, phases
        # and transforms in one buffer beside its input (118 MiB before)
        grid = make_grid(1.0, 512)
        x = grid.points
        u0 = 1 + np.cos(np.pi * x)
        potential = 0.5 * (1 + np.sin(np.pi * x))
        run_heat(u0, potential, grid, p_config=(12.0, 64), t=0.1)  # caches and imports
        tracemalloc.start()
        try:
            run_heat(u0, potential, grid, p_config=(12.0, 4096), t=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72 * 2**20

    def test_potential_past_the_dense_cap_is_refused_before_assembly(self, monkeypatch):
        # the reference's dense exponential caps the dimension; with the cap
        # at 512, n = 512 runs and n = 514 stops before H is assembled
        monkeypatch.setattr(core, "EXPM_DENSE_LIMIT", 512)
        potential = lambda x: 1.0 + x * x  # noqa: E731
        grid = make_grid(1.0, 512)
        result = run_heat(1 + np.cos(np.pi * grid.points), potential, grid, (12.0, 64), t=0.1)
        assert result.l2_relative_error < 1e-2
        grid = make_grid(1.0, 514)
        u0 = 1 + np.cos(np.pi * grid.points)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="capped at dimension 512, got 514"):
                run_heat(u0, potential, grid, (12.0, 64), t=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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


def benchmark_ground_state(dim):
    """Spectrum {0} and 0.5 + linspace(0, 3.5, dim - 1) (gap 0.5, width 4)
    under a seeded real eigenbasis q, and a start state of ground overlap
    0.2: (H, u0, q, energies)."""
    rng = np.random.default_rng(7)
    energies = np.concatenate([[0.0], 0.5 + np.linspace(0.0, 3.5, dim - 1)])
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    h = (q * energies) @ q.T
    rest = q[:, 1:] @ rng.standard_normal(dim - 1)
    u0 = math.sqrt(0.2) * q[:, 0] + math.sqrt(0.8) * rest / np.linalg.norm(rest)
    return h, u0, q, energies


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

    def test_zero_state_rejected_before_normalising(self):
        # no 0/0: the RuntimeWarning of the division would be an error here
        with pytest.raises(InvalidArgumentError, match="initial state must be nonzero"):
            prepare_ground_state(np.array([[0.0, 0.4], [0.4, 1.5]]), np.zeros(2), 0.01)

    def test_degenerate_ground_level_rejected(self):
        with pytest.raises(UnsupportedProblemError):
            prepare_ground_state(np.eye(3), np.array([1.0, 0.0, 0.0]), 0.01)

    def test_benchmark_size_stays_small_and_decomposes_once(self, monkeypatch):
        # dim 32 at eps = 1e-3: the default auxiliary grid has 1,626 modes
        # (154,092 under the former rule dp <= eps), and no lifted copy of
        # the state is built either way
        dim = 32
        h, u0, _, _ = benchmark_ground_state(dim)
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
        assert report.p_grid.count == default_p_grid(1e-3, report.t_final, 4.0).count == 1626
        assert report.fidelity >= 1 - 1e-3
        assert shapes == [(dim, dim)]
        assert peak < 32 * 2**20

    def test_real_eigenbasis_acts_without_a_complex_copy(self, traced_peak):
        # a real 1024 x 1024 H and a complex u0: NumPy's complex copy of the
        # eigenvectors for V^dag u0 and V (g c) put the peak at 32.1 MiB, four
        # real copies; applied to the real and imaginary parts apart, three
        peak = traced_peak(ground_state(1024))
        assert peak < 28 * 2**20

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-8])
    def test_default_grid_at_small_epsilon_is_fast_and_exact(self, monkeypatch, epsilon):
        # the former rule asked for 2.8e8 modes at 1e-6 (the process was
        # killed) and 3.6e10 at 1e-8, where the grid rule asks for 11,968 and
        # 42,834 beside one decomposition; 1 - fidelity sits at rounding
        # there, so the infidelity is read as the excited weight of the
        # recovered state
        h, u0, q, energies = benchmark_ground_state(32)
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        report = prepare_ground_state(h, u0, epsilon)
        assert report.p_grid.count <= {1e-6: 12_000, 1e-8: 43_000}[epsilon]
        assert shapes == [(32, 32)]
        excited = float((np.abs(q.T @ report.u_recovered.amplitudes)[1:] ** 2).sum())
        relaxed = (q.T @ u0) * np.exp(-report.t_final * energies)
        exact = float((relaxed[1:] ** 2).sum() / (relaxed**2).sum())
        # the wrap error the half-width allows adds about 8% here
        assert exact <= excited <= 1.2 * exact
        assert excited <= report.predicted_error <= epsilon

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=0.0, max_value=18.0),
        st.floats(min_value=0.1, max_value=0.9),
        st.sampled_from([1e-3, 1e-4, 1e-6, 1e-8]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_default_grid_meets_its_predicted_error(self, dim, gap, spread, overlap, epsilon, seed):
        # random spectra {0, gap, ..} in [0, gap + spread] under a random complex
        # eigenbasis, ground overlap |<v0, u0>|^2 = overlap: the infidelity,
        # read as the excited weight of the recovered state, stays within
        # the rule's prediction, which stays within eps; 1 - fidelity too,
        # up to its rounding
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q = np.linalg.qr(g)[0]
        energies = np.concatenate([[0.0, gap], np.sort(rng.uniform(gap, gap + spread, dim - 2))])
        h = (q * energies) @ q.conj().T
        rest = q[:, 1:] @ (rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1))
        u0 = math.sqrt(overlap) * q[:, 0] + math.sqrt(1 - overlap) * rest / np.linalg.norm(rest)
        report = prepare_ground_state(h, u0, epsilon)
        excited = float((np.abs(q.conj().T @ report.u_recovered.amplitudes)[1:] ** 2).sum())
        assert excited <= report.predicted_error <= epsilon
        assert 1.0 - report.fidelity <= report.predicted_error + 8 * np.finfo(float).eps


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


class TestPreflightEstimate:
    @pytest.mark.parametrize(
        "prepare",
        [
            lambda h, count: prepare_ground_state(h, np.ones(4), 1e-3, p_grid=(None, count)),
            lambda h, count: prepare_gibbs(h, 2.0, p_grid=(None, count)),
        ],
        ids=["ground_state", "gibbs"],
    )
    def test_mode_bytes_bound_the_peak(self, prepare):
        # the pre-flight check charges _MODE_BYTES per auxiliary mode to the
        # O(N) arrays of these runs; their measured peak must stay under it
        # (96 B per mode for the ground state, 108 for Gibbs)
        count = 1 << 18
        h = np.diag([0.0, 0.5, 1.0, 2.0])
        prepare(h, 64)  # caches and imports
        tracemalloc.start()
        try:
            prepare(h, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pipeline._MODE_BYTES * count + 2**20


def heat_with_potential(m, count):
    grid = make_grid(1.0, m)
    x = grid.points
    potential = 0.5 * (1 + np.sin(np.pi * x))
    return lambda: run_heat(1 + np.cos(np.pi * x), potential, grid, (12.0, count), t=0.1)


def heat_without_potential(m, count, collapsed=False):
    # a seeded random u0 weighs every eigenvalue of the Laplacian, m/2 + 1
    # rows, over a t at which its highest mode stays inside L; 1 + cos(pi x)
    # weighs two, and the run builds no row for the rest
    grid = make_grid(1.0, m)
    if collapsed:
        return lambda: run_heat(1 + np.cos(np.pi * grid.points), None, grid, (12.0, count), t=0.1)
    u0 = np.random.default_rng(m).standard_normal(m)
    return lambda: run_heat(u0, None, grid, (12.0, count), t=1e-5)


def symmetric(n, complex_entries=False, seed=5):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    h = g + g.T
    if complex_entries:
        b = rng.standard_normal((n, n))
        h = h + 1j * (b - b.T)
    return h


def ground_state(n, count=None, complex_entries=False):
    h = symmetric(n, complex_entries)
    return lambda: prepare_ground_state(h, np.ones(n), 1e-3, p_grid=(None, count))


def gibbs_state(n, count=None, complex_entries=False):
    h = symmetric(n, complex_entries)
    return lambda: prepare_gibbs(h, 1.0, p_grid=(None, count))


def transport_run(j, k, count):
    model = constant_sigma_model(j=j, k=k)
    xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
    w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
    return lambda: run_transport(model, w0, p_config=(None, count), t=0.5)


def stationary_search(j, k):
    model = constant_sigma_model(j=j, k=k)
    return lambda: find_stationary_transport(model, np.ones((j, k)), tol=1e-300, max_legs=1)


class TestOneBudget:
    """Each phase of the apps refused alone, and each entry point's largest
    listed phase against its tracemalloc peak."""

    @pytest.mark.parametrize(
        "patch, entry, phase",
        [
            # each cap set between the named phase and every other phase
            ({"ARRAY_BYTES_LIMIT": 4 * 64 * 64 * 16 - 1}, (heat_with_potential, 64, 64),
             "the dense Hamiltonian of dimension 64 and its reference needs"),
            ({"ARRAY_BYTES_LIMIT": int(4.5 * 64 * 64 * 8) - 1}, (ground_state, 64),
             "the eigendecomposition of dimension 64 needs"),
            ({"EXPM_DENSE_LIMIT": 7}, (ground_state, 8),
             "the eigendecomposition of dimension 8 takes"),
            ({"ARRAY_BYTES_LIMIT": 300_000}, (gibbs_state, 64),
             "the density matrices of dimension 64 needs"),
            ({}, (ground_state, 4, 2**30),
             "the 1073741824 auxiliary modes of decay_factors needs"),
            ({}, (gibbs_state, 4, 2**30),
             "the 1073741824 auxiliary modes of decay_factors needs"),
            ({}, (heat_without_potential, 64, 2**30),
             "a lifted run of 1073741824 auxiliary modes over 33 rows needs"),
            ({}, (heat_without_potential, 64, 2**30, True),
             "a lifted run of 1073741824 auxiliary modes over 2 rows needs"),
            ({"ARRAY_BYTES_LIMIT": 1_000_000}, (transport_run, 2, 64, 64),
             "the transport_exact reference of 2 spatial frequencies and 64 velocities needs"),
            ({}, (transport_run, 64, 1024, 64),
             "the pair build of 64 spatial frequencies and 1024 velocities needs"),
            ({}, (transport_run, 2**19, 2, 64),
             "a lifted run of 64 auxiliary modes over 1048576 rows needs"),
        ],
        ids=[
            "heat-dense", "spectrum-bytes", "spectrum-work", "density", "decay-ground",
            "decay-gibbs", "heat-rows", "heat-rows-collapsed", "reference", "pair-build",
            "transport-lifted",
        ],
    )
    def test_each_phase_refused_alone_before_it_allocates(
        self, monkeypatch, traced_peak, patch, entry, phase
    ):
        monkeypatch.setattr(TransportModel, "hermitian_pair", refuse_to_build)
        for name, value in patch.items():
            monkeypatch.setattr(core, name, value)
        call = entry[0](*entry[1:])

        def refused():
            with pytest.raises(ResourceLimitError, match=f"^{phase}"):
                call()

        assert traced_peak(refused, warm=False) < 2**20

    @pytest.mark.parametrize(
        "entry",
        [
            (heat_with_potential, 768, 64),
            (heat_with_potential, 512, 4096),
            (heat_without_potential, 256, 4096),
            (ground_state, 768),
            (gibbs_state, 512, None, True),
            (transport_run, 2, 256, 16),
            (transport_run, 128, 8, 512),
            (stationary_search, 4096, 2),
        ],
        ids=[
            "heat-dense", "heat-rows", "heat-fourier", "ground_state", "gibbs",
            "transport-reference", "transport-lifted", "stationary",
        ],
    )
    def test_predicted_phase_bounds_the_peak(self, preflight_phases, traced_peak, entry):
        # every config peaks above 8 MiB, so the largest listed phase must
        # hold the measured peak and stay within twice it
        peak = traced_peak(entry[0](*entry[1:]))
        predicted = max(nbytes for _, nbytes, _ in preflight_phases)
        assert 8 * 2**20 < peak <= predicted < 2 * peak


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


def refuse_to_build(*args, **kwargs):
    raise AssertionError("built the transport pair before the byte check")


def constant_sigma_model(j=16, k=16, c=1.0):
    sigma = np.full((k, k), c / k)
    return TransportModel.create([make_grid(1.0, j)], [make_grid(1.0, k)], sigma)


class TestComputeMoments:
    def grids(self, j, k):
        return make_grid(1.0, j), make_grid(1.0, k)

    def test_uniform_density_zero_momentum(self):
        # the periodic grid has an unpaired point at -half_width; a density
        # supported on the symmetric remainder has exactly zero momentum
        j = k = 8
        arr = np.ones((j, k))
        arr[:, 0] = 0.0  # zero out the unpaired k = -1 column
        m = compute_moments(arr.reshape(-1), self.grids(j, k))
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
            w = transport_exact(model, w0, t).real
            m = compute_moments(w, (model.x_grids, model.k_grids)).mass
            assert m == pytest.approx(m0, rel=1e-8)

    def test_complex_density_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compute_moments(np.full(16, 1.0 + 1e-3j), self.grids(4, 4))


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
            return lifted(u0, pair, *args, **kwargs)

        lifted = apps.evolve_lifted
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

    def test_two_dimensional_peak_memory_with_the_exact_reference(self):
        # 2-D J = K = 8: 64 frequencies of 64 x 64 generators; the reference's
        # exponentials, taken all at once, would double the run's 20 MiB peak
        kd = 64
        grid = make_grid(1.0, 8)
        model = TransportModel.create([grid] * 2, [grid] * 2, np.full((kd, kd), 1.0 / kd))
        x1, x2, k1, _ = np.meshgrid(*[grid.points] * 4, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * x1) * np.cos(np.pi * x2) + 0.25 * np.cos(np.pi * k1)
        tracemalloc.start()
        try:
            result = run_transport(model, w0, t=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.l2_relative_error < 1e-3
        assert peak < 22 * 2**20

    def test_generator_decomposed_block_by_block(self, monkeypatch):
        # every decomposition is of one (J, K, K) stack or less, never of the
        # (J*K)^2 generator
        j = k = 8
        shapes = []
        for name in ("eigh", "eigvalsh"):
            def recording(a, *args, _call=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(a))
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        model = constant_sigma_model(j=j, k=k)
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        result = run_transport(model, w0, t=0.5)
        assert result.l2_relative_error < 1e-2
        assert shapes
        for shape in shapes:
            assert len(shape) <= 3 and all(n <= m for n, m in zip(shape[::-1], (k, k, j)))
        assert (j * k, j * k) not in shapes

    @pytest.mark.parametrize("d, j, k", [(1, 16, 16), (2, 4, 4)])
    def test_one_eigvalsh_of_the_collision_matrix_bounds_the_pair(self, monkeypatch, d, j, k):
        # the rates of the K^d x K^d collision matrix size the grid and are
        # the bounds of H; Hbar's are the range of xi . k.  Both equal what
        # eigvalsh of the stacks gives, so the path and r do not move
        kd = k**d
        sigma = np.random.default_rng(61).uniform(0.0, 1.0 / kd, (kd, kd))
        sigma += sigma.T
        model = TransportModel.create([make_grid(1.0, j)] * d, [make_grid(1.0, k)] * d, sigma)
        w0 = np.ones((j,) * d + (k,) * d)
        shapes, eigvalsh = [], np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        assert run_transport(model, w0, t=0.5).l2_relative_error < 1e-3
        pair = model.hermitian_pair()
        assert shapes == [(kd, kd)]
        for matrix in (pair.h, pair.h_bar):
            lam = eigvalsh(matrix.blocks)
            assert matrix._bounds == (float(lam.min()), float(lam.max()))

    def test_one_call_builds_the_bessel_series_once(self):
        # the benchmark's transport run: the pre-flight, evolve_lifted and
        # evolve_blocks price one path, and the recurrence's one chunk reads
        # the series that pricing built
        model = constant_sigma_model()
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        pipeline._propagator.cache_clear()
        pipeline._bessel_series.cache_clear()
        assert run_transport(model, w0, t=1.0).l2_relative_error < 1e-2
        assert pipeline._propagator.cache_info().misses == 1
        assert pipeline._bessel_series.cache_info().misses == 1

    def test_long_run_decomposes_each_mode(self, monkeypatch):
        # J = 4, K = 8 at t = 4: the recurrence's degree grows with t and the
        # estimate returns to per-mode eigh, one (J, K, K) stack per mode,
        # still through evolve_lifted and evolve_blocks
        model = constant_sigma_model(j=4, k=8)
        pair, t = model.hermitian_pair(), 4.0
        p_grid = apps._transport_p_grid(model, None, t)[0]
        bounds = pipeline._intervals(pair)
        propagator = pipeline._propagator(pair.h.blocks.shape, bounds, p_grid, t)
        assert propagator == ("modes", 64 * 4 * 8**3, 4 * 16 * 4 * 8**2)
        shapes, evolved = [], []
        eigh, evolve_blocks = np.linalg.eigh, pipeline.evolve_blocks

        def recording_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def recording_evolve_blocks(s0, pair, d_matrix, t):
            evolved.append(d_matrix.count)
            return evolve_blocks(s0, pair, d_matrix, t)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(pipeline, "evolve_blocks", recording_evolve_blocks)
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        result = run_transport(model, 1.0 + 0.5 * np.cos(np.pi * xx) * np.cos(np.pi * kk), t=t)
        assert result.l2_relative_error < 1e-2
        assert evolved == [64]
        assert shapes == [(4, 8, 8)] * 64

    def test_lifted_run_booked_as_the_path_it_takes(self, monkeypatch):
        # J = 4, K = 64 at t = 1 takes the recurrence; booked as per-mode
        # decompositions, its work was that of one matrix of dimension 406,
        # past a work cap at dimension 300 that the recurrence's work fits
        monkeypatch.setattr(core, "EXPM_DENSE_LIMIT", 300)
        model = constant_sigma_model(j=4, k=64)
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        assert run_transport(model, w0, t=1.0).l2_relative_error < 1e-3

    def test_reference_runs_without_the_lifted_state(self, monkeypatch, traced_peak):
        # J = 64, K = 16 on 64 modes: one chunk of the reference is a complex
        # (64, 16, 16) stack, a quarter of the 1 MiB lifted state.  Inside
        # the run the reference peaks as it does alone; holding the lifted
        # state through it added four stacks (15.2 against 11.1)
        model = constant_sigma_model(j=64, k=16)
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        alone = traced_peak(lambda: transport_exact(model, w0, 0.5))
        in_run = []

        def traced_reference(*args):
            tracemalloc.reset_peak()
            try:
                return transport_exact(*args)
            finally:
                in_run.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(apps, "transport_exact", traced_reference)
        traced_peak(lambda: run_transport(model, w0, p_config=(None, 64), t=0.5))
        assert in_run[-1] < alone + 64 * 16 * 16 * 16

    @pytest.mark.parametrize(
        "t, error, messages",
        [
            (6.0, 0.363, ["truncation tolerance", "convect past the p boundary"]),
            (3.0, 0.0239, ["truncation tolerance"]),
        ],
        ids=["convection", "truncation"],
    )
    def test_grid_given_too_short_warns(self, t, error, messages):
        # L = 5 on an 8 x 8 model with lambda_max = 1: at t = 6 the profile
        # convects past the p boundary (relative error 0.36); at t = 3 it
        # stays inside, but exp(-5) = 6.7e-3 passes the run's eps = 1e-3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = transport_grid_run((5.0, 64), t)
        texts = [str(w.message) for w in caught]
        grid_warnings = [text for text in texts if TRUNCATION in text or CONVECTION in text]
        assert len(grid_warnings) == len(messages)
        for text, message in zip(grid_warnings, messages):
            assert message in text
        assert result.l2_relative_error == pytest.approx(error, rel=0.01)

    def test_oversize_model_refused_before_the_pair_is_built(self, monkeypatch):
        # J = 64, K = 1024: each complex (J, K, K) stack is 1 GiB, and
        # building the pair peaks at over four of them
        monkeypatch.setattr(TransportModel, "hermitian_pair", refuse_to_build)
        model = constant_sigma_model(j=64, k=1024)
        w0 = np.ones((64, 1024))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="64 spatial frequencies and 1024"):
                run_transport(model, w0, t=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStationaryTransport:
    def test_legs_skip_the_reference_and_match_run_transport(self, monkeypatch):
        model = constant_sigma_model(j=4, k=8, c=2.0)
        gk = model.k_grids[0]
        w0 = np.broadcast_to(1.0 + 0.5 * np.cos(np.pi * gk.points), (4, 8)).copy()
        expected = StateVector(w0.astype(complex).reshape(-1), apps._transport_layout(model))
        for _ in range(9):  # the leg count the search has always taken here
            expected = run_transport(model, expected, t=1.0).w_recovered

        calls = []

        def counting(reference):
            def wrapper(*args, **kwargs):
                calls.append(reference.__name__)
                return reference(*args, **kwargs)

            return wrapper

        for module in (apps, oracle):
            monkeypatch.setattr(module, "transport_exact", counting(oracle.transport_exact))
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

    def test_one_decomposition_per_mode_over_the_whole_search(self, monkeypatch):
        # J = K = 16 on 64 auxiliary modes: every leg takes the Chebyshev
        # recurrence, its bounds decomposed once for the whole search
        model = constant_sigma_model()
        xx, kk = np.meshgrid(model.x_grids[0].points, model.k_grids[0].points, indexing="ij")
        w0 = 1.0 + 0.5 * np.cos(np.pi * xx) + 0.25 * np.cos(np.pi * kk)
        shapes = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(("eigh", np.shape(a)))
            return eigh(a, *args, **kwargs)

        def recording_eigvalsh(a, *args, **kwargs):
            shapes.append(("eigvalsh", np.shape(a)))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        stationary, legs, converged = find_stationary_transport(model, w0, leg=0.5, tol=1e-3)
        assert converged and legs > 1
        # the scattering rates, which also bound the held pair's H, once for
        # every leg; no leg decomposes a mode
        assert shapes == [("eigvalsh", (16, 16))]
        monkeypatch.undo()

        expected = StateVector(w0.astype(complex).reshape(-1), apps._transport_layout(model))
        for _ in range(legs):
            expected = run_transport(model, expected, t=0.5).w_recovered
        assert np.array_equal(stationary.amplitudes, expected.amplitudes)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"leg": 0.0},
            {"leg": -0.5},
            {"leg": math.nan},
            {"leg": math.inf},
            {"leg": "0.5"},
            {"tol": 0.0},
            {"tol": -1e-8},
            {"tol": math.nan},
            {"tol": math.inf},
            {"max_legs": 0},
            {"max_legs": -3},
            {"max_legs": 2.5},
            {"max_legs": True},
        ],
    )
    def test_bad_leg_tol_or_max_legs_rejected_before_any_evolution(self, monkeypatch, kwargs):
        def refuse(*args, **kwargs):
            raise AssertionError("decomposed a mode before the arguments were checked")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        model = constant_sigma_model(j=4, k=4)
        with pytest.raises(InvalidArgumentError):
            find_stationary_transport(model, np.ones((4, 4)), **kwargs)

    def test_oversize_pair_refused_before_the_search_builds_it(self, monkeypatch):
        # J = 64, K = 1024: each complex (J, K, K) stack is 1 GiB, and
        # building the pair peaks at over four of them
        monkeypatch.setattr(TransportModel, "hermitian_pair", refuse_to_build)
        model = constant_sigma_model(j=64, k=1024)
        w0 = np.ones((64, 1024))
        build = "^the pair build of 64 spatial frequencies and 1024 velocities needs about"
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=build):
                find_stationary_transport(model, w0, leg=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_reference_sized_model_refused_by_the_work_cap(self, monkeypatch, preflight_phases):
        # J = 2, K = 3400: every phase fits the byte cap (the largest, one
        # frequency of the reference's Pade, about 1.95 GiB), but the
        # reference would take two 3400 x 3400 Pade exponentials, the work of
        # one decomposition of dimension 4284, refused from the counts before
        # the rates are decomposed.  The scattering matrix is a broadcast
        # view, so the test allocates nothing of size K^2
        monkeypatch.setattr(TransportModel, "hermitian_pair", refuse_to_build)
        k = 3400
        model = TransportModel(
            x_grids=(make_grid(1.0, 2),),
            k_grids=(make_grid(1.0, k),),
            sigma=np.broadcast_to(1.0 / k, (k, k)),
            sigma_total=np.ones(k),
            dimension=1,
        )
        w0 = np.ones((2, k))
        work = "^the transport_exact reference of 2 spatial .* takes .* got 4284$"
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=work):
                run_transport(model, w0, t=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        largest = max(preflight_phases, key=lambda phase: phase[1])
        assert largest[0].startswith("the transport_exact reference")
        assert 1.9 * 2**30 < largest[1] <= core.ARRAY_BYTES_LIMIT

    @pytest.mark.parametrize(
        "entry",
        [
            lambda model, w0: run_transport(model, w0, t=40.0),
            lambda model, w0: find_stationary_transport(model, w0, leg=40.0),
        ],
        ids=["run_transport", "find_stationary_transport"],
    )
    def test_long_lifted_run_refused_before_the_pair_is_built(self, monkeypatch, entry):
        # J = 16, K = 1024 at t = 40: the pair build and the reference fit
        # both caps, but the cheaper path of the lifted run takes the work of
        # one decomposition of dimension 6596.  Priced from the rates and the
        # advection range, it is refused before the pair is built; refused
        # only by evolve_lifted, it was refused after (4.2 s, 568 MiB)
        monkeypatch.setattr(TransportModel, "hermitian_pair", refuse_to_build)
        model = constant_sigma_model(j=16, k=1024)
        w0 = np.ones((16, 1024))
        work = "^a lifted run of 64 auxiliary modes over 16384 rows takes .* got 6596$"
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=work):
                entry(model, w0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_legs_free_each_lifted_state(self, traced_peak):
        # J = 4096, K = 2 on 64 modes (8 MiB per lifted copy): three legs
        # peak where one does; holding each leg's lifted state through the
        # next added a whole copy (4.87 against 3.85 copies at J = 8192)
        model = constant_sigma_model(j=4096, k=2)
        w0 = np.ones((4096, 2))
        one, three = (
            traced_peak(
                lambda: find_stationary_transport(model, w0, tol=1e-300, max_legs=legs), warm=warm
            )
            for legs, warm in ((1, True), (3, False))
        )
        assert three < one + 0.25 * 4096 * 2 * 64 * 16

    @pytest.mark.parametrize(
        "entry",
        [
            lambda model, w0: run_transport(model, w0, t=0.5),
            lambda model, w0: find_stationary_transport(model, w0, leg=0.5),
        ],
        ids=["run_transport", "find_stationary_transport"],
    )
    def test_lifted_copies_count_toward_the_byte_cap(self, monkeypatch, entry):
        # J = 2**19, K = 2: the pair and the search's held spectra fit (about
        # 1.6 GiB), but the lifted copies of a run on 64 modes need 3 GiB more
        monkeypatch.setattr(TransportModel, "hermitian_pair", refuse_to_build)
        model = constant_sigma_model(j=2**19, k=2)
        w0 = np.ones((2**19, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="MiB cap"):
                entry(model, w0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def general_run(p_grid, t):
    a = np.array([[1.0, 0.3], [-0.3, 0.5]])  # lambda(H) = {0.5, 1}
    return schrodingerize_evolve(vector_state([1.0, 0.5]), a, p_grid, t)


def heat_run(p_grid, t):
    grid = make_grid(1.0, 16)  # u0 on the eigenvalues 0 and pi^2
    return run_heat(1.0 + np.cos(np.pi * grid.points), None, grid, p_config=p_grid, t=t)


def ground_state_run(p_grid, _):
    # eps = 1e-3, gap 1, width 3: t_final = ln(3000), reach 24
    return prepare_ground_state(np.diag([0.0, 1.0, 3.0]), np.ones(3), 1e-3, p_grid=p_grid)


def gibbs_run(p_grid, beta):
    return prepare_gibbs(np.diag([0.0, 1.0]), beta, p_grid=p_grid)  # reach beta/2


def transport_model_and_state(cross=None):
    """The 8 x 8 model with sigma = 1/8 (lambda_max = 1), or with
    sigma[0, 1] = sigma[1, 0] = ``cross``, and a positive w0."""
    grid = make_grid(1.0, 8)
    sigma = np.full((8, 8), 1.0 / 8)
    if cross is not None:
        sigma[0, 1] = sigma[1, 0] = cross
    xx, kk = np.meshgrid(grid.points, grid.points, indexing="ij")
    w0 = 1.0 + 0.3 * np.cos(np.pi * xx) + 0.2 * np.cos(np.pi * kk)
    return TransportModel.create([grid], [grid], sigma), w0


def transport_grid_run(p_grid, t):
    model, w0 = transport_model_and_state()
    return run_transport(model, w0, p_config=p_grid, t=t)


def general_growth_run(p_grid, t):
    a = np.array([[-0.5, 0.3], [-0.3, 1.0]])  # lambda(H) = {-0.5, 1}
    return schrodingerize_evolve(vector_state([1.0, 0.5]), a, p_grid, t)


def heat_growth_run(p_grid, t):
    grid = make_grid(1.0, 32)  # V = -2 shifts the eigenvalues 0, pi^2 down by 2
    u0 = 1.0 + np.cos(np.pi * grid.points)
    return run_heat(u0, np.full(32, -2.0), grid, p_config=p_grid, t=t)


def transport_growth_run(p_grid, t):
    # the smallest rate of the collision matrix is -0.25
    model, w0 = transport_model_and_state(cross=-0.5)
    return run_transport(model, w0, p_config=p_grid, t=t)


def stationary_growth_run(_, leg):
    model, w0 = transport_model_and_state(cross=-0.5)
    return find_stationary_transport(model, w0, leg=leg, max_legs=1)


def negative_gibbs_run(p_grid, beta):
    # negative energies make Z exceed D: the amplification ratio is below 1
    return prepare_gibbs(np.diag([-2.0, -1.0, 0.5]), beta, p_grid=p_grid)


TRUNCATION, CONVECTION, GROWTH = "truncation tolerance", "convect past the p boundary", "grow"


GRID_CASES = [
    # exp(-5) = 6.7e-3 >= max(1e-4, eps) = 1e-3 with the reach inside L;
    # L = 8 clears the tolerance (exp(-8) = 3.4e-4) with the reach past it
    pytest.param(general_run, (5.0, 64), 1.0, (1, 0, 0), id="general-truncation"),
    pytest.param(general_run, (8.0, 64), 10.0, (0, 1, 0), id="general-convection"),
    pytest.param(heat_run, (5.0, 64), 0.1, (1, 0, 0), id="heat-truncation"),
    pytest.param(heat_run, (8.0, 64), 1.0, (0, 1, 0), id="heat-convection"),
    # a relaxation's reach is at least ln(1/eps): a grid short enough
    # to truncate is also short enough to convect past
    pytest.param(ground_state_run, (6.0, 256), None, (1, 1, 0), id="ground_state-truncation"),
    pytest.param(ground_state_run, (12.0, 256), None, (0, 1, 0), id="ground_state-convection"),
    pytest.param(gibbs_run, (5.0, 256), 1.0, (1, 0, 0), id="gibbs-truncation"),
    pytest.param(gibbs_run, (8.0, 256), 20.0, (0, 1, 0), id="gibbs-convection"),
    pytest.param(transport_grid_run, (5.0, 64), 3.0, (1, 0, 0), id="transport-truncation"),
    pytest.param(transport_grid_run, (8.0, 64), 10.0, (0, 1, 0), id="transport-convection"),
    # H not positive semi-definite: the recovery from p >= 0 fails (heat
    # misses its reference by 3.2e-2), and only the check says so
    pytest.param(general_growth_run, (12.0, 64), 0.5, (0, 0, 1), id="general-growth"),
    pytest.param(heat_growth_run, (12.0, 256), 0.1, (0, 0, 1), id="heat-growth"),
    pytest.param(transport_growth_run, None, 1.0, (0, 0, 1), id="transport-growth"),
    pytest.param(stationary_growth_run, None, 0.5, (0, 0, 1), id="stationary-growth"),
    # a dissipative profile wrapped past L (relative error 0.36) recovers
    # |u(t)| > |u0|: a fault of the grid, not growth
    pytest.param(transport_grid_run, (5.0, 64), 6.0, (1, 1, 0), id="transport-wrap"),
    # the shifted spectra start at 0, and Z > D is routine for Gibbs
    pytest.param(negative_gibbs_run, None, 1.0, (0, 0, 0), id="gibbs-negative-energies"),
    pytest.param(ground_state_run, None, None, (0, 0, 0), id="ground_state-default"),
]


class TestGridCheck:
    """One check per run: each of the six runs calls ``pipeline._check_p_grid``
    once, and each of its warnings (truncation, convection, growth) comes
    once, at the line that called the run."""

    @pytest.mark.parametrize("run, p_grid, time, expected", GRID_CASES)
    def test_each_condition_warns_once(self, monkeypatch, run, p_grid, time, expected):
        checks = []
        check = pipeline._check_p_grid

        def counting(*args):
            checks.append(args)
            check(*args)

        for module in (apps, pipeline):
            monkeypatch.setattr(module, "_check_p_grid", counting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(p_grid, time)
        accuracy = [w for w in caught if issubclass(w.category, AccuracyWarning)]
        texts = [str(w.message) for w in accuracy]
        counts = tuple(sum(m in text for text in texts) for m in (TRUNCATION, CONVECTION, GROWTH))
        assert counts == expected, texts
        assert len(checks) == 1

    @pytest.mark.parametrize(
        "run, p_grid, time, expected", [case for case in GRID_CASES if any(case.values[3])]
    )
    def test_warnings_name_the_line_that_called_the_run(self, run, p_grid, time, expected):
        # one rule for the depth: heat's check sits a frame deeper than the
        # others', and find_stationary_transport's in another module
        lines, first = inspect.getsourcelines(run)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(p_grid, time)
        accuracy = [w for w in caught if issubclass(w.category, AccuracyWarning)]
        assert len(accuracy) == sum(expected)
        for w in accuracy:
            assert w.filename == __file__
            assert first < w.lineno < first + len(lines), (w.lineno, str(w.message))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: schrodingerisation_cost(0.5, 2, 1, 1.0, 0.01, 4),
            lambda: hermitian_decompose(np.diag([1.0, -1.0])),
        ],
        ids=["schrodingerisation_cost", "hermitian_decompose"],
    )
    def test_direct_calls_still_warn_of_growth(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [GROWTH in str(w.message) for w in caught] == [True]
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("name", ["heat-lift", "general-dense", "transport", "ground-state"])
    def test_workload_grids_warn_nothing(self, workloads, tmp_path, name):
        cfg = workloads.make_config(name, 1)
        cfg["output"] = {"directory": str(tmp_path / name)}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(path) == 0
        assert [str(w.message) for w in caught if issubclass(w.category, AccuracyWarning)] == []

    def test_default_gibbs_grid_warns_nothing(self):
        # L = max(10, beta/2 * width + 4) = 16: exp(-16) = 1.1e-7, and the reach 12
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prepare_gibbs(np.diag([0.0, 1.0, 12.0]), 2.0)
        assert [str(w.message) for w in caught if issubclass(w.category, AccuracyWarning)] == []


def refuse_before_the_time_check(*args, **kwargs):
    raise AssertionError("built or pre-flighted before the time was checked")


class TestEvolutionTime:
    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize(
        "run",
        [general_run, heat_run, heat_growth_run, transport_grid_run],
        ids=["general", "heat", "heat-potential", "transport"],
    )
    def test_bad_time_refused_before_any_build(self, monkeypatch, run, t):
        # one message for every run, before the split, the assembly of H,
        # the transport pair or any pre-flight
        for owner, name in (
            (pipeline, "hermitian_decompose"),
            (apps, "assemble_schrodinger_hamiltonian"),
            (TransportModel, "hermitian_pair"),
            (apps, "_preflight"),
            (pipeline, "_preflight"),
        ):
            monkeypatch.setattr(owner, name, refuse_before_the_time_check)
        with pytest.raises(InvalidArgumentError, match="^evolution time must be finite and nonnegative"):
            run(None, t)

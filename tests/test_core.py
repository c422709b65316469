import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schrodingerize
from schrodingerize import (
    AxisSpec,
    Grid1D,
    InvalidArgumentError,
    ResourceLimitError,
    StateVector,
    assemble_eta_diagonal,
    fourier_modes,
    make_grid,
)
from schrodingerize import core


class TestMakeGrid:
    def test_basic_points(self):
        g = make_grid(1.0, 4)
        assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5])
        assert g.spacing == 0.5

    def test_smallest_grid(self):
        g = make_grid(1.0, 2)
        assert np.allclose(g.points, [-1.0, 0.0])

    def test_odd_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(1.0, 3)

    @pytest.mark.parametrize("count", [0, -2, 1])
    def test_bad_counts(self, count):
        with pytest.raises(InvalidArgumentError):
            make_grid(1.0, count)

    @pytest.mark.parametrize("half_width", [0.0, -1.0])
    def test_bad_half_width(self, half_width):
        with pytest.raises(InvalidArgumentError):
            make_grid(half_width, 4)

    def test_spacing_times_count(self):
        for hw, n in [(1.0, 4), (12.0, 256), (0.3, 10)]:
            g = make_grid(hw, n)
            assert g.spacing * g.count == pytest.approx(2 * hw, rel=1e-15)

    def test_points_increasing_exclude_right_end(self):
        g = make_grid(2.5, 10)
        assert np.all(np.diff(g.points) > 0)
        assert g.points[-1] < g.half_width


class TestFourierModes:
    def test_unit_half_width(self):
        modes = fourier_modes(make_grid(1.0, 4))
        assert np.allclose(sorted(modes), [-2 * np.pi, -np.pi, 0.0, np.pi])

    def test_half_width_scaling(self):
        modes = fourier_modes(make_grid(2.0, 4))
        assert np.allclose(sorted(modes), [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_two_points(self):
        modes = fourier_modes(make_grid(1.0, 2))
        assert np.allclose(sorted(modes), [-np.pi, 0.0])

    def test_dft_natural_order(self):
        g = make_grid(1.0, 8)
        expected = np.pi * np.array([0, 1, 2, 3, -4, -3, -2, -1], dtype=float)
        assert np.allclose(fourier_modes(g), expected)

    def test_contains_zero_and_unpaired_mode(self):
        g = make_grid(3.0, 16)
        modes = fourier_modes(g)
        assert 0.0 in modes
        assert np.isclose(modes.min(), -np.pi * 8 / 3.0)
        # every positive mode has a negative partner; the most negative does not
        positives = [m for m in modes if m > 0]
        for m in positives:
            assert np.isclose(modes, -m).any()

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(1, 4096).map(lambda half: 2 * half),
        half_width=st.floats(0.5, 200.0),
    )
    @example(count=2, half_width=0.5)
    @example(count=8192, half_width=200.0)
    @example(count=12, half_width=1.5)
    def test_eta_diagonal_is_the_swapped_halves(self, count, half_width):
        # the ascending diagonal is the fftshift of the DFT-ordered modes:
        # the two halves of 2*pi*fftfreq swapped, element for element
        grid = Grid1D(half_width, count)
        dft = 2.0 * np.pi * np.fft.fftfreq(count, d=grid.spacing)
        swapped = np.concatenate([dft[count // 2:], dft[: count // 2]])
        assert np.array_equal(assemble_eta_diagonal(grid).diagonal, swapped)
        modes = fourier_modes(grid)
        assert np.array_equal(modes, dft)
        assert not modes.flags.writeable
        with pytest.raises(ValueError):
            modes[0] = 1.0


class TestStateVector:
    def test_norm_matches_sum_of_squares(self):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        sv = StateVector(amps, (AxisSpec("x1", 4), AxisSpec("p", 6, make_grid(1.0, 6))))
        assert sv.norm**2 == pytest.approx(np.sum(np.abs(amps) ** 2), rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            StateVector(np.zeros(5), (AxisSpec("x1", 4),))

    def test_amplitudes_readonly(self):
        sv = StateVector(np.zeros(4), (AxisSpec("x1", 4),))
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 1.0

    def test_adopted_array_is_shared_read_only_and_checked(self):
        # the pipeline hands its fresh lifted arrays over instead of copying
        arr = np.zeros((2, 4), dtype=complex)
        sv = StateVector._adopt(arr, (AxisSpec("x1", 2), AxisSpec("x2", 4)))
        assert np.shares_memory(sv.amplitudes, arr)
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 1.0
        with pytest.raises(InvalidArgumentError):
            StateVector._adopt(np.zeros(5, dtype=complex), (AxisSpec("x1", 4),))

    def test_axis_grid_count_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            AxisSpec("p", 8, make_grid(1.0, 4))

    def test_unitary_dft_preserves_norm(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.linalg.norm(np.fft.fft(v, norm="ortho")) == pytest.approx(
            np.linalg.norm(v), rel=1e-12
        )


class TestPackageRoot:
    def test_root_reexports_exactly_the_modules_public_names(self):
        from schrodingerize import apps, core, costs, operators, oracle, pipeline

        modules = (core, operators, pipeline, oracle, costs, apps)
        listed = set().union(*(module.__all__ for module in modules))
        public = {
            name
            for name, value in vars(schrodingerize).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert public == listed


class TestPreflight:
    def test_bytes_of_phases_are_never_summed(self):
        # two phases of 1.5 GiB each: their sum passes the 2 GiB cap, but
        # they never coexist, so the run is accepted
        half = 3 << 29
        core._preflight(("the first phase", half, 0), ("the second phase", half, 0))

    def test_largest_phase_over_the_byte_cap_is_named(self):
        message = "^the big phase needs about 4096 MiB of arrays, over the 2048 MiB cap$"
        with pytest.raises(ResourceLimitError, match=message):
            core._preflight(("a small phase", 1 << 20, 0), ("the big phase", 1 << 32, 0))

    def test_work_cap_is_one_dense_decomposition_at_the_limit(self):
        limit = core.EXPM_DENSE_LIMIT
        core._preflight(("one decomposition", 0, limit**3))
        with pytest.raises(
            ResourceLimitError,
            match=f"^the heavy phase .* capped at dimension {limit}, got {limit + 2}$",
        ):
            core._preflight(("a light phase", 1 << 30, 1), ("the heavy phase", 0, (limit + 2)**3))

    def test_work_sums_over_a_phase_not_across_phases(self):
        # 64 stacks of two 3400 x 3400 blocks: 73 times one 4096 decomposition
        with pytest.raises(ResourceLimitError, match="^a lifted run .* got 17135$"):
            core._preflight(("a lifted run", 0, 64 * 2 * 3400**3))
        core._preflight(*[(f"phase {i}", 0, 4096**3) for i in range(8)])

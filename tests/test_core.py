import numpy as np
import pytest

from schrodingerize import (
    AxisSpec,
    InvalidArgumentError,
    StateVector,
    fourier_modes,
    make_grid,
)


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
        mv = fourier_modes(make_grid(1.0, 4))
        assert np.allclose(sorted(mv.modes), [-2 * np.pi, -np.pi, 0.0, np.pi])

    def test_half_width_scaling(self):
        mv = fourier_modes(make_grid(2.0, 4))
        assert np.allclose(sorted(mv.modes), [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_two_points(self):
        mv = fourier_modes(make_grid(1.0, 2))
        assert np.allclose(sorted(mv.modes), [-np.pi, 0.0])

    def test_dft_natural_order(self):
        g = make_grid(1.0, 8)
        mv = fourier_modes(g)
        expected = np.pi * np.array([0, 1, 2, 3, -4, -3, -2, -1], dtype=float)
        assert np.allclose(mv.modes, expected)

    def test_contains_zero_and_unpaired_mode(self):
        g = make_grid(3.0, 16)
        mv = fourier_modes(g)
        assert 0.0 in mv.modes
        assert np.isclose(mv.modes.min(), -np.pi * 8 / 3.0)
        # every positive mode has a negative partner; the most negative does not
        positives = [m for m in mv.modes if m > 0]
        for m in positives:
            assert np.isclose(mv.modes, -m).any()

    def test_sort_permutation_roundtrip(self):
        mv = fourier_modes(make_grid(1.5, 12))
        perm = mv.sort_permutation
        assert np.all(np.diff(mv.modes[perm]) > 0)
        inverse = np.argsort(perm)
        assert np.array_equal(mv.modes[perm][inverse], mv.modes)


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

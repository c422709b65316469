import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schrodingerize import (
    AccuracyWarning,
    AxisSpec,
    DegenerateStateError,
    Grid1D,
    InvalidArgumentError,
    ResourceLimitError,
    StateVector,
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
from schrodingerize.operators import HermitianMatrix, HermitianPair, _laplacian_symbol
from schrodingerize import core, pipeline
from schrodingerize.pipeline import (
    _discretisation_error,
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


def trapezoid_slices(arr):
    """The trapezoid sums over p >= 0 of each row of ``arr``: half weights
    at p = 0 and at index 0, the periodic image of p = L, whole ones between."""
    half = arr.shape[-1] // 2
    return 0.5 * arr[..., half] + 0.5 * arr[..., 0] + arr[..., half + 1 :].sum(axis=-1)


def closed_form_weights(p_grid, recovery):
    """The weights c_j = a_j b_j / cal of ``_mode_weights`` in closed form,
    for the profile exp(-|p|), and the indices of the modes it sums.

    a_j is the mode-j coefficient of the lifted profile under ``dft_p``, a
    Poisson kernel (two geometric sums); b_j is the recovery pulled back
    through ``idft_p`` and cal its calibration: the trapezoid rule on the
    profile, or the profile's squared norm over the p >= 0 block with
    p = 0 counted half.  The "integration" rule covers whole periods of
    every even mode j != 0, so those weights are exactly 0.
    """
    n = p_grid.count
    profile = np.exp(-np.abs(p_grid.points))
    m = np.arange(-(n // 2), n // 2)  # mu_j = pi * m_j / half_width
    odd = m % 2 == 1
    if recovery == "integration":
        summed = np.flatnonzero(odd | (m == 0))
    else:
        summed = np.arange(n)
    dp = p_grid.spacing
    r = math.exp(-dp)
    one_minus_r = -math.expm1(-dp)
    half_theta = np.pi * m / n  # half the phase step mu_j * dp
    sin_sq = np.sin(half_theta) ** 2
    q = math.exp(-p_grid.half_width) * np.where(odd, -1.0, 1.0)  # r^(N/2) (-1)^m
    a = (1.0 - q) * -math.expm1(-2.0 * dp) / (one_minus_r**2 + 4.0 * r * sin_sq)
    if recovery == "integration":
        # trapezoid over p = 0 .. half_width: L at m = 0, -i dp cot(pi m / N) at odd m
        b = np.zeros(n, dtype=complex)
        b[n // 2] = p_grid.half_width
        b[odd] = -1j * dp * np.cos(half_theta[odd]) / np.sin(half_theta[odd])
        cal = p_grid.spacing * trapezoid_slices(profile)
    else:
        # sum over p_k = k*dp >= 0 of (r exp(-i*mu_j*dp))^k, the k = 0 term halved
        one_minus_z = (one_minus_r + 2.0 * r * sin_sq) + 1j * r * np.sin(2.0 * half_theta)
        b = (1.0 - q) / one_minus_z - 0.5
        cal = 0.5 * profile[n // 2] ** 2 + (profile[n // 2 + 1 :] ** 2).sum()
    return summed, a * b / (n * cal)  # n: the two 1/sqrt(N) of the unitary transforms


class TestWarpExtend:
    def test_zero_slice_equals_initial(self):
        g = make_grid(12.0, 128)
        u0 = vector_state([1.0, 2.0 - 1.0j, 0.5])
        w = warp_extend(u0, g)
        arr = w.as_array()
        assert np.array_equal(arr[:, 64], u0.amplitudes)  # p = 0 at index N/2

    def test_even_extension(self):
        g = make_grid(8.0, 64)
        u0 = vector_state([1.0, -0.7j])
        arr = warp_extend(u0, g).as_array()
        pts = g.points
        i_plus = np.argmin(np.abs(pts - 1.0))
        i_minus = np.argmin(np.abs(pts + 1.0))
        assert np.allclose(arr[:, i_plus], arr[:, i_minus])

    def test_profile_values_exact(self):
        g = make_grid(6.0, 32)
        u0 = vector_state([2.0])
        arr = warp_extend(u0, g).as_array()
        assert np.abs(arr[0] - 2.0 * np.exp(-np.abs(g.points))).max() < 1e-14

    def test_lifted_norm_matches_closed_form(self):
        # |w(0)|^2 ~ (N/2L) * |u0|^2 * integral exp(-2|p|) dp = (N/2L)|u0|^2
        g = make_grid(12.0, 256)
        rng = np.random.default_rng(21)
        u0 = vector_state(rng.standard_normal(5))
        w = warp_extend(u0, g)
        predicted = math.sqrt(g.count / (2.0 * g.half_width)) * u0.norm
        assert w.norm == pytest.approx(predicted, rel=1e-2)

    def test_short_domain_lifts_without_a_warning(self):
        # a stage: exp(-4) = 1.8e-2 is left to the run's one grid check
        # (tests/test_apps.py::TestGridCheck); warnings are errors here
        g = make_grid(4.0, 32)
        arr = warp_extend(vector_state([1.0]), g).as_array()
        assert arr[0, 0] == pytest.approx(math.exp(-4.0), rel=1e-15)


class TestAuxiliaryTransforms:
    def test_constant_in_p_hits_zero_mode(self):
        g = make_grid(2.0, 16)
        amps = np.tile(np.array([1.0 + 0.5j]), 16)
        w = StateVector(amps, (AxisSpec("x1", 1), AxisSpec("p", 16, g)))
        spec = dft_p(w).as_array()[0]
        d = assemble_eta_diagonal(g)
        zero_idx = int(np.argmin(np.abs(d.diagonal)))
        others = np.delete(np.abs(spec), zero_idx)
        assert np.abs(spec[zero_idx]) > 1.0
        assert others.max() < 1e-12

    def test_pure_tone_lands_on_matching_mode(self):
        # the analysis basis is exp(-i*mu*p): the tone exp(-i*mu_m*p)
        # concentrates on mode +mu_m (and exp(+i*mu_m*p) on -mu_m)
        g = make_grid(2.0, 16)
        mu_m = fourier_modes(g)[3]
        tone = np.exp(-1j * mu_m * g.points)
        w = StateVector(tone, (AxisSpec("p", 16, g),))
        spec = dft_p(w).amplitudes
        d = assemble_eta_diagonal(g)
        idx = int(np.argmax(np.abs(spec)))
        assert d.diagonal[idx] == pytest.approx(mu_m, rel=1e-12)
        assert np.delete(np.abs(spec), idx).max() < 1e-12

    def test_inverse_in_one_buffer_matches_numpy_shift_and_transform(self):
        # idft_p, transforming in its own buffer with out=, gives the
        # unbuffered result bit for bit
        rng = np.random.default_rng(8)
        grid = make_grid(6.0, 32)
        layout = (AxisSpec("x1", 3), AxisSpec("eta", 32, grid))
        arr = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        w = idft_p(StateVector(arr.reshape(-1), layout))
        spec = np.fft.ifftshift(arr, axes=-1) * np.where(np.arange(32) % 2 == 0, 1.0, -1.0)
        expected = np.fft.fft(spec, axis=-1, norm="ortho")
        assert np.array_equal(w.as_array(), expected)
        assert not w.amplitudes.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=700),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_forward_is_shifted_phased_inverse_fft(self, half, rows, is_complex, seed):
        # dft_p(x) = fftshift(ifft(x) * phase): bit for bit at powers of two,
        # to rounding at other even lengths; idft_p undoes it
        n = 2 * half
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((rows, n))
        if is_complex:
            arr = arr + 1j * rng.standard_normal((rows, n))
        grid = make_grid(3.0, n)
        layout = (AxisSpec("x1", rows), AxisSpec("p", n, grid))
        w = StateVector(arr.reshape(-1), layout)
        got = dft_p(w).as_array()
        phase = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        expected = np.fft.fftshift(np.fft.ifft(arr, axis=-1, norm="ortho") * phase, axes=-1)
        scale = np.abs(expected).max()
        if n & (n - 1) == 0:
            assert np.array_equal(got, expected)
        else:
            assert np.abs(got - expected).max() <= 4e-15 * scale
        back = idft_p(dft_p(w)).as_array()
        assert np.abs(back - arr).max() <= 1e-14 * np.abs(arr).max()

    def test_forward_holds_one_copy_beside_its_input(self):
        # the shift writes one fresh buffer and the transform runs in it
        grid = make_grid(12.0, 4096)
        arr = np.random.default_rng(1).standard_normal((64, 4096)) + 0j
        layout = (AxisSpec("x1", 64), AxisSpec("p", 4096, grid))
        w = StateVector(arr.reshape(-1), layout)
        dft_p(w)
        tracemalloc.start()
        try:
            dft_p(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * arr.nbytes

    def test_roundtrip_and_norm(self):
        rng = np.random.default_rng(22)
        g = make_grid(5.0, 64)
        amps = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        w = StateVector(amps.reshape(-1), (AxisSpec("x1", 3), AxisSpec("p", 64, g)))
        s = dft_p(w)
        assert s.norm == pytest.approx(w.norm, rel=1e-12)
        back = idft_p(s)
        assert np.abs(back.amplitudes - w.amplitudes).max() < 1e-12


_STAGE_GRID = make_grid(4.0, 8)
_STAGE_PAIR = hermitian_decompose(np.diag([1.0, 2.0]))
# each stage and the name of the last axis it reads
_STAGES = {
    "dft_p": (dft_p, "p"),
    "recover_integrate": (recover_integrate, "p"),
    "recover_point": (lambda w: recover_point(w, _STAGE_GRID.points[6]), "p"),
    "project_positive": (project_positive, "p"),
    "idft_p": (idft_p, "eta"),
    "evolve_blocks": (
        lambda s: evolve_blocks(s, _STAGE_PAIR, assemble_eta_diagonal(_STAGE_GRID), 0.1),
        "eta",
    ),
}


@pytest.mark.parametrize("stage", _STAGES)
@pytest.mark.parametrize("defect", ["other space", "no grid"])
def test_stage_refuses_a_state_from_the_wrong_space(stage, defect):
    # a p-space state handed to a mode-space stage or the reverse, or the
    # stage's own axis name without the grid it reads
    func, name = _STAGES[stage]
    if defect == "other space":
        last = AxisSpec({"p": "eta", "eta": "p"}[name], 8, _STAGE_GRID)
    else:
        last = AxisSpec(name, 8)
    state = StateVector(np.ones(16), (AxisSpec("x1", 2), last))
    with pytest.raises(InvalidArgumentError, match=f"last axis '{name}' with a grid"):
        func(state)


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

    def evolved(self, t=None):
        return evolve_blocks(self.s0, self.pair, self.d, self.t if t is None else t)


class TestEvolveBlocks:
    def test_time_zero_identity(self):
        fix = HeatFixture()
        s = fix.evolved(t=0.0)
        assert np.abs(s.amplitudes - fix.s0.amplitudes).max() < 1e-14

    def test_zero_mode_slice_frozen(self):
        fix = HeatFixture()
        s = fix.evolved(t=0.7)
        zero_idx = int(np.argmin(np.abs(fix.d.diagonal)))
        before = fix.s0.as_array()[:, zero_idx]
        after = s.as_array()[:, zero_idx]
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
            StateVector(amps.reshape(-1), (AxisSpec("x1", dim), AxisSpec("p", n, p_grid)))
        )
        total = assemble_total_hamiltonian(pair, d)
        expected = expm_apply(1j * total.dense(), s0.amplitudes, t)
        got = evolve_blocks(s0, pair, d, t)
        assert np.abs(got.amplitudes - expected).max() < 1e-10

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
            assert s.norm == pytest.approx(fix.s0.norm, rel=1e-10)

    def test_negative_time_rejected(self):
        fix = HeatFixture()
        with pytest.raises(InvalidArgumentError):
            fix.evolved(t=-0.1)

    def test_shared_eigenbasis_holds_two_lifted_copies(self):
        # Hbar = 0 at dim 256, N = 4096 (16 MiB per copy): the coefficients
        # and their phases, then the coefficients and the result; building
        # the phases through four dim x N temporaries peaked at 48 MiB
        rng = np.random.default_rng(5)
        x = rng.standard_normal((256, 256))
        pair = hermitian_decompose(x @ x.T / 256)
        assert pair.h_bar.max_norm == 0.0 and pair.h.blocks.dtype == np.float64
        pair.h.spectrum  # decomposed before the measurement
        p_grid = make_grid(12.0, 4096)
        amps = rng.standard_normal((256, 4096)) + 1j * rng.standard_normal((256, 4096))
        layout = (AxisSpec("x1", 256), AxisSpec("eta", 4096, p_grid))
        s0 = StateVector(amps.reshape(-1), layout)
        d = assemble_eta_diagonal(p_grid)
        del amps
        tracemalloc.start()
        try:
            evolve_blocks(s0, pair, d, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

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
    s0 = StateVector(amps.reshape(-1), layout)
    return evolve_blocks(s0, pair, assemble_eta_diagonal(p_grid), t).as_array()


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


class TestChebyshevPropagator:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=16),
        st.booleans(),
        st.integers(min_value=1, max_value=512),
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    # N = 1,024: at the reach limit, and in two chunks of columns
    @example(nblocks=1, b=16, complex_blocks=True, half=512, width=12.0, reach=1.0, seed=1)
    @example(nblocks=5, b=13, complex_blocks=False, half=512, width=2.0, reach=0.2, seed=2)
    # N = 1,024 over a complex (16, 16, 16) stack: four chunks of 256 columns,
    # each with its own r, through the same two folded stacks refilled in place
    @example(nblocks=16, b=16, complex_blocks=True, half=512, width=6.0, reach=1.0, seed=3)
    def test_matches_per_mode_decompositions(self, nblocks, b, complex_blocks, half, width, reach, seed):
        # t up to the reach limit t*max|lam(H)| = L.  Past t*r = 400 the bound
        # grows with t*r: per-mode eigh's own phase error does (1.8e-13 at
        # t*r = 1150 against a 40-digit reference, where the recurrence's
        # was 3e-14)
        rng = np.random.default_rng(seed)
        stacks = [
            block_stack(rng, nblocks, b) if complex_blocks
            else rng.standard_normal((nblocks, b, b)) for _ in range(2)
        ]
        pair = HermitianPair(*(HermitianMatrix.from_entries(s + s.transpose(0, 2, 1).conj()) for s in stacks))
        assert (pair.h.blocks.dtype == complex) == (complex_blocks and b > 1)
        p_grid = Grid1D(width, 2 * half)
        t = reach * width / max(np.abs(pair.h._bounds).max(), 1e-3)
        amps = rng.standard_normal(nblocks * b * 2 * half) * (1 + 1j)
        s0 = StateVector(amps, (AxisSpec("x1", nblocks * b), AxisSpec("eta", 2 * half, p_grid)))
        mus = assemble_eta_diagonal(p_grid).diagonal
        got = pipeline._evolve_chebyshev(s0, pair, mus, t).amplitudes
        expected = pipeline._evolve_modes(s0, pair, mus, t).amplitudes
        tr = t * pipeline._mode_intervals(pipeline._intervals(pair), np.abs(mus).max())[2]
        tolerance = 1e-13 * max(1.0, tr / 400)
        assert np.linalg.norm(got - expected) <= tolerance * np.linalg.norm(expected)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e4)))
    @example(x=1e4)
    @example(x=9697.875)
    def test_bessel_coefficients_match_scipy(self, x):
        # SciPy's own error reaches 1.5e-14 at x = 1000 against a 40-digit
        # reference, the series' 3.5e-16; the omitted tail, cut where it
        # falls below 2^-52, is allowed twice that for the values at the cut
        import scipy.special

        series = pipeline._bessel_series(x)
        reference = scipy.special.jv(np.arange(series.size + 40), x)
        assert np.abs(series - reference[: series.size]).max() < 1e-14 * max(1.0, x) ** 0.5
        assert 2.0 * np.abs(reference[series.size :]).sum() < 2.0**-51


class TestOnePropagator:
    @pytest.mark.parametrize(
        "hermitian, count, t, path",
        [(True, 64, 0.3, "eigenbasis"), (False, 16, 5.0, "modes"), (False, 256, 0.3, "chebyshev")],
    )
    def test_blocks_run_and_lifted_books_the_named_path(
        self, monkeypatch, preflight_phases, hermitian, count, t, path
    ):
        # the path _propagator names is the one evolve_blocks runs, with the
        # decompositions it needs and no more (an Hbar = 0 run decomposes H
        # once, its spectrum not cached before), and evolve_lifted books
        # exactly its work and bytes
        dim = 8
        rng = np.random.default_rng(47)
        a = random_dissipative(rng, dim)
        pair = hermitian_decompose((a + a.conj().T) / 2 if hermitian else a, check_psd=False)
        p_grid = Grid1D(12.0, count)
        decompositions, ran = [], []
        for name in ("eigh", "eigvalsh"):
            def recording(m, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                decompositions.append((_name, np.shape(m)))
                return _call(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        for name in ("_evolve_modes", "_evolve_chebyshev"):
            def evolving(*args, _name=name, _call=getattr(pipeline, name)):
                ran.append(_name)
                return _call(*args)

            monkeypatch.setattr(pipeline, name, evolving)
        pipeline.evolve_lifted(vector_state(rng.standard_normal(dim)), pair, p_grid, t)
        name, work, held = pipeline._propagator(
            pair.h.blocks.shape, pipeline._intervals(pair), p_grid, t
        )
        assert name == path
        stacks = [("eigvalsh", (1, dim, dim))] * 2
        assert (ran, decompositions) == {
            "eigenbasis": ([], [("eigh", (dim, dim))]),
            "modes": (["_evolve_modes"], stacks + [("eigh", (1, dim, dim))] * count),
            "chebyshev": (["_evolve_chebyshev"], stacks),
        }[path]
        assert preflight_phases == [pipeline._lifted_phase(dim, count, held, work)]


class TestRecoverIntegrate:
    def test_exponential_profile_quadrature(self):
        # integral of exp(-p) over p >= 0 is exactly 1
        g = make_grid(20.0, 4000)  # dp = 0.01
        u0 = vector_state([1.0])
        w = warp_extend(u0, g)
        u = recover_integrate(w)
        assert abs(u.amplitudes[0] - 1.0) < 1e-4

    def test_zero_state(self):
        g = make_grid(8.0, 32)
        w = StateVector(np.zeros(32), (AxisSpec("p", 32, g),))
        assert np.all(recover_integrate(w).amplitudes == 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2048).map(lambda k: 2 * k),
        st.floats(min_value=0.5, max_value=50.0),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(n=2, half_width=0.5, dim=1, seed=0)
    @example(n=4096, half_width=50.0, dim=4, seed=1)
    def test_weight_vector_equals_the_calibrated_slice_sums(self, n, half_width, dim, seed):
        # the weight vector against the explicit rule: the half-weight slice
        # sums of each row over the same sums on the profile exp(-|p|).  The
        # two sum in another order, and the calibration scales their
        # rounding by about L; in 20,000 draws the largest ratio of the
        # difference to the bound was 0.25 (0.79 at L = 200)
        g = Grid1D(half_width, n)
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
        layout = (AxisSpec("x1", dim), AxisSpec("p", n, g))
        w = StateVector(amps.reshape(-1), layout)
        expected = trapezoid_slices(amps) / trapezoid_slices(np.exp(-np.abs(g.points)))
        got = recover_integrate(w).amplitudes
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(amps).max()

    def test_calibrated_roundtrip_exact(self):
        g = make_grid(12.0, 64)
        rng = np.random.default_rng(25)
        u0 = vector_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        u = recover_integrate(warp_extend(u0, g))
        assert np.abs(u.amplitudes - u0.amplitudes).max() < 1e-14


class TestRecoverPoint:
    def test_fresh_state_exact(self):
        g = make_grid(12.0, 64)
        rng = np.random.default_rng(26)
        u0 = vector_state(rng.standard_normal(3))
        w = warp_extend(u0, g)
        p_star = g.points[40]
        u = recover_point(w, p_star)
        assert np.abs(u.amplitudes - u0.amplitudes).max() < 1e-12

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

    def test_agrees_with_integration_on_evolved_state(self):
        # point evaluation feels the interpolation wiggle of the kinked
        # profile pointwise, so it needs a finer auxiliary grid than the
        # averaging quadrature route
        fix = HeatFixture(m=32, n=1024)
        w_t = idft_p(fix.evolved())
        p_star = fix.p_grid.points[fix.p_grid.count // 2 + 64]
        by_point = recover_point(w_t, p_star).amplitudes
        by_quad = recover_integrate(w_t).amplitudes
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
        expected = np.sum(weights * np.exp(-2 * pos)) / w.norm**2
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
        w = StateVector(amps, (AxisSpec("p", 32, g),))
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
            results.append(recover_point(w_t, p_star).amplitudes)
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
        point = recover_point(w_t, p_star).amplitudes
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
        # the weights, numeric and closed-form, against the explicit stages:
        # the profile through dft_p, and the calibrated trapezoid rule pulled
        # back through idft_p one unit mode at a time
        grid = Grid1D(half_width, n)
        summed, weights = _mode_weights(grid, "integration")
        closed_summed, closed = closed_form_weights(grid, "integration")
        m = np.arange(-(n // 2), n // 2)
        even = (m % 2 == 0) & (m != 0)
        assert np.all(closed[even] == 0.0)
        assert np.array_equal(summed, np.flatnonzero(~even))
        assert np.array_equal(closed_summed, summed)

        profile = dft_p(warp_extend(vector_state([1.0]), grid))
        layout = (AxisSpec("x1", n), AxisSpec("eta", n, grid))
        units = StateVector(np.eye(n).reshape(-1), layout)
        functional = recover_integrate(idft_p(units)).amplitudes
        explicit = profile.amplitudes * functional
        scale = np.abs(explicit).max()
        assert np.abs(explicit[even]).max() < 1e-14 * scale
        assert np.abs(weights[even]).max() < 1e-14 * scale
        assert np.abs(weights - explicit).max() < 1e-13 * scale
        assert np.abs(closed - explicit).max() < 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2048).map(lambda k: 2 * k),
        st.floats(min_value=0.5, max_value=200.0),
    )
    @example(n=2, half_width=0.5)
    @example(n=4, half_width=200.0)
    @example(n=4096, half_width=0.5)
    @example(n=4094, half_width=200.0)
    def test_weights_match_the_closed_form(self, n, half_width):
        # the weights from the pipeline's own transform against the Poisson
        # kernel, cot and geometric-series sums of the exp(-|p|) profile,
        # for both parities of N/2; the grid points -L + k dp carry rounding
        # of about L eps, so near L = 200 they differ by up to 5.8e-14
        grid = Grid1D(half_width, n)
        for recovery in ("integration", "projection"):
            summed, weights = _mode_weights(grid, recovery)
            closed_summed, closed = closed_form_weights(grid, recovery)
            assert np.array_equal(summed, closed_summed)
            scale = np.abs(closed).max()
            assert np.abs(weights - closed).max() <= 1e-13 * scale, recovery

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=4, max_value=256).map(lambda k: 2 * k),
        st.floats(min_value=4.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    # failed the unscaled 1e-12 bound: t*lambda = 15.9 at L = 16, the fitted
    # |u| about 1e-4, agreement 2.4e-12
    @example(dim=1, n=84, half_width=16.0, t=2.0, seed=38064269)
    # inside the window, t*lambda = 10.7 at L = 14, yet the fitted |u| is
    # 1.6e-5 |u0|: agreement 2.3e-12 in the norm, 1.9e-12 in the direction
    @example(dim=1, n=68, half_width=14.0, t=1.0, seed=3)
    def test_matches_explicit_lift(self, dim, n, half_width, t, seed):
        # V (g * V^dag u0) against schrodingerize_evolve on a PSD H (Hbar = 0).
        # The quadrature routes agree to 1e-12.  The projection's fitted |u|
        # falls as the profile convects out of p >= 0, about exp(-t*lambda)
        # |u0| inside the window and further past it, and normalising by it
        # scales the rounding of the lifted run, about 1e-16 |u0| per entry,
        # by |u0| / |u|; so its bound is max(1e-12, 1e-15 |u0| / |u|).  In
        # 3,000 draws the largest ratio of agreement to bound was 0.15.
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
            tol = 1e-12
            if recovery == "projection":
                tol = max(1e-12, 1e-15 * np.linalg.norm(u0) / rec.u_norm)
                assert np.linalg.norm(u_t) == pytest.approx(rec.u_norm, rel=tol)
                u_t = u_t / np.linalg.norm(u_t)
            expected = rec.u.amplitudes
            assert np.linalg.norm(u_t - expected) <= tol * np.linalg.norm(expected), recovery

    def test_convection_past_the_boundary_computes_without_a_warning(self):
        # a stage: t * max|lam| = 5 past L = 4 is left to the run's one grid
        # check (tests/test_apps.py::TestGridCheck); warnings are errors here
        factors = decay_factors(np.array([0.0, 2.0]), Grid1D(4.0, 64), 2.5, "integration")
        assert factors[0] == pytest.approx(1.0, rel=1e-12)

    def test_rejects_unknown_recovery_and_negative_time(self):
        with pytest.raises(InvalidArgumentError):
            decay_factors(np.array([1.0]), Grid1D(12.0, 64), 1.0, "point")
        with pytest.raises(InvalidArgumentError):
            decay_factors(np.array([1.0]), Grid1D(12.0, 64), -1.0, "integration")


def every_row(u0, lam, vectors, p_grid, t):
    """``evolve_eigenbasis`` with a row for every distinct eigenvalue: the
    solution's amplitudes, the success probability, the cost factor and the
    spectral norms."""
    if vectors is None:
        coeffs = np.fft.fftn(u0.as_array(), norm="ortho").reshape(-1)
    else:
        coeffs = vectors.conj().T @ u0.amplitudes
    values, inverse = np.unique(lam, return_inverse=True)
    rows = _lifted_rows(values, p_grid, t)
    mass = np.bincount(inverse, weights=np.abs(coeffs) ** 2)
    w_norm = math.sqrt(mass @ rows.spectral_sq)
    u_coeffs = coeffs * rows.integration[inverse]
    if vectors is None:
        u = np.fft.ifftn(u_coeffs.reshape(u0.shape), norm="ortho").reshape(-1)
    else:
        u = vectors @ u_coeffs
    normalizer = math.sqrt(p_grid.count / (2.0 * p_grid.half_width))
    return (
        u,
        (mass @ rows.block_mass) / w_norm**2,
        w_norm / (normalizer * np.linalg.norm(coeffs * rows.fit[inverse])),
        (math.sqrt(mass.sum() * rows.initial_sq), w_norm),
    )


class TestEvolveEigenbasis:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["fourier-1d", "fourier-2d", "eigh"]),
        st.integers(min_value=8, max_value=128).map(lambda k: 2 * k),
        st.floats(min_value=0.0, max_value=0.2),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.data(),
    )
    def test_rows_skipped_only_without_weight(self, form, n, t, seed, data):
        # coefficients drawn with a random subset exactly zero and others
        # light: the run against a row for every distinct eigenvalue
        rng = np.random.default_rng(seed)
        if form == "eigh":
            dim = data.draw(st.integers(min_value=2, max_value=12))
            # five levels, so eigenvalues repeat and rows are shared
            levels = rng.choice(np.linspace(0.1, 2.0, 5), dim)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q = np.linalg.qr(g)[0]
            lam, vectors = np.linalg.eigh((q * levels) @ q.conj().T)
            layout = (AxisSpec("x1", dim),)
        else:
            one_axis = form == "fourier-1d"
            sizes = st.sampled_from([4, 6, 8, 12, 16] if one_axis else [2, 4, 6, 8])
            counts = [data.draw(sizes) for _ in range(1 if one_axis else 2)]
            grids = [make_grid(4.0, count) for count in counts]
            lam, vectors = _laplacian_symbol(grids).reshape(-1), None
            layout = tuple(AxisSpec(f"x{i + 1}", g.count, g) for i, g in enumerate(grids))
            dim = lam.size
        # light components about the threshold 2^-52 |u0| and above it
        scale = st.sampled_from([0.0, 1e-17, 1e-16, 1e-15, 1e-12, 1e-8, 1.0])
        scales = np.array(data.draw(st.lists(scale, min_size=dim, max_size=dim)))
        scales[rng.integers(dim)] = 1.0
        coeffs = scales * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        if vectors is None:
            amps = np.fft.ifftn(coeffs.reshape([a.count for a in layout]), norm="ortho")
        else:
            amps = vectors @ coeffs
        u0 = StateVector(amps.reshape(-1), layout)
        grid = Grid1D(12.0, n)
        rec = evolve_eigenbasis(u0, lam, vectors, grid, t, 3, float(lam.max()))
        u, success, cost_factor, spectral_norms = every_row(u0, lam, vectors, grid, t)
        assert np.linalg.norm(rec.u.amplitudes - u) <= 4 * 2.0**-52 * u0.norm
        assert rec.success_probability == pytest.approx(success, rel=1e-14)
        assert rec.cost_factor == pytest.approx(cost_factor, rel=1e-14)
        assert rec.spectral_norms == pytest.approx(spectral_norms, rel=1e-14)

    @pytest.mark.parametrize("start", ["random", "gaussian", "cosine"])
    def test_rows_follow_the_weighted_spectrum(self, lifted_row_counts, start):
        # a random u0 and a narrow Gaussian weigh all 33 distinct eigenvalues
        # of a 64-point Laplacian; 1 + cos(pi x) weighs two
        grid = make_grid(1.0, 64)
        x = grid.points
        u0 = {
            "random": np.random.default_rng(5).standard_normal(64),
            "gaussian": np.exp(-(x**2) / (2 * 0.05**2)),
            "cosine": 1.0 + np.cos(np.pi * x),
        }[start]
        u0 = StateVector(u0.astype(complex), (AxisSpec("x1", 64, grid),))
        lam = fourier_modes(grid) ** 2
        evolve_eigenbasis(u0, lam, None, Grid1D(12.0, 256), 1e-4, 3, float(lam.max()))
        assert lifted_row_counts == [2 if start == "cosine" else 33]

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
        modes = fourier_modes(grid)
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

    def test_real_eigenvectors_act_without_a_complex_copy(self, traced_peak):
        # a real 1024 x 1024 V on a complex u0: NumPy's complex copy of V
        # for V^dag u0 and V c peaked at 16.1 MiB; V acting on the real and
        # imaginary parts apart peaks at 0.7 MiB and moves u by rounding
        n = 1024
        rng = np.random.default_rng(3)
        vectors = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.linspace(0.0, 2.0, n)
        u0 = vector_state(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        args = (Grid1D(12.0, 16), 0.5, 3, 2.0)
        peak = traced_peak(lambda: evolve_eigenbasis(u0, lam, vectors, *args))
        assert peak < 4 * 2**20
        real = evolve_eigenbasis(u0, lam, vectors, *args).u.amplitudes
        complex_v = evolve_eigenbasis(u0, lam, vectors.astype(complex), *args).u.amplitudes
        assert np.linalg.norm(real - complex_v) <= 1e-14 * np.linalg.norm(complex_v)

    def test_zero_state_and_bad_arguments_rejected(self):
        grid = make_grid(12.0, 64)
        with pytest.raises(DegenerateStateError):
            evolve_eigenbasis(vector_state(np.zeros(2)), [0.0, 1.0], np.eye(2), grid, 0.1, 2, 1.0)
        with pytest.raises(InvalidArgumentError):
            evolve_eigenbasis(vector_state([1.0, 0.0]), [0.0, 1.0], np.eye(2), grid, -0.1, 2, 1.0)
        with pytest.raises(InvalidArgumentError):
            evolve_eigenbasis(vector_state([1.0, 0.0]), [0.0], np.eye(2), grid, 0.1, 2, 1.0)


class TestPreflightPhases:
    @pytest.mark.parametrize(
        "patch, dim, count, phase",
        [
            # the split's 7 complex copies of A at n = 64 pass a cap set just below them
            ({"ARRAY_BYTES_LIMIT": 7 * 64 * 64 * 16 - 1}, 64, 16,
             "the Hermitian split of dimension 64 needs"),
            ({"EXPM_DENSE_LIMIT": 7}, 8, 16, "the Hermitian split of dimension 8 takes .* got 8$"),
            ({}, 2, 2**28, "a lifted run of 268435456 auxiliary modes over 2 rows needs"),
            # 16 per-mode decompositions of 8 x 8: work 8192, of one matrix of dimension 20
            ({"EXPM_DENSE_LIMIT": 15}, 8, 16,
             "a lifted run of 16 auxiliary modes over 8 rows takes .* got 20$"),
        ],
        ids=["split-bytes", "split-work", "lifted-bytes", "lifted-work"],
    )
    def test_each_phase_refused_alone_before_it_allocates(
        self, monkeypatch, traced_peak, patch, dim, count, phase
    ):
        for name, value in patch.items():
            monkeypatch.setattr(core, name, value)
        a = random_dissipative(np.random.default_rng(41), dim)
        u0 = vector_state(np.ones(dim))

        def refused():
            with pytest.raises(ResourceLimitError, match=f"^{phase}"):
                schrodingerize_evolve(u0, a, (12.0, count), 0.1)

        assert traced_peak(refused, warm=False) < 2**20

    def test_hermitian_run_is_one_decomposition_whatever_the_count(self, monkeypatch):
        # Hbar = 0 decomposes H once, so the work cap at dimension 8 passes
        # an 8 x 8 Hermitian A on 4096 modes
        monkeypatch.setattr(core, "EXPM_DENSE_LIMIT", 8)
        g = np.random.default_rng(42).standard_normal((8, 8))
        schrodingerize_evolve(vector_state(np.ones(8)), g @ g.T / 8, (12.0, 4096), 0.1)

    def test_eigenbasis_rows_refused_before_they_are_allocated(self, traced_peak):
        # three distinct eigenvalues: three rows
        u0, grid = vector_state(np.ones(4)), Grid1D(12.0, 2**30)
        phase = "^a lifted run of 1073741824 auxiliary modes over 3 rows"

        def refused():
            with pytest.raises(ResourceLimitError, match=phase):
                evolve_eigenbasis(u0, [0.0, 1.0, 1.0, 2.0], np.eye(4), grid, 0.1, 1, 2.0)

        assert traced_peak(refused, warm=False) < 2**20

    @pytest.mark.parametrize("hermitian, dim, count", [(False, 64, 256), (True, 64, 16384)])
    def test_predicted_phase_bounds_the_peak(
        self, preflight_phases, traced_peak, hermitian, dim, count
    ):
        # the general-dense workload's shape (non-Hermitian, 64 x 64, 256
        # modes; peak below 1 MiB) and a Hermitian A whose three lifted
        # copies of 16 MiB dominate: the largest listed phase holds the
        # tracemalloc peak, and above 8 MiB stays within twice it
        rng = np.random.default_rng(43)
        a = random_dissipative(rng, dim, lam_max=1.0)
        a = (a + a.conj().T) / 2 if hermitian else a
        u0 = vector_state(rng.standard_normal(dim))
        peak = traced_peak(lambda: schrodingerize_evolve(u0, a, (12.0, count), 0.3))
        predicted = max(nbytes for _, nbytes, _ in preflight_phases)
        assert peak <= predicted
        assert peak < 8 * 2**20 or predicted < 2 * peak

    def test_lifted_phase_holds_the_recurrence(self, monkeypatch, preflight_phases, traced_peak):
        # a 256 x 256 non-Hermitian A on 1,024 modes takes the recurrence
        # (per-mode eigh took 6.4 s here); its chunk buffers and coefficients
        # are part of the lifted phase, which without them would fall short
        # of the peak
        shapes, results = [], []
        eigh = np.linalg.eigh

        def counting(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        a = np.eye(256) + 0.5 * np.eye(256, k=1)
        u0 = vector_state(np.ones(256))
        peak = traced_peak(
            lambda: results.append(schrodingerize_evolve(u0, a, (12.0, 1024), 0.5)[1].u)
        )
        assert shapes == [(256, 256)] * 2  # each call's spectrum of H, for the reach
        expected = expm_apply(a, u0.amplitudes, 0.5)
        assert np.linalg.norm(results[-1].amplitudes - expected) < 1e-4 * np.linalg.norm(expected)
        lifted = [nbytes for name, nbytes, _ in preflight_phases if name.startswith("a lifted run")]
        pair = hermitian_decompose(a, check_psd=False)
        pair.h.spectrum
        path, _, held = pipeline._propagator(
            pair.h.blocks.shape, pipeline._intervals(pair), Grid1D(12.0, 1024), 0.5
        )
        recurrence = held - 2 * 16 * 256**2  # its buffers beside the pair
        assert path == "chebyshev" and recurrence > 0
        assert lifted[-1] - recurrence < peak <= lifted[-1] < 2 * peak

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_recurrence_holds_what_it_books(self, traced_peak, dtype):
        # the 2-D transport shape, J = K = 8: 64 blocks of 64 x 64 on 64
        # modes.  Beside the pair the recurrence holds its two folded stacks,
        # its chunk buffers and the evolved copy, within the bytes booked
        rng = np.random.default_rng(48)
        stacks = [rng.standard_normal((64, 64, 64)) for _ in range(2)]
        if dtype is complex:
            stacks = [m + 1j * rng.standard_normal(m.shape) for m in stacks]
        pair = HermitianPair(
            *(HermitianMatrix.from_entries(m + m.transpose(0, 2, 1).conj()) for m in stacks)
        )
        assert pair.h.blocks.dtype == dtype
        p_grid, t = Grid1D(8.0, 64), 0.05
        path, _, held = pipeline._propagator(
            pair.h.blocks.shape, pipeline._intervals(pair), p_grid, t
        )
        amps = rng.standard_normal(64 * 64 * 64) * (1 + 1j)
        s0 = StateVector(amps, (AxisSpec("x1", 64 * 64), AxisSpec("eta", 64, p_grid)))
        mus = assemble_eta_diagonal(p_grid).diagonal
        peak = traced_peak(lambda: pipeline._evolve_chebyshev(s0, pair, mus, t))
        assert path == "chebyshev" and peak <= held

    def test_predicted_rows_bound_the_peak(self, preflight_phases, traced_peak):
        # 256 distinct eigenvalues on 4096 modes: 16 MiB per row copy
        lam = np.linspace(0.0, 2.0, 256)
        u0 = vector_state(np.random.default_rng(44).standard_normal(256))
        peak = traced_peak(
            lambda: evolve_eigenbasis(u0, lam, None, Grid1D(12.0, 4096), 0.5, 3, 2.0)
        )
        predicted = max(nbytes for _, nbytes, _ in preflight_phases)
        assert 8 * 2**20 < peak <= predicted < 2 * peak


class TestDefaultPGrid:
    def test_package_default(self):
        g = pipeline._p_grid_from(None)
        assert g.half_width == 12.0
        assert g.count == 256

    def test_precision_driven(self):
        # N is the smallest even count whose spacing keeps the fitted
        # discretisation error, at the smallest shift ln(1/eps) and at the
        # margin L - t*lambda_max, within 0.1% of the wrap error exp(-margin)
        g = default_p_grid(epsilon=0.01, t=5.3, lambda_max=1.0)
        assert g.half_width >= 12.0
        margin = g.half_width - 5.3
        target = 1e-3 * math.exp(-margin)
        assert _discretisation_error(g.spacing, math.log(100.0), margin) <= target
        coarser = Grid1D(g.half_width, g.count - 2).spacing
        assert _discretisation_error(coarser, math.log(100.0), margin) > target

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-6, 1e-8])
    def test_count_does_not_grow_as_one_over_epsilon(self, epsilon):
        # the former rule dp <= eps asked for 2L/eps modes: 3.6e10 at 1e-8
        t = math.log(1.0 / (epsilon * 0.2)) / 0.5
        g = default_p_grid(epsilon, t, 4.0)
        assert g.half_width == pytest.approx(math.log(1.0 / epsilon) + 4.0 * t + 2.0)
        assert g.count < 50_000

    def test_error_model_bounds_the_factor_at_fourth_order(self):
        # g_N(s) against its continuum g(s) = exp(-s) + 4 exp(-L) sinh(s/2)^2
        # / (1 - exp(-L)) on the periodic domain, over 1 <= s <= L - 1, with
        # the order fitted across halvings of dp as AC-2 fits its order, for
        # both parities of N/2
        half_width = 24.0
        s = np.arange(1.0, half_width - 1.0, 0.01)
        continuum = np.exp(-s) + 4.0 * math.exp(-half_width) * np.sinh(s / 2) ** 2 / (
            -math.expm1(-half_width)
        )
        for counts in ((96, 192, 384), (98, 194, 386)):
            errs = []
            for n in counts:
                grid = Grid1D(half_width, n)
                g = decay_factors(s, grid, 1.0, "integration")
                g = g / decay_factors([0.0], grid, 1.0, "integration")[0]
                err = np.abs(g - continuum)
                bound = np.array(
                    [_discretisation_error(grid.spacing, x, half_width - x) for x in s]
                )
                assert np.all(err <= bound), (n, (err / bound).max())
                errs.append(err.max())
            order = math.log2(errs[0] / errs[2]) / 2.0
            assert errs[0] > errs[1] > errs[2]
            assert order >= 3.5, (counts, order)

    def test_bad_epsilon(self):
        with pytest.raises(InvalidArgumentError):
            default_p_grid(epsilon=2.0, t=1.0, lambda_max=1.0)

import tracemalloc
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.linalg import solve as dense_solve, toeplitz

import bandlim.interpolate as interpolate_module
from bandlim import (Kernel, NotPositiveDefiniteError, PSDModel, SampleSet,
                     adaptive_simpson, build_gram, cardinal, cardinal_coeffs,
                     evaluate, inverse_weight_eval, power_function,
                     psi_closed_form, sample_signal, shannon_kernel, solve,
                     squared_errors, truncated_shannon, wnorm_sq)
from bandlim.interpolate import _block, _cardinal_values, _fill_half, _fold, _unfold
from conftest import (TOL_ULPS, dense_gram, dense_kernel_matrix, dense_power_sq, grid_kernel,
                      grid_kernel_reference, kernel_rows, lattice_tolerance,
                      random_weight_spec)

B = 1.0


def nyquist_setup(T=0.5, N=6):
    kernel = Kernel.uniform(1.0 / (2 * T))
    samples = SampleSet(T, np.sin(np.arange(-N, N + 1) * 0.8) + 0.3)
    return kernel, samples


class TestSampleSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SampleSet(1.0, np.ones(4))
        with pytest.raises(ValueError):
            SampleSet(-1.0, np.ones(3))
        with pytest.raises(ValueError):
            SampleSet(1.0, np.array([1.0, np.inf, 2.0]))

    def test_logical_indexing(self):
        # x[n] sits at offset n + N of the values, at time nT
        s = SampleSet(0.5, np.array([10, 20, 30]))
        assert s.half_count_N == 1
        assert s.values.dtype == float
        np.testing.assert_array_equal(s.values, [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(s.times, [-0.5, 0.0, 0.5])

    def test_complex_values_rejected(self):
        # the samples are real: a complex dtype is rejected even when every
        # imaginary part is 0
        for values in (np.array([1.0, 2.0 + 1.0j, 3.0]),
                       np.array([1.0, 2.0, 3.0], dtype=complex),
                       np.array([1.0, 2.0, 3.0], dtype=np.complex64)):
            with pytest.raises(ValueError, match="sample values must be real"):
                SampleSet(0.5, values)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing_rejected(self, lowfreq_signal, T):
        # the same check as build_gram's; a NaN spacing once gave NaN values
        with pytest.raises(ValueError, match="spacing_T must be finite and positive"):
            SampleSet(T, np.ones(3))
        with pytest.raises(ValueError, match="spacing T must be finite and positive"):
            sample_signal(lowfreq_signal, T, 2)
        with pytest.raises(ValueError, match="spacing T must be finite and positive"):
            shannon_kernel(T, [0.1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spacing_whose_node_times_overflow_rejected(lowfreq_signal):
    # N T = 1e308 is finite, but the Gram lags reach 2 N T
    with pytest.raises(ValueError, match=r"spacing T=1e\+307 with half count N=10 puts"):
        build_gram(Kernel.uniform(B), 1e307, 10)
    with pytest.raises(ValueError, match=r"spacing T=1e\+308 with half count N=10 puts"):
        sample_signal(lowfreq_signal, 1e308, 10)


class TestBuildGram:
    def test_uniform_at_critical_spacing_is_scaled_identity(self):
        T = 0.5
        gram = build_gram(Kernel.uniform(1.0 / (2 * T)), T, 5)
        np.testing.assert_allclose(dense_gram(gram), np.eye(11) / T, atol=1e-15)
        assert gram.condition_estimate == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("T", [0.0, -0.5, np.nan, np.inf])
    def test_spacing_must_be_finite_and_positive(self, lowpass_kernel, T):
        with pytest.raises(ValueError, match="finite and positive"):
            build_gram(lowpass_kernel, T, 3)

    def test_toeplitz_symmetry(self, lowpass_kernel):
        gram = build_gram(lowpass_kernel, 1.0 / B, 4)
        d = dense_gram(gram)
        assert np.array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d, 1), np.full(8, d[0, 1]))
        np.testing.assert_array_equal(gram.first_row, d[0])
        for h in (0, 1):
            block = _block(gram.first_row, h)
            assert np.array_equal(block, block.T)

    def test_gram_holds_each_half_once(self):
        # the first row and the two half factors, each block filled and
        # factored in one array, and a few object headers; a copy of each
        # block beside its factor would double it
        N = 300
        kernel = Kernel.uniform(B)
        tracemalloc.start()
        try:
            gram = build_gram(kernel, 0.8 / B, N)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gram.cholesky is not None
        assert retained <= 8 * ((N + 1) ** 2 + N ** 2 + 2 * N + 1) + 4096

    def test_condition_estimate_is_computed_once(self, lowpass_kernel):
        gram = build_gram(lowpass_kernel, 0.7 / (2 * B), 10)
        with patch.object(interpolate_module._lapack, "pocon",
                          wraps=interpolate_module._lapack.pocon) as pocon:
            first = gram.condition_estimate
            assert gram.condition_estimate == first
        assert pocon.call_count == 2

    def test_condition_grows_as_spacing_shrinks(self, lowpass_kernel):
        # oversampling makes the system progressively ill-conditioned
        conds = []
        for ratio in (0.9, 0.7, 0.5):
            gram = build_gram(lowpass_kernel, ratio / (2 * B), 10)
            conds.append(gram.condition_estimate)
        assert conds[0] < conds[1] < conds[2]

    def test_condition_estimate_tracks_the_condition_number(self, lowpass_kernel,
                                                            highpass_kernel):
        kernels = [Kernel.uniform(B), lowpass_kernel, highpass_kernel,
                   Kernel.from_spec(random_weight_spec(11, bandwidth_B=B))]
        checked = 0
        for kernel in kernels:
            for ratio in (1.3, 1.0, 0.9, 0.7, 0.5):
                gram = build_gram(kernel, ratio / (2 * B), 10)
                cond = np.linalg.cond(dense_gram(gram), 1)
                if gram.cholesky is None or cond >= 1e10:
                    continue
                checked += 1
                assert cond / 10 <= gram.condition_estimate <= 10 * cond
        assert checked >= 10

    def test_not_positive_definite_surfaced(self):
        # heavy oversampling drives eigenvalues below machine zero
        gram = build_gram(Kernel.uniform(B), 0.3 / (2 * B), 15)
        with pytest.raises(NotPositiveDefiniteError) as exc_info:
            gram.factor()
        assert exc_info.value.condition_estimate > 1e12

    def test_unfactored_gram_allows_ridge_retry(self):
        kernel = Kernel.uniform(B)
        gram = build_gram(kernel, 0.3 / (2 * B), 15)
        assert gram.cholesky is None
        samples = SampleSet(0.3 / (2 * B), np.ones(31))
        with pytest.raises(NotPositiveDefiniteError):
            solve(gram, samples, ridge_sigma2=0.0)
        interp = solve(gram, samples, ridge_sigma2=1e-6)
        assert np.all(np.isfinite(interp.coeffs_c))


# Heavy oversampling: the uniform Gram matrix at this T and N does not factor.
# squared_errors builds its own Gram from the PSD; for the flat unit PSD both
# the matched and the uniform kernel give this same matrix.
DENSE_T, DENSE_N = 0.3 / (2 * B), 15
FACTOR_USES = {
    "solve": lambda gram: solve(gram, SampleSet(DENSE_T, np.ones(2 * DENSE_N + 1))),
    "cardinal": lambda gram: cardinal(gram, 0, [0.1]),
    "power_function": lambda gram: power_function(gram, [0.1]),
    "squared_errors_matched": lambda gram: squared_errors(
        PSDModel.uniform(B, 1.0), "matched_weight", DENSE_T, DENSE_N, 0.1, 2, 1),
    "squared_errors_uniform": lambda gram: squared_errors(
        PSDModel.uniform(B, 1.0), "uniform_weight", DENSE_T, DENSE_N, 0.1, 2, 1),
    # the weighted norm is read off the factors of R, which a ridged solve
    # does not need
    "wnorm_sq_ridged": lambda gram: wnorm_sq(
        solve(gram, SampleSet(DENSE_T, np.ones(2 * DENSE_N + 1)), ridge_sigma2=1e-6)),
}


@pytest.mark.parametrize("use", sorted(FACTOR_USES))
def test_unfactored_gram_raises_at_first_use(use):
    gram = build_gram(Kernel.uniform(B), DENSE_T, DENSE_N)
    with pytest.raises(NotPositiveDefiniteError, match="ridge_sigma2 > 0") as info:
        FACTOR_USES[use](gram)
    assert info.value.condition_estimate > 1e12
    samples = SampleSet(DENSE_T, np.ones(2 * DENSE_N + 1))
    assert np.all(np.isfinite(solve(gram, samples, ridge_sigma2=1e-6).coeffs_c))


def test_gram_and_interpolant_compare_by_identity():
    kernel, samples = nyquist_setup()
    grams = [build_gram(kernel, samples.spacing_T, samples.half_count_N)
             for _ in range(2)]
    interps = [solve(grams[0], samples) for _ in range(2)]
    for a, b in (grams, interps):
        assert a == a and a != b
        assert {a: "a", b: "b"}[a] == "a" and len({a, b}) == 2


class TestSolve:
    def test_diagonal_case(self):
        kernel, samples = nyquist_setup()
        gram = build_gram(kernel, samples.spacing_T, samples.half_count_N)
        interp = solve(gram, samples)
        np.testing.assert_allclose(interp.coeffs_c,
                                   samples.spacing_T * samples.values,
                                   rtol=1e-14)

    def test_diagonal_ridge(self):
        kernel, samples = nyquist_setup()
        T = samples.spacing_T
        sigma2 = 0.3
        gram = build_gram(kernel, T, samples.half_count_N)
        interp = solve(gram, samples, ridge_sigma2=sigma2)
        np.testing.assert_allclose(interp.coeffs_c,
                                   samples.values / (1.0 / T + sigma2),
                                   rtol=1e-14)

    def test_backsubstitution_residual(self, lowpass_kernel, lowfreq_signal):
        T = 1.0 / B
        samples = sample_signal(lowfreq_signal, T, 10)
        gram = build_gram(lowpass_kernel, T, 10)
        R = dense_gram(gram)
        for sigma2 in (0.0, 1e-3):
            interp = solve(gram, samples, sigma2)
            tol = 1e-9 * np.max(np.abs(samples.values))
            residual = (R + sigma2 * np.eye(gram.size)) @ interp.coeffs_c - samples.values
            assert np.max(np.abs(residual)) <= tol

    def test_mismatched_samples_rejected(self, lowpass_kernel):
        gram = build_gram(lowpass_kernel, 1.0, 3)
        with pytest.raises(ValueError):
            solve(gram, SampleSet(1.0, np.ones(5)))
        with pytest.raises(ValueError):
            solve(gram, SampleSet(0.9, np.ones(7)))
        with pytest.raises(ValueError):
            solve(gram, SampleSet(1.0, np.ones(7)), ridge_sigma2=-1.0)

    def test_nonfinite_ridge_rejected(self):
        kernel, samples = nyquist_setup()
        gram = build_gram(kernel, samples.spacing_T, samples.half_count_N)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge_sigma2"):
                solve(gram, samples, ridge_sigma2=bad)


class TestEvaluate:
    def test_node_exactness(self, lowpass_kernel, lowfreq_signal):
        T = 1.0 / B
        samples = sample_signal(lowfreq_signal, T, 10)
        interp = solve(build_gram(lowpass_kernel, T, 10), samples)
        values = evaluate(interp, samples.times)
        tol = 1e-9 * (1 + np.max(np.abs(samples.values)))
        assert np.max(np.abs(values - samples.values)) <= tol

    def test_single_sample_is_scaled_kernel(self, lowpass_kernel):
        from bandlim import psi_closed_form
        samples = SampleSet(0.8, np.array([2.0]))
        interp = solve(build_gram(lowpass_kernel, 0.8, 0), samples)
        t = np.linspace(-2, 2, 17)
        expected = 2.0 * psi_closed_form(lowpass_kernel, t) / lowpass_kernel.psi0
        np.testing.assert_allclose(evaluate(interp, t), expected, rtol=1e-12)

    def test_uniform_critical_equals_truncated_shannon(self):
        kernel, samples = nyquist_setup(T=0.4, N=8)
        interp = solve(build_gram(kernel, 0.4, 8), samples)
        t = np.linspace(-4, 4, 401)
        np.testing.assert_allclose(evaluate(interp, t),
                                   truncated_shannon(samples, t), atol=1e-8)

    def test_linearity(self, lowpass_kernel):
        rng = np.random.default_rng(5)
        T, N = 1.0 / B, 7
        gram = build_gram(lowpass_kernel, T, N)
        x = rng.standard_normal(2 * N + 1)
        y = rng.standard_normal(2 * N + 1)
        a, b = 1.7, -0.4
        t = np.linspace(-9, 9, 55)
        combo = evaluate(solve(gram, SampleSet(T, a * x + b * y)), t)
        parts = a * evaluate(solve(gram, SampleSet(T, x)), t) \
            + b * evaluate(solve(gram, SampleSet(T, y)), t)
        np.testing.assert_allclose(combo, parts, atol=1e-12)


class TestCardinal:
    def test_kronecker_property(self, lowpass_kernel, highpass_kernel):
        T, N = 1.0 / B, 10
        for kernel in (lowpass_kernel, highpass_kernel):
            gram = build_gram(kernel, T, N)
            for n in (-N, -3, 0, 5, N):
                vals = cardinal(gram, n, gram.times)
                expected = np.zeros(2 * N + 1)
                expected[n + N] = 1.0
                np.testing.assert_allclose(vals, expected, atol=1e-8)

    def test_uniform_critical_cardinals_are_sinc_shifts(self):
        T, N = 0.5, 6
        gram = build_gram(Kernel.uniform(1.0 / (2 * T)), T, N)
        t = np.linspace(-3, 3, 41)
        for n in (-2, 0, 3):
            np.testing.assert_allclose(cardinal(gram, n, t),
                                       np.sinc(t / T - n), atol=1e-12)

    def test_expansion_matches_evaluate(self, lowpass_kernel, lowfreq_signal):
        T, N = 2.0 / (3 * B), 8
        samples = sample_signal(lowfreq_signal, T, N)
        gram = build_gram(lowpass_kernel, T, N)
        interp = solve(gram, samples)
        t = np.linspace(-7, 7, 31)
        total = sum(samples.values[n + N] * cardinal(gram, n, t)
                    for n in range(-N, N + 1))
        np.testing.assert_allclose(total, evaluate(interp, t), atol=1e-10)

    def test_out_of_range_rejected(self, lowpass_kernel):
        gram = build_gram(lowpass_kernel, 1.0, 3)
        with pytest.raises(IndexError):
            cardinal(gram, 4, 0.0)

    def test_nyquist_limit_toward_sinc(self, lowpass_kernel):
        # at critical spacing the center cardinal approaches sinc(t/T) as the
        # sample count grows, for any admissible weights
        T = 1.0 / (2 * B)
        t = np.linspace(-2 * T, 2 * T, 161)
        deviations = []
        for N in (5, 10, 20, 40):
            gram = build_gram(lowpass_kernel, T, N)
            deviations.append(np.max(np.abs(cardinal(gram, 0, t) - np.sinc(t / T))))
        assert deviations == sorted(deviations, reverse=True)

    def test_center_coefficients_solve_kronecker_system(self, lowpass_kernel):
        T, N = 1.0 / B, 10
        gram = build_gram(lowpass_kernel, T, N)
        p0 = cardinal_coeffs(gram, 0)
        lhs = dense_gram(gram) @ p0
        expected = np.zeros(2 * N + 1)
        expected[N] = 1.0
        np.testing.assert_allclose(lhs, expected, atol=1e-10)


class TestTruncatedShannon:
    def test_node_reproduction(self):
        samples = SampleSet(0.7, np.array([3.0, -1.0, 2.0, 0.5, 1.0]))
        np.testing.assert_allclose(truncated_shannon(samples, samples.times),
                                   samples.values, atol=1e-14)

    def test_all_ones_half_sample_matches_direct_sum(self):
        N, T = 9, 1.0
        samples = SampleSet(T, np.ones(2 * N + 1))
        direct = sum(np.sinc(0.5 - n) for n in range(-N, N + 1))
        assert float(truncated_shannon(samples, T / 2)) == pytest.approx(
            direct, rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [np.nan, np.inf, [0.1, np.nan, 0.2], [[0.0], [-np.inf]],
                                   [0.1, 1e308], -1e308])
    def test_non_finite_times_rejected(self, t):
        # NaN came out here once, with a RuntimeWarning from sin, and at 1e308,
        # where t / T overflows
        samples = SampleSet(0.5, np.ones(5))
        with pytest.raises(ValueError, match="evaluation times must be finite"):
            truncated_shannon(samples, t)

    @pytest.mark.parametrize("T", [1e-300, 1e300, 1e308])
    def test_extreme_spacing(self, T):
        # the sinc kernel's level is T: its psi once read inf at T = 1e308,
        # where 2 T overflows, and at 1.7 T the lattice tolerance of
        # max|t| + T overflowed (an IndexError)
        samples = SampleSet(T, np.array([1.0]))
        np.testing.assert_allclose(truncated_shannon(samples, [0.0, 0.3 * T, -1.7 * T]),
                                   np.sinc([0.0, 0.3, -1.7]), rtol=1e-14)

    @pytest.mark.parametrize("lattice", [True, False])
    @pytest.mark.parametrize("N", [10, 20])
    def test_sinc_walk_is_block_invariant(self, monkeypatch, lattice, N):
        # truncated sinc is the expansion of `_sinc_kernel` through the walk
        # of `evaluate`: on counts that straddle one and two default blocks,
        # its values are bitwise those of blocks of one row and of one block
        # (a lattice grid takes the windows of its runs in each), and off the
        # lattice those of one point at a time; on it, one point at a time
        # takes direct rows, within the lattice tolerance of each row
        T = 0.7
        nodes = np.arange(-N, N + 1)
        per_block = interpolate_module._PRODUCT_ENTRIES // nodes.size
        for count in (per_block - 1, per_block, per_block + 1, 2 * per_block + 1):
            rng = np.random.default_rng(count + N)
            samples = SampleSet(T, rng.standard_normal(nodes.size))
            t = ((np.arange(count) - count // 3) * (T / 8) if lattice
                 else rng.uniform(-(N + 2) * T, (N + 2) * T, count))
            x = truncated_shannon(samples, t)
            for entries in (1, 1 << 30):
                with monkeypatch.context() as blocks:
                    blocks.setattr(interpolate_module, "_PRODUCT_ENTRIES", entries)
                    assert truncated_shannon(samples, t).tobytes() == x.tobytes()
            one_at_a_time = np.array([truncated_shannon(samples, tj) for tj in t])
            scale = np.sum(np.abs(samples.values))
            if lattice:
                kernel = interpolate_module._sinc_kernel(T)
                atol = lattice_tolerance(kernel, t, T, N) * scale
                assert np.max(np.abs(one_at_a_time - x)) <= atol
            else:
                assert one_at_a_time.tobytes() == x.tobytes()
            reference = np.sinc(t[:, None] / T - nodes) @ samples.values
            atol = SINC_ULPS * np.finfo(float).eps * scale * (
                1.0 + np.pi * (np.max(np.abs(t)) / T + N))
            assert np.max(np.abs(x - reference)) <= atol


# The tolerance of truncated sinc against ``np.sinc(t/T - n) @ x``, in ulps
# of sum|x| times 1 + pi max|t/T - n|: psi(t - nT) rounds its argument
# differently from t/T - n, by a few ulps of the largest argument, which
# |sinc'| <= pi turns into ulps of the value, and its level 2 T B is 1 to an
# ulp. (The largest deviation was 0.05 units on the cases of
# `test_sinc_walk_is_block_invariant`, and 0.32 over 300 random cases with
# T in (0.01, 10), N up to 40, random and lattice points.)
SINC_ULPS = 4.0


class TestWeightedNorm:
    def test_identity_against_quadrature(self, lowpass_spec, lowpass_kernel):
        # |xhat|_W^2 = c^T R c must equal the band integral of
        # |sum c_n e^{-j om n T}|^2 G(om) / 2pi
        T, N = 1.0 / B, 3
        rng = np.random.default_rng(17)
        samples = SampleSet(T, rng.standard_normal(2 * N + 1))
        gram = build_gram(lowpass_kernel, T, N)
        interp = solve(gram, samples)
        c = interp.coeffs_c
        n = np.arange(-N, N + 1)

        def integrand(om):
            phases = np.exp(-1j * np.outer(om, n) * T) @ c
            return np.abs(phases) ** 2 * inverse_weight_eval(lowpass_spec, om)

        # stop a sliver inside the band edge, where the rectangle term of the
        # reciprocal weight jumps to zero and would stall the refinement
        edge = 2 * np.pi * B * (1 - 1e-12)
        knots = np.linspace(0.0, edge, 160)
        integral = adaptive_simpson(lambda om: integrand(om).real,
                                    0.0, edge, tolerance=1e-10,
                                    breakpoints=knots) / np.pi
        assert wnorm_sq(interp) == pytest.approx(integral, rel=1e-7)

    def test_nonnegative(self, lowpass_kernel):
        rng = np.random.default_rng(23)
        gram = build_gram(lowpass_kernel, 1.0 / B, 5)
        for _ in range(5):
            samples = SampleSet(1.0 / B, rng.standard_normal(11))
            assert wnorm_sq(solve(gram, samples)) >= 0.0


class TestRidge:
    def test_coefficient_norm_nonincreasing_and_residual_growing(
            self, lowpass_kernel, lowfreq_signal):
        T, N = 1.0 / B, 10
        samples = sample_signal(lowfreq_signal, T, N)
        gram = build_gram(lowpass_kernel, T, N)
        norms, residuals = [], []
        for sigma2 in (0.0, 1e-4, 1e-2, 1.0):
            interp = solve(gram, samples, sigma2)
            norms.append(np.linalg.norm(interp.coeffs_c))
            resid = evaluate(interp, samples.times) - samples.values
            residuals.append(np.linalg.norm(resid))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        assert all(a < b for a, b in zip(residuals, residuals[1:]))


# --- kernel matrices from residue classes of t mod T -------------------------
#
# The kernel rows of `_kernel_rows`, read as one block that spans every point
# (`conftest.kernel_rows`), against the dense reference
# psi(t[..., None] - nodes). Off the lattice they must take that very path
# (bit-identical). On it, each entry is checked to
# `conftest.lattice_tolerance`.


@contextmanager
def counted_psi():
    """Count the psi entries evaluated meanwhile."""
    counts = []

    def counting(kernel, t):
        counts.append(np.size(t))
        return psi_closed_form(kernel, t)

    with patch.object(interpolate_module, "psi_closed_form", counting):
        yield counts


@st.composite
def matrix_kernels(draw):
    """A spec, grid or uniform kernel at bandwidth 0.5, 1 or 2."""
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["spec", "grid", "uniform"]))
    if kind == "spec":
        return Kernel.from_spec(random_weight_spec(seed))
    B = draw(st.sampled_from([0.5, 1.0, 2.0]))
    if kind == "uniform":
        return Kernel.uniform(B)
    return grid_kernel(seed, B)


@st.composite
def lattice_cases(draw):
    """Kernel, T, N and a grid of step h with T/h = 40, 10 or 80/3 (as arange
    or linspace), with some residue class holding two points or more, possibly
    reshaped to 2-d and possibly with off-lattice points mixed in."""
    kernel = draw(matrix_kernels())
    B = kernel.bandwidth_B
    T = draw(st.sampled_from([0.5, 0.75, 1.0])) / (2.0 * B)
    N = draw(st.integers(0, 10))
    classes, periods = draw(st.sampled_from([(40, 1), (10, 1), (80, 3)]))
    h = T * periods / classes
    count = draw(st.integers(classes + 2, 240))
    start = draw(st.integers(-2 * count, count))
    if draw(st.booleans()):
        t = np.arange(start, start + count) * h
    else:
        t = np.linspace(start * h, (start + count - 1) * h, count)
    # points one ulp either side of the multiples of T the grid holds
    multiples = [k * periods // classes for k in range(start, start + count)
                 if k % classes == 0]
    extras = [np.nextafter(m * T, draw(st.sampled_from([-np.inf, np.inf])))
              for m in draw(st.lists(st.sampled_from(multiples), max_size=3))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extras += list(rng.uniform(-20.0, 20.0, draw(st.integers(0, 3))))
    t = np.concatenate([t, extras])
    if draw(st.booleans()) and t.size % 2 == 0:
        t = t.reshape(2, -1)
    return kernel, T, N, t


off_lattice_times = arrays(float, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=12),
                           elements=st.floats(-30.0, 30.0))


@settings(max_examples=60, deadline=None)
@given(lattice_cases())
@example((Kernel.uniform(1.0), 1.0, 3,
          np.concatenate([np.arange(-100, 100) * 0.025,
                          [np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0),
                           np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0)]])))
def test_kernel_matrix_on_lattice(case):
    kernel, T, N, t = case
    gram = build_gram(kernel, T, N)
    with counted_psi() as counts:
        value = kernel_rows(gram, t)
    assert value.shape == t.shape + (2 * N + 1,)
    # A class of n points whose m spans s saves (n - 1)(2N + 1) - s values;
    # s <= 3(n - 1) on the grid, the points next to its multiples of T only
    # add to its class of residue 0 and random points are classes of their
    # own, so from N = 2 on the tables are always smaller.
    if N >= 2:
        assert sum(counts) < value.size
    dense = dense_kernel_matrix(kernel, t, T, N)
    np.testing.assert_allclose(value, dense, rtol=0,
                               atol=lattice_tolerance(kernel, t, T, N))


@settings(max_examples=60, deadline=None)
@given(matrix_kernels(), st.sampled_from([0.3, 0.5, 1.0]), st.integers(0, 10),
       off_lattice_times)
@example(Kernel.uniform(1.0), 0.5, 2, np.array(0.25))
@example(Kernel.uniform(1.0), 0.5, 2, np.zeros((0, 4)))
def test_kernel_matrix_off_lattice_is_direct(kernel, T, N, t):
    # Points that (almost surely) share no residue take the direct path.
    if t.size > 1:
        r = np.sort(np.mod(t.ravel(), T))
        assume(np.all(np.diff(r) > 1e-9) and r[-1] - r[0] < T - 1e-9)
    value = kernel_rows(build_gram(kernel, T, N), t)
    assert value.shape == t.shape + (2 * N + 1,)
    np.testing.assert_array_equal(value, dense_kernel_matrix(kernel, t, T, N))


@pytest.mark.parametrize("lattice", [True, False])
@pytest.mark.parametrize("shape", [(1,), (127,), (128,), (129,), (256,), (2, 300), (385,)])
def test_blocked_products_are_bitwise_the_matrix_product(lowpass_kernel, monkeypatch,
                                                         lattice, shape):
    # blocks of one row, the least `_kernel_product` takes, against the dot
    # of each row of one block that spans every point, and against the ravel
    # of t in blocks of the default size, for a spec and a density-grid
    # kernel: a density grid's psi sums its pieces row by row too
    T, N = 0.75, 10
    size = int(np.prod(shape))
    for kernel in (lowpass_kernel, grid_kernel(5, B)):
        rng = np.random.default_rng(size)
        t = (np.arange(size) - size // 3) * (T / 8) if lattice else rng.uniform(-20.0, 20.0, size)
        t = t.reshape(shape)
        samples = SampleSet(T, rng.standard_normal(2 * N + 1))
        gram = build_gram(kernel, T, N)
        interp = solve(gram, samples)
        with counted_psi() as counts:
            matrix = kernel_rows(gram, t)
        # the lattice cases evaluate fewer psi than the matrix holds, the others all
        assert (sum(counts) < matrix.size) == (lattice and size > 1)
        uses = ((lambda x: evaluate(interp, x), interp.coeffs_c),
                (lambda x: cardinal(gram, 3, x), cardinal_coeffs(gram, 3)))
        flat_values = [use(t.ravel()) for use, _ in uses]
        with monkeypatch.context() as one_row:
            one_row.setattr(interpolate_module, "_PRODUCT_ENTRIES", 1)
            for (use, c), flat_value in zip(uses, flat_values):
                value = use(t)
                assert value.shape == shape
                assert value.tobytes() == np.vecdot(matrix, c).tobytes()
                assert value.tobytes() == flat_value.tobytes()


TIME_USES = {
    "evaluate": lambda interp, t: evaluate(interp, t),
    "cardinal": lambda interp, t: cardinal(interp.gram, 0, t),
    "power_function": lambda interp, t: power_function(interp.gram, t),
    "cardinal_values": lambda interp, t: _cardinal_values(interp.gram, t),
}


@pytest.mark.parametrize("use", sorted(TIME_USES))
@pytest.mark.parametrize("t", [np.nan, [0.25, np.inf], [[0.0, 0.5], [-np.inf, 1.0]],
                               np.append(np.arange(-20, 21) * 0.25, np.nan),
                               [1e308, 0.5], np.append(np.arange(-20, 21) * 0.25, -1e308)])
def test_non_finite_times_rejected_before_psi(lowpass_kernel, use, t):
    # one check in `_kernel_rows`, ahead of the lattice test; evaluate and
    # cardinal once returned NaN here, and at 1e308, where psi's arguments
    # overflow
    _, samples = nyquist_setup()
    interp = solve(build_gram(lowpass_kernel, samples.spacing_T, samples.half_count_N),
                   samples)
    with counted_psi() as counts, \
            pytest.raises(ValueError, match="evaluation times must be finite"):
        TIME_USES[use](interp, t)
    assert counts == []


def unpaired_runs(k, periods, classes, N):
    """Run lengths that one run per residue class of t mod T needs, with no
    pairing of r and T - r, for the points t = k h with h = T periods / classes
    (k integral): class c holds the k with k periods = m classes + c."""
    m, c = np.divmod(k * periods, classes)
    return np.array([np.ptp(m[c == cls]) + 2 * N + 1 for cls in np.unique(c)])


@settings(max_examples=60, deadline=None)
@given(matrix_kernels(), st.sampled_from([0.5, 0.75, 1.0]), st.integers(0, 10),
       st.sampled_from([(40, 1), (10, 1), (80, 3)]), st.integers(1, 300))
@example(Kernel.uniform(1.0), 1.0, 1000, (40, 1), 340)
def test_kernel_matrix_pairs_residues_on_symmetric_grids(kernel, ratio, N, lattice, G):
    # The classes of r and T - r mirror each other and share one run; those of
    # 0 and T/2 pair with themselves, and cost one run more than half at most.
    classes, periods = lattice
    T = ratio / (2.0 * kernel.bandwidth_B)
    k = np.arange(-G, G + 1)
    t = k * (T * periods / classes)
    gram = build_gram(kernel, T, N)
    with counted_psi() as counts:
        value = kernel_rows(gram, t)
    runs = unpaired_runs(k, periods, classes, N)
    assert sum(counts) <= np.sum(runs) / 2 + np.max(runs)
    dense = dense_kernel_matrix(kernel, t, T, N)
    np.testing.assert_allclose(value, dense, rtol=0,
                               atol=lattice_tolerance(kernel, t, T, N))


def one_sided_grid(kernel, ratio, lattice, count, periods_out, negative):
    """T and the points k h, h = T periods / classes, for ``count`` steps k
    from ``periods_out`` periods of the lattice on, negated if ``negative``."""
    classes, periods = lattice
    T = ratio / (2.0 * kernel.bandwidth_B)
    k = periods_out * classes + np.arange(count)
    if negative:
        k = -k
    return T, k, k * (T * periods / classes)


# A grid kernel about 142 periods from 0, where max|psi| over the window is
# 8.3e-4 against psi0 = 1.51: one lattice entry was 3.6e-16 off the direct
# one, past the 3.4e-16 that a tolerance scaled by max|psi| allowed.
FAR_GRID_DRAW = (grid_kernel(9890, 0.5), 0.5, 1, (40, 1), 41, 142, False)


@settings(max_examples=60, deadline=None)
@given(matrix_kernels(), st.sampled_from([0.5, 0.75, 1.0]), st.integers(0, 3),
       st.sampled_from([(40, 1), (10, 1), (80, 3)]), st.integers(2, 300),
       st.integers(0, 400), st.booleans())
@example(Kernel.uniform(1.0), 1.0, 1, (40, 1), 200, 50, False)
@example(*FAR_GRID_DRAW)
def test_kernel_matrix_one_sided_grid_costs_no_more(kernel, ratio, N, lattice, count,
                                                   periods_out, negative):
    # Far from 0 the flipped points of a class lie far from its others in m
    # and keep a run of their own, so no more psi is evaluated than one run
    # per residue class, or than the direct path, would take.
    T, k, t = one_sided_grid(kernel, ratio, lattice, count, periods_out, negative)
    gram = build_gram(kernel, T, N)
    with counted_psi() as counts:
        value = kernel_rows(gram, t)
    classes, periods = lattice
    assert sum(counts) <= min(np.sum(unpaired_runs(k, periods, classes, N)),
                              value.size)
    dense = dense_kernel_matrix(kernel, t, T, N)
    np.testing.assert_allclose(value, dense, rtol=0,
                               atol=lattice_tolerance(kernel, t, T, N))


def test_far_grid_kernel_entries_match_fifty_digits():
    # Both paths of `FAR_GRID_DRAW` against the exact transform of the same
    # density: each is within 8 ulps of psi0, which is `lattice_tolerance`
    # without its slope allowance. Both read 3.4e-16, about 1 ulp of psi0 and
    # as much as the whole bound that max|psi| set.
    kernel, ratio, N, lattice, count, periods_out, negative = FAR_GRID_DRAW
    T, _, t = one_sided_grid(kernel, ratio, lattice, count, periods_out, negative)
    exact = grid_kernel_reference(kernel, t, T, N)
    atol = TOL_ULPS * np.finfo(float).eps * kernel.psi0
    for value in (kernel_rows(build_gram(kernel, T, N), t),
                  dense_kernel_matrix(kernel, t, T, N)):
        np.testing.assert_allclose(value, exact, rtol=0, atol=atol)


@pytest.mark.parametrize("kernel", [Kernel.uniform(1.0),
                                    Kernel.from_spec(random_weight_spec(3))],
                         ids=["uniform", "spec"])
@pytest.mark.parametrize("t_over_T", [np.array(0.3), np.array([0.0, 0.4, -1.7, 25.0]),
                                      np.arange(-40, 41).reshape(3, 27) / 8.0])
def test_power_function_and_cardinal_values_at_N0(kernel, t_over_T):
    # one node: R = [psi0], u = psi(t) / psi0 and P^2 = psi0 - psi(t)^2 / psi0
    T = 0.7 / (2.0 * kernel.bandwidth_B)
    t = t_over_T * T
    gram = build_gram(kernel, T, 0)
    psi0, v = kernel.psi0, np.asarray(psi_closed_form(kernel, t))
    u = _cardinal_values(gram, t)
    assert u.shape == (1,) + t.shape
    eps = np.finfo(float).eps
    np.testing.assert_allclose(u[0], v / psi0, rtol=0,
                               atol=4.0 * eps * np.max(np.abs(v)) / psi0)
    p = power_function(gram, t)
    assert p.shape == np.atleast_1d(t).shape
    np.testing.assert_allclose(p ** 2, np.atleast_1d(psi0 - v * v / psi0), rtol=0,
                               atol=16.0 * eps * psi0)


@settings(max_examples=30, deadline=None)
@given(lattice_cases(), st.integers(0, 2**32 - 1))
def test_expansions_match_dense_reference(case, seed):
    kernel, T, N, t = case
    gram = build_gram(kernel, T, N)
    R = dense_gram(gram)
    # the Cholesky-based estimate can read far below the true condition number
    assume(np.linalg.cond(R) < 1e8)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(gram.size)
    interp = solve(gram, SampleSet(T, x))
    dense = dense_kernel_matrix(kernel, t, T, N)
    tol = lattice_tolerance(kernel, t, T, N)

    values = evaluate(interp, t)
    assert values.dtype == float and values.shape == t.shape
    np.testing.assert_allclose(values, dense @ interp.coeffs_c, rtol=0,
                               atol=tol * np.sum(np.abs(interp.coeffs_c)))

    p0 = cardinal_coeffs(gram, 0)
    np.testing.assert_allclose(cardinal(gram, 0, t), dense @ p0, rtol=0,
                               atol=tol * np.sum(np.abs(p0)))

    p2, atol = dense_power_sq(kernel, R, dense, tol)
    np.testing.assert_allclose(power_function(gram, t.ravel()) ** 2, p2, rtol=0, atol=atol)


def test_power_function_at_split_size_matches_dense_form(lowpass_kernel):
    # N = 300 with a grid of step T/8 over +-40 T: the factors and both
    # stages pass `_parallel._MIN_SPLIT_FLOPS`, so with the BLAS on one thread
    # and two CPUs or more the odd halves run in a worker thread
    T, N = 1.2 / (2.0 * B), 300
    t = np.arange(-320, 321) * (T / 8)
    gram = build_gram(lowpass_kernel, T, N)
    dense = dense_kernel_matrix(lowpass_kernel, t, T, N)
    p2, atol = dense_power_sq(lowpass_kernel, dense_gram(gram), dense,
                              lattice_tolerance(lowpass_kernel, t, T, N))
    np.testing.assert_allclose(power_function(gram, t) ** 2, p2, rtol=0, atol=atol)


@st.composite
def near_node_cases(draw):
    """Kernel, T at or below the Nyquist rate (T 2B in [1, 2]), N <= 40, and
    points of four kinds, shuffled: exact nodes nT, points within 1e-7 T of
    nodes, points 1e-7 T to 1e-3 T from nodes (where P^2 crosses the gate of
    `power_function`) and off-lattice points, each kind maybe absent."""
    kernel = draw(matrix_kernels())
    T = draw(st.floats(1.0, 2.0)) / (2.0 * kernel.bandwidth_B)
    N = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exact, close, crossing, off = (draw(st.integers(0, 6)) for _ in range(4))

    def near(count, lo, hi):
        # nodes moved by a log-uniform 10^lo..10^hi of T, either way
        offsets = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(lo, hi, count)
        return (rng.integers(-N, N + 1, count) + offsets) * T

    t = np.concatenate([rng.integers(-N, N + 1, exact) * T, near(close, -16, -7),
                        near(crossing, -7, -3),
                        rng.uniform(-(N + 2) * T, (N + 2) * T, off)])
    assume(t.size > 0)
    return kernel, T, N, rng.permutation(t)


@settings(max_examples=60, deadline=None)
@given(near_node_cases())
def test_power_function_gate_matches_dense_second_order_form(case):
    # The Schur form away from the nodes and the second-order completion near
    # them both agree with the dense second-order P^2
    kernel, T, N, t = case
    gram = build_gram(kernel, T, N)
    R = dense_gram(gram)
    assume(np.linalg.cond(R) < 1e8)
    dense = dense_kernel_matrix(kernel, t, T, N)
    p2, atol = dense_power_sq(kernel, R, dense, lattice_tolerance(kernel, t, T, N))
    np.testing.assert_allclose(power_function(gram, t) ** 2, p2, rtol=0, atol=atol)


@st.composite
def direct_cases(draw):
    """Kernel, T, N <= 12 and 1 to 60 uniform random points, which (almost
    surely) share no residue of t mod T and so take direct psi rows."""
    kernel = draw(matrix_kernels())
    T = draw(st.sampled_from([0.5, 0.75, 1.0])) / (2.0 * kernel.bandwidth_B)
    N = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return kernel, T, N, rng.uniform(-(N + 2) * T, (N + 2) * T, draw(st.integers(1, 60)))


# The deviation allowed between `_cardinal_values` in blocks of a few rows and
# in one block, in units of eps max|u| over the nodes of each point. A
# right-side triangular solve need not round a row alike wherever it falls
# in a block; over 1200 random cases of 2 to 7 rows a block, on OpenBLAS
# 0.3.31 (Haswell kernels) with one or two threads, no entry moved at all.
BLOCK_CARDINAL_ULPS = 4.0


@settings(max_examples=60, deadline=None)
@given(st.one_of(lattice_cases(), near_node_cases(), direct_cases()), st.integers(2, 7))
def test_row_blocks_match_one_block(case, rows):
    # Blocks of a few rows, so that most calls end in a remainder, against one
    # block that spans every point: P bitwise, the points near the nodes
    # finished together after the walk, and the cardinal values within
    # `BLOCK_CARDINAL_ULPS`
    kernel, T, N, t = case
    gram = build_gram(kernel, T, N)
    assume(np.linalg.cond(dense_gram(gram)) < 1e8)
    values = []
    for block_rows in (rows, 1 << 30):
        with patch.object(interpolate_module, "_BLOCK_ROWS", block_rows):
            values.append((power_function(gram, t), _cardinal_values(gram, t)))
    (p, u), (p_one, u_one) = values
    assert p.tobytes() == p_one.tobytes()
    atol = BLOCK_CARDINAL_ULPS * np.finfo(float).eps * np.max(np.abs(u_one), axis=0)
    assert np.all(np.abs(u - u_one) <= atol)


# --- the even and odd halves against a dense solve ---------------------------
#
# `solve`, `cardinal_coeffs` and `_cardinal_values` fold every right-hand side
# into the even and odd halves of R and solve there; the reference solves with
# R itself. Both carry errors of order cond eps relative to the largest entry
# of the solution. (Over 2000 random cases the largest deviation was 2.5 of
# these units.)

HALVES_TOL_UNITS = 16.0


@settings(max_examples=60, deadline=None)
@given(matrix_kernels(), st.sampled_from([0.5, 0.75, 1.0, 1.3]), st.integers(0, 12),
       st.sampled_from([0.0, 1e-6, 1e-2]), st.integers(0, 2**32 - 1))
@example(Kernel.uniform(1.0), 0.75, 0, 0.0, 0)
@example(Kernel.uniform(1.0), 0.75, 0, 1e-2, 1)
def test_halves_match_dense_solve(kernel, ratio, N, sigma2, seed):
    # N = 0 leaves the odd half empty
    T = ratio / (2.0 * kernel.bandwidth_B)
    gram = build_gram(kernel, T, N)
    R = dense_gram(gram)
    cond = np.linalg.cond(R)
    assume(cond < 1e8)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(gram.size)
    t = rng.uniform(-(N + 2) * T, (N + 2) * T, (2, 3))

    def check(value, reference, matrix_cond):
        units = np.finfo(float).eps * matrix_cond * np.max(np.abs(reference))
        np.testing.assert_allclose(value, reference, rtol=0,
                                   atol=HALVES_TOL_UNITS * units)

    ridged = R + sigma2 * np.eye(gram.size)
    check(solve(gram, SampleSet(T, x), sigma2).coeffs_c,
          dense_solve(ridged, x, assume_a="pos"), np.linalg.cond(ridged))
    check(np.array([cardinal_coeffs(gram, n) for n in range(-N, N + 1)]),
          dense_solve(R, np.eye(gram.size), assume_a="pos"), cond)
    v = np.moveaxis(kernel_rows(gram, t), -1, 0)
    check(_cardinal_values(gram, t),
          dense_solve(R, v.reshape(gram.size, -1),
                      assume_a="pos").reshape(v.shape), cond)


# --- the halves straight from the generator ----------------------------------


def halves_of_dense(r):
    """E and O read off the full Toeplitz matrix of r: the reference for `_fill_half`."""
    dense = toeplitz(r)
    N = dense.shape[0] // 2
    even = dense[N:, N:] + dense[N:, N::-1]
    even[0, 1:] *= np.sqrt(0.5)
    even[1:, 0] *= np.sqrt(0.5)
    even[0, 0] = dense[N, N]
    odd = dense[N + 1:, N + 1:] - dense[N + 1:, :N][:, ::-1]
    return even, odd


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda N: arrays(
    float, 2 * N + 1, elements=st.floats(-1e3, 1e3, allow_subnormal=False))))
@example(np.array([2.0]))
@example(np.array([2.0, -0.5, 0.25]))
def test_halves_match_toeplitz(r):
    # N = 0 leaves the odd half empty, and N = 1 makes it 1 x 1
    N = r.size // 2
    even, odd = np.full((N + 1, N + 1), np.nan), np.full((N, N), np.nan)
    _fill_half(r, 0, even)
    _fill_half(r, 1, odd)
    ref_even, ref_odd = halves_of_dense(r)
    assert even.shape == ref_even.shape and odd.shape == ref_odd.shape
    assert even.tobytes() == ref_even.tobytes() and odd.tobytes() == ref_odd.tobytes()
    # R = unfold(diag(E, O) fold(I)), each entry a sum of at most two terms
    fold_even, fold_odd = _fold(np.eye(r.size))
    np.testing.assert_allclose(_unfold(even @ fold_even, odd @ fold_odd), toeplitz(r),
                               rtol=0, atol=4.0 * np.finfo(float).eps * np.max(np.abs(r)))


@settings(max_examples=40, deadline=None)
@given(matrix_kernels(), st.sampled_from([0.5, 0.75, 1.0, 1.3]), st.integers(0, 12))
@example(Kernel.uniform(1.0), 1.0, 0)
def test_factors_keep_the_upper_triangle_of_their_blocks(kernel, ratio, N):
    # each half is filled into its factor's storage and factored in place, so
    # a block refilled from the first row is the strict upper triangle left
    # there, bitwise
    gram = build_gram(kernel, ratio / (2.0 * kernel.bandwidth_B), N)
    assume(gram.cholesky is not None)
    for h, chol in enumerate(gram.cholesky):
        assert not chol.flags.writeable and chol.flags.f_contiguous
        block = _block(gram.first_row, h)
        assert np.triu(block, 1).tobytes() == np.triu(chol, 1).tobytes()

import tracemalloc
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bandlim import (AnalyticSignal, InfeasibleBallError, Kernel, NotPositiveDefiniteError,
                     SampleSet, build_gram, evaluate, eval_signal, minimax_worstcase,
                     power_function, psi_closed_form, sample_signal,
                     sinc_partition_check, solve, truncated_shannon,
                     weighted_pointwise_bound, wnorm_sq)
from bandlim import _lapack, interpolate
from bandlim.interpolate import _cardinal_values
from conftest import (classical_bound, dense_gram, dense_kernel_matrix, dense_power_sq,
                      flat_gram_reference, grid_kernel, kernel_rows, lattice_tolerance,
                      random_weight_spec)

B = 1.0
EPS = np.finfo(float).eps

# Flat kernel 2B sinc(2Bt) at B = 1, keyed by (N, T*2B): the largest P^2
# error allowed against the 50-digit reference on `oracle_times`, in units of
# cond * eps * psi0, with cond the 2-norm condition number of R. Each is twice
# the error measured when P was still solved once per point, not per distinct
# |t| (2.99e-2, 6.36e-6, 8.41e-8, 1.78e-9 and 1.13e-6 at cond 71, 3.7e7,
# 6.8e10, 4.0e12 and 1.7e9); the factor 2 leaves room for another libm or BLAS.
ORACLE_CASES = {
    (10, 0.9): 6.0e-2,
    (10, 0.7): 1.3e-5,
    (10, 0.6): 1.7e-7,
    (10, 0.55): 3.6e-9,
    (12, 0.7): 2.3e-6,
}
# The same cases for `solve` and `wnorm_sq` on `oracle_samples`: the largest
# error allowed in c, in units of cond * eps * max|c|, and in c.R c, in units
# of cond * eps * c.R c. Each is twice the error measured on the even and odd
# halves (c: 0.139, 0.544, 0.573, 0.0438 and 0.482; c.R c: 0.517, 0.849,
# 0.363, 0.0268 and 0.606, in the order of the keys).
SOLVE_CASES = {
    (10, 0.9): (2.8e-1, 1.1),
    (10, 0.7): (1.1, 1.7),
    (10, 0.6): (1.2, 7.3e-1),
    (10, 0.55): (8.8e-2, 5.4e-2),
    (12, 0.7): (9.7e-1, 1.3),
}


def make_interp(kernel, signal, T, N):
    samples = sample_signal(signal, T, N)
    return solve(build_gram(kernel, T, N), samples), samples


class TestPowerFunction:
    def test_zero_at_nodes(self, lowpass_kernel):
        gram = build_gram(lowpass_kernel, 1.0 / B, 10)
        assert np.max(power_function(gram, gram.times)) < 1e-6

    def test_nonnegative(self, highpass_kernel):
        gram = build_gram(highpass_kernel, 2.0 / (3 * B), 8)
        t = np.linspace(-12, 12, 301)
        assert np.all(power_function(gram, t) >= 0.0)

    def test_shape_follows_t(self, lowpass_kernel):
        gram = build_gram(lowpass_kernel, 1.0 / B, 6)
        t = np.linspace(-3.3, 2.9, 6)
        grid = t.reshape(2, 3)
        np.testing.assert_array_equal(power_function(gram, grid),
                                      power_function(gram, t).reshape(2, 3))
        assert power_function(gram, 0.25).shape == (1,)
        assert power_function(gram, []).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, lowpass_kernel, bad):
        # the solves skip scipy's finiteness scan, so the times are checked first
        gram = build_gram(lowpass_kernel, 1.0 / B, 6)
        with pytest.raises(ValueError, match="evaluation times must be finite"):
            power_function(gram, [0.25, bad])

    def test_uniform_critical_matches_sinc_formula(self):
        # substituting sinc cardinals gives P = sqrt((1 - sum sinc^2)/T)
        T, N = 0.5, 7
        gram = build_gram(Kernel.uniform(1.0 / (2 * T)), T, N)
        t = np.linspace(-4, 4, 101)
        ssum = np.sum(np.sinc(t[:, None] / T - np.arange(-N, N + 1)) ** 2, axis=1)
        expected = np.sqrt(np.maximum(1.0 - ssum, 0.0) / T)
        np.testing.assert_allclose(power_function(gram, t), expected, atol=1e-9)

    def test_monotone_decrease_with_more_samples(self, lowpass_kernel):
        # monotonicity is checked on P^2: at the nodes both values are true
        # zeros, and sqrt amplifies their roundoff past any fixed tolerance
        T = 1.0 / B
        t = np.linspace(-3, 3, 41)
        psi0 = lowpass_kernel.psi0
        previous = None
        for N in (4, 6, 9):
            p2 = power_function(build_gram(lowpass_kernel, T, N), t) ** 2
            if previous is not None:
                assert np.all(p2 <= previous + 1e-12 * max(1.0, psi0))
            previous = p2


@contextmanager
def counted_solves():
    """Record (trans, rows) of each `_lapack.dtrsm` call."""
    solved = []
    dtrsm = _lapack.dtrsm

    def counting(chol, b, trans):
        solved.append((int(trans), b.shape[0]))
        dtrsm(chol, b, trans)

    with patch.object(_lapack, "dtrsm", counting):
        yield solved


def test_node_rows_reach_neither_stage(lowpass_kernel):
    # A dense_grid-shaped lattice: N = 60 and step T/40 over [-8.5, 8.5], so
    # 341 distinct |t|, 9 of them nodes. Each half solves the 332 others by
    # L^T (the Schur form); none of them is near enough to a node to fall
    # below the gate, so no row is solved by L (the second-order form).
    T, N = 1.0 / B, 60
    gram = build_gram(lowpass_kernel, T, N)
    t = np.arange(-340, 341) * (T / 40)
    with counted_solves() as solved:
        power_function(gram, t)
    assert sorted(solved) == [(1, 332), (1, 332)]


# Kernels and T 2B for the node rule: a spec kernel, the flat kernel at and
# below the critical sampling rate, and a tabulated-density kernel
NODE_KERNELS = {
    "spec": (Kernel.from_spec(random_weight_spec(3)), 1.2),
    "flat-critical": (Kernel.uniform(B), 1.0),
    "flat-below-critical": (Kernel.uniform(B), 1.5),
    "grid": (grid_kernel(5, B), 1.2),
}


def node_gram(name, N=12):
    kernel, ratio = NODE_KERNELS[name]
    return build_gram(kernel, ratio / (2.0 * kernel.bandwidth_B), N)


@pytest.mark.parametrize("name", sorted(NODE_KERNELS))
def test_power_is_bitwise_zero_at_every_node(name):
    gram = node_gram(name)
    nodes, T = gram.times, gram.spacing_T
    off = np.random.default_rng(2).uniform(-12.5, 12.5, 20) * T
    p = power_function(gram, np.concatenate([off, nodes]))
    assert p[off.size:].tobytes() == np.zeros(nodes.size).tobytes()
    assert np.all(p[:off.size] > 0.0)
    grid = nodes.reshape(5, 5)
    assert power_function(gram, grid).tobytes() == np.zeros((5, 5)).tobytes()


def test_bound_is_zero_at_the_nodes(lowpass_kernel, lowfreq_signal):
    interp, _ = make_interp(lowpass_kernel, lowfreq_signal, 1.0 / B, 8)
    D = 2.0 * np.sqrt(wnorm_sq(interp))
    t = np.linspace(-8, 8, 161)
    at = np.isin(t, interp.gram.times)
    assert np.count_nonzero(at) == 17
    report = weighted_pointwise_bound(interp, D, t)
    assert report.bound_values[at].tobytes() == np.zeros(17).tobytes()
    assert np.all(report.bound_values[~at] > 0.0)


@pytest.mark.parametrize("name", sorted(NODE_KERNELS))
def test_one_ulp_from_a_node_takes_the_second_order_form(name):
    # np.nextafter moves each node one ulp away from 0 (0 itself to the
    # smallest subnormal); no such point is a node, and each falls below the
    # gate, so each half solves every row by L^T and then by L
    gram = node_gram(name)
    kernel, T, N = gram.kernel, gram.spacing_T, gram.half_count_N
    nodes = gram.times[N:]
    t = np.nextafter(nodes, np.inf)
    with counted_solves() as solved:
        p = power_function(gram, t)
    assert sorted(solved) == [(0, N + 1), (0, N + 1), (1, N + 1), (1, N + 1)]
    p2, atol = dense_power_sq(kernel, dense_gram(gram), dense_kernel_matrix(kernel, t, T, N),
                              lattice_tolerance(kernel, t, T, N))
    np.testing.assert_allclose(p ** 2, p2, rtol=0, atol=atol)


@pytest.mark.parametrize("shape", [(31,), (1, 31)])
def test_unfactored_gram_raises_at_the_nodes(shape):
    # heavy oversampling drives the flat kernel's eigenvalues below machine
    # zero; P at the nodes needs no factor, but the Gram is checked first
    gram = build_gram(Kernel.uniform(B), 0.3 / (2 * B), 15)
    assert gram.cholesky is None
    with pytest.raises(NotPositiveDefiniteError):
        power_function(gram, gram.times.reshape(shape))


@st.composite
def even_cases(draw):
    """A spec or flat kernel, T, N <= 12, and times that hold each point with
    both signs and once more, shuffled into a 2-d or 3-d shape, with the flat
    index at which a non-finite value is put."""
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        kernel = Kernel.from_spec(random_weight_spec(seed))
    else:
        kernel = Kernel.uniform(draw(st.sampled_from([0.5, 1.0, 2.0])))
    T = draw(st.floats(0.8, 2.0)) / (2.0 * kernel.bandwidth_B)
    N = draw(st.integers(0, 12))
    reach = (N + 2) * T
    x = draw(arrays(float, array_shapes(max_dims=2, max_side=4),
                    elements=st.floats(-reach, reach)))
    t = np.stack([x, -x, x])
    order = draw(st.permutations(range(t.size)))
    return kernel, T, N, t.ravel()[order].reshape(t.shape), draw(st.integers(0, t.size - 1))


# `--hypothesis-seed=131` drew this: 0 and 1.4e-227 share a residue class, so
# the batch takes the lattice kernel-matrix path while each single point takes
# the direct one. At t = 4.40299 the lattice row was 6.5e-15 psi0 off the
# direct one, which is exact there, and P^2 moved by 2.4e-14, past the
# 8 eps cond psi0 = 1.15e-14 that the solves alone were allowed.
LATTICE_EVEN_DRAW = (
    (Kernel.from_spec(random_weight_spec(328)), 0.499995, 9,
     np.array([0.0, 1.4236398751722634e-227, 4.402991046095911]) * np.array([[1.0], [-1.0], [1.0]]),
     0),
    np.nan)


@settings(max_examples=40, deadline=None)
@given(even_cases(), st.sampled_from([np.nan, np.inf, -np.inf]))
@example(*LATTICE_EVEN_DRAW)
def test_power_function_is_even_in_t(case, bad):
    kernel, T, N, t, bad_at = case
    gram = build_gram(kernel, T, N)
    assume(gram.cholesky is not None)
    cond = gram.condition_estimate
    assume(cond < 1e8)
    p = power_function(gram, t)
    assert p.shape == t.shape
    assert p.tobytes() == power_function(gram, -t).tobytes()
    # One point per call takes the direct kernel-matrix path and one-column
    # solves; 400 cases differed in P^2 by at most 2.5 eps * cond * psi0. The
    # batch takes the lattice path when its distinct |t| share a residue
    # class, and then its rows differ from the one-point rows, each entry by
    # at most `lattice_tolerance`; to first order P^2 then moves by 2 u.dv,
    # at most 2 |u|_1 times that tolerance, for the cardinal values u.
    single = np.array([power_function(gram, [tv])[0] for tv in t.ravel()])
    atol = 8.0 * EPS * cond * kernel.psi0
    s = np.unique(np.abs(t))
    if not np.array_equal(kernel_rows(gram, s),
                          np.concatenate([kernel_rows(gram, [sv]) for sv in s])):
        u1 = np.max(np.sum(np.abs(_cardinal_values(gram, s)), axis=0))
        atol += 2.0 * u1 * lattice_tolerance(kernel, s, T, N)
    np.testing.assert_allclose(p.ravel() ** 2, single ** 2, rtol=0, atol=atol)
    t[np.unravel_index(bad_at, t.shape)] = bad
    with pytest.raises(ValueError, match="evaluation times must be finite"):
        power_function(gram, t)


# The traced peak of `power_function` allowed, in blocks of the kernel rows
# (`interpolate._BLOCK_ROWS` rows of 2N+1 entries). A block and its two folded
# halves live at a time, beside vectors over the points: at N = 200 the peaks
# read 6.4 blocks on the lattice grid and 4.3 on the random points, 21.0 and
# 14.2 MB. The whole kernel matrix of the 117,747 distinct |t| of the lattice
# grid alone is 378 MB, and the peak read 764 MB when it was formed.
MEMORY_BLOCKS = 10.0


@pytest.mark.parametrize("grid", ["lattice", "direct"])
def test_power_function_memory_is_a_few_blocks(lowpass_kernel, grid):
    N = 200
    gram = build_gram(lowpass_kernel, 1.0, N)
    t = (np.linspace(-200.0, 200.0, 160_001) if grid == "lattice"
         else np.random.default_rng(5).uniform(-200.0, 200.0, 100_000))
    tracemalloc.start()
    try:
        p = power_function(gram, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(p))
    block = interpolate._BLOCK_ROWS * gram.size * np.dtype(float).itemsize
    assert peak < MEMORY_BLOCKS * block


def test_truncated_shannon_memory_is_a_few_blocks():
    # the whole (160,001, 401) sinc matrix alone is 513 MB
    N = 200
    samples = SampleSet(1.0, np.cos(0.3 * np.arange(-N, N + 1)))
    t = np.linspace(-200.0, 200.0, 160_001)
    tracemalloc.start()
    try:
        x = truncated_shannon(samples, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(x))
    block = interpolate._BLOCK_ROWS * samples.values.size * np.dtype(float).itemsize
    assert peak < MEMORY_BLOCKS * block


def oracle_times(T, N):
    """Quarter steps of T over the node window, and 8 seeded off-lattice
    points with their negatives."""
    off = np.random.default_rng(7).uniform(0.0, N * T, 8)
    return np.concatenate([np.arange(-4 * N, 4 * N + 1) * (T / 4), off, -off])


def oracle_samples(N):
    """Seeded standard normal samples over n = -N..N."""
    return np.random.default_rng(11).standard_normal(2 * N + 1)


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES),
                ids=lambda case: f"N{case[0]}-T2B{case[1]}")
def flat_oracle(request):
    N, ratio = request.param
    T = ratio / (2.0 * B)
    t = oracle_times(T, N)
    ref = flat_gram_reference(B, T, N, t, oracle_samples(N))
    return request.param, build_gram(Kernel.uniform(B), T, N), t, ref, np.linalg.cond(ref.dense)


class TestFiftyDigitOracle:
    """The flat kernel's Gram pipeline against `flat_gram_reference`."""

    def test_gram_matrix(self, flat_oracle):
        # R is the Toeplitz matrix of its first row
        _, gram, _, ref, _ = flat_oracle
        err = np.max(np.abs(gram.first_row - ref.dense[0]))
        assert err <= 4.0 * EPS * gram.kernel.psi0

    def test_kernel_matrix(self, flat_oracle):
        # rounding t - nT moves psi's argument by eps |t - nT|, and psi has
        # slope at most 2 pi B psi0
        _, gram, t, ref, _ = flat_oracle
        v = kernel_rows(gram, t).T
        lag = np.abs(t - gram.times[:, None])
        tol = 8.0 * EPS * gram.kernel.psi0 * (1.0 + 2.0 * np.pi * B * lag)
        assert np.all(np.abs(v - ref.v) <= tol)

    def test_cardinal_values(self, flat_oracle):
        # a backward-stable solve: the error is within cond * eps of max|u|
        _, gram, t, ref, cond = flat_oracle
        err = np.max(np.abs(_cardinal_values(gram, t) - ref.u))
        assert err <= 4.0 * cond * EPS * np.max(np.abs(ref.u))

    def test_power_squared(self, flat_oracle):
        case, gram, t, ref, cond = flat_oracle
        err = np.max(np.abs(power_function(gram, t) ** 2 - ref.p2))
        assert err <= ORACLE_CASES[case] * cond * EPS * gram.kernel.psi0

    def test_solve(self, flat_oracle):
        case, gram, _, ref, cond = flat_oracle
        x = oracle_samples(gram.half_count_N)
        c = solve(gram, SampleSet(gram.spacing_T, x)).coeffs_c
        err = np.max(np.abs(c - ref.c))
        assert err <= SOLVE_CASES[case][0] * cond * EPS * np.max(np.abs(ref.c))

    def test_wnorm_sq(self, flat_oracle):
        case, gram, _, ref, cond = flat_oracle
        x = oracle_samples(gram.half_count_N)
        err = abs(wnorm_sq(solve(gram, SampleSet(gram.spacing_T, x))) - ref.norm_sq)
        assert err <= SOLVE_CASES[case][1] * cond * EPS * ref.norm_sq


class TestWeightedBound:
    def test_tight_ball_gives_zero_bound(self, lowpass_kernel, lowfreq_signal):
        interp, _ = make_interp(lowpass_kernel, lowfreq_signal, 1.0 / B, 8)
        D = np.sqrt(wnorm_sq(interp))
        report = weighted_pointwise_bound(interp, D, np.linspace(-4, 4, 21))
        assert report.constant == 0.0
        np.testing.assert_array_equal(report.bound_values, 0.0)

    def test_infeasible_ball_rejected(self, lowpass_kernel, lowfreq_signal):
        interp, _ = make_interp(lowpass_kernel, lowfreq_signal, 1.0 / B, 8)
        D = 0.9 * np.sqrt(wnorm_sq(interp))
        with pytest.raises(InfeasibleBallError):
            weighted_pointwise_bound(interp, D, np.zeros(1))

    def test_nonfinite_or_negative_radius_rejected(self, lowpass_kernel,
                                                   lowfreq_signal):
        # -D would pass as D^2 and a NaN or infinite D would give NaN bounds
        interp, _ = make_interp(lowpass_kernel, lowfreq_signal, 1.0 / B, 8)
        D = 1.5 * np.sqrt(wnorm_sq(interp))
        for bad in (np.nan, np.inf, -D):
            with pytest.raises(ValueError, match="norm budget D") as info:
                weighted_pointwise_bound(interp, bad, np.zeros(1))
            assert not isinstance(info.value, InfeasibleBallError)

    def test_bound_holds_for_kernel_mixture_truths(self, lowpass_kernel):
        # truths with known norm: z = sum a_k psi(. - tau_k), |z|_W^2 = a' Psi a
        T, N = 1.0 / B, 10
        rng = np.random.default_rng(71)
        tgrid = np.linspace(-(N + 1) * T, (N + 1) * T, 101)
        worst = -np.inf
        for _ in range(10):
            count = int(rng.integers(3, 9))
            taus = rng.uniform(-N * T, N * T, count)
            amps = rng.standard_normal(count)
            z = AnalyticSignal.kernel_mixture(lowpass_kernel, taus, amps)
            gram_tau = psi_closed_form(lowpass_kernel,
                                       taus[:, None] - taus[None, :])
            D = np.sqrt(amps @ gram_tau @ amps)
            samples = sample_signal(z, T, N)
            interp = solve(build_gram(lowpass_kernel, T, N), samples)
            report = weighted_pointwise_bound(interp, D, tgrid)
            err = np.abs(evaluate(interp, tgrid) - eval_signal(z, tgrid))
            worst = max(worst, np.max(err - report.bound_values))
        assert worst <= 1e-8

    def test_reduces_to_classical_bound_at_uniform_critical(self):
        # with W = 1 and critical spacing, the weighted-space ball is the
        # energy ball, and the two bound routes must coincide
        T, N = 0.5, 9
        kernel = Kernel.uniform(1.0 / (2 * T))
        rng = np.random.default_rng(3)
        samples = SampleSet(T, rng.standard_normal(2 * N + 1))
        interp = solve(build_gram(kernel, T, N), samples)
        E = 1.2 * np.sqrt(T * np.sum(samples.values ** 2))
        t = np.linspace(-6, 6, 201)
        weighted = weighted_pointwise_bound(interp, E, t)
        np.testing.assert_allclose(weighted.bound_values,
                                   classical_bound(samples, E, t), atol=1e-8)
        np.testing.assert_allclose(weighted.constant * weighted.power_values,
                                   weighted.bound_values, rtol=1e-14)


class TestShannonBound:
    # The classical bound of truncated sinc interpolation, through the tail
    # adversary that attains it

    def test_zero_at_nodes(self):
        # every tail sinc vanishes at a node, so no tail can move xhat there
        samples = SampleSet(0.7, np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
        for t in samples.times:
            adv = minimax_worstcase(samples, 10.0, t, tail_range=200)
            assert adv.analytic_error == pytest.approx(0.0, abs=1e-7)
            assert adv.attained_error == pytest.approx(0.0, abs=1e-7)

    def test_exhausted_energy_budget_zeroes_constant(self):
        samples = SampleSet(0.5, np.array([1.0, -2.0, 0.5]))
        E = np.sqrt(0.5 * np.sum(samples.values ** 2))
        adv = minimax_worstcase(samples, E, 0.3, tail_range=50)
        assert adv.constant == 0.0
        assert adv.attained_error == 0.0

    def test_zero_signal_direct_formula(self):
        # x = 0, E = 1, N = 10, t = T/2: the adversary's tail stops at
        # tail_range, and its truncation deficit is the rest of the bound
        T, N = 1.0, 10
        samples = SampleSet(T, np.zeros(2 * N + 1))
        adv = minimax_worstcase(samples, 1.0, T / 2)
        ssum = sum(np.sinc(0.5 - n) ** 2 for n in range(-N, N + 1))
        expected = np.sqrt((1 - ssum) / T)
        assert np.hypot(adv.analytic_error, np.sqrt(adv.truncation_deficit / T)) \
            == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(classical_bound(samples, 1.0, [T / 2]), expected,
                                   rtol=1e-12)

    def test_infeasible_energy_rejected(self):
        samples = SampleSet(0.5, np.array([1.0, -2.0, 0.5]))
        with pytest.raises(InfeasibleBallError):
            minimax_worstcase(samples, 0.1, 0.0, tail_range=50)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        # attained_error once came out NaN here, with a RuntimeWarning from sin
        samples = SampleSet(0.5, np.array([1.0, -2.0, 0.5]))
        with pytest.raises(ValueError, match="evaluation times must be finite"):
            minimax_worstcase(samples, 10.0, t, tail_range=50)

    def test_nonfinite_or_negative_energy_rejected(self):
        samples = SampleSet(0.5, np.array([1.0, -2.0, 0.5]))
        for bad in (np.nan, np.inf, -10.0):
            with pytest.raises(ValueError, match="energy budget E") as info:
                minimax_worstcase(samples, bad, t=0.3, tail_range=50)
            assert not isinstance(info.value, InfeasibleBallError)


class TestSincPartition:
    def test_exact_at_nodes(self):
        assert sinc_partition_check(0.0, 1.0, 50) == pytest.approx(1.0, abs=1e-12)

    def test_half_sample_converges(self):
        total = sinc_partition_check(0.5, 1.0, 10_000)
        assert abs(total - 1.0) < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-3, 3), st.integers(1, 200))
    def test_monotone_in_truncation(self, t, truncation):
        small = sinc_partition_check(t, 1.0, truncation)
        large = sinc_partition_check(t, 1.0, truncation + 17)
        assert large >= small - 1e-15
        assert large <= 1.0 + 1e-12


class TestMinimaxWorstCase:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.samples = SampleSet(0.8, rng.standard_normal(21))
        self.energy = 1.5 * np.sqrt(0.8 * np.sum(self.samples.values ** 2))

    def test_attained_matches_analytic(self):
        adv = minimax_worstcase(self.samples, self.energy, t=0.37,
                                tail_range=2000)
        assert adv.attained_error == pytest.approx(adv.analytic_error, abs=1e-10)
        assert adv.truncation_deficit >= 0.0

    def test_phase_invariance(self):
        errors = [minimax_worstcase(self.samples, self.energy, t=0.37,
                                    tail_range=500, phase=phi).attained_error
                  for phi in (0.0, np.pi / 4, np.pi / 2)]
        assert max(errors) - min(errors) < 1e-12

    def test_adversary_energy_budget(self):
        adv = minimax_worstcase(self.samples, self.energy, t=1.1,
                                tail_range=3000)
        spent = self.samples.spacing_T * np.sum(np.abs(adv.coeffs) ** 2)
        assert spent == pytest.approx(adv.constant ** 2, abs=1e-10)

    def test_tail_range_must_exceed_window(self):
        with pytest.raises(ValueError):
            minimax_worstcase(self.samples, self.energy, t=0.3, tail_range=10)

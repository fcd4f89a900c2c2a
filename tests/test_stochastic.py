import os
import sys
import threading
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bandlim import (DensityGrid, Kernel, NotPositiveDefiniteError, PSDModel, SampleSet,
                     autocorrelation, build_gram, cardinal, empirical_mse, evaluate,
                     gaussian_smooth, inverse_weight_eval, lmmse_interpolate,
                     sample_signal, solve, squared_errors, truncated_shannon)
from bandlim.signals import spectral_density_grid
from bandlim.stochastic import (_MIN_CHUNK, MSE_KINDS, SYNTHESIS_GRID_SIZE,
                                 _predictor_row, _synthesis_basis)
from conftest import spec_transform_reference, tabulated_transform_reference

B = 1.0


@pytest.fixture(scope="module")
def lowpass_psd(lowpass_spec):
    return PSDModel.from_weight_spec(lowpass_spec)


def draw_process(psd, seed, t):
    """The process at 1-d ``t`` as realization ``seed`` of `squared_errors`
    draws it: a, b standard normal from ``default_rng(seed)``, in that order,
    over the spectral synthesis basis C, S, giving a.C + b.S."""
    cos_t, sin_t = _synthesis_basis(psd, np.asarray(t, dtype=float), SYNTHESIS_GRID_SIZE)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(SYNTHESIS_GRID_SIZE)
    b = rng.standard_normal(SYNTHESIS_GRID_SIZE)
    return a @ cos_t + b @ sin_t


class TestPSDModel:
    def test_constructors_return_the_kernel(self, lowpass_spec, tabulated_psd):
        # a PSD is the kernel of W = 1/S (dataclass equality also compares the
        # class); PSDModel only names its constructors
        assert PSDModel.from_weight_spec(lowpass_spec) == Kernel.from_spec(lowpass_spec)
        assert PSDModel.uniform(B, 0.7) == Kernel.uniform(B, 0.7)
        assert tabulated_psd == Kernel.from_grid(B, tabulated_psd.grid)

    def test_exactly_one_source(self, lowpass_spec, tabulated_psd):
        # each density lands in one kernel variant; a flat level is the flat spec
        spec_psd = PSDModel.from_weight_spec(lowpass_spec)
        assert spec_psd.spec is lowpass_spec and spec_psd.grid is None
        flat = PSDModel.uniform(B, level=0.7)
        assert flat.grid is None
        assert (flat.spec.degree_K, flat.spec.half_count_M, flat.spec.floor_alpha) == (0, 0, 0.7)
        np.testing.assert_array_equal(flat.spec.coeffs_d, [0.0])
        assert tabulated_psd.spec is None and tabulated_psd.grid is not None

    def test_bandwidth_checked_by_the_kernel(self, lowpass_spec):
        with pytest.raises(ValueError, match="bandwidth"):
            Kernel(bandwidth_B=2.0 * B, spec=lowpass_spec)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="bandwidth"):
                PSDModel.uniform(bad, 1.0)
            with pytest.raises(ValueError, match="bandwidth"):
                PSDModel.from_grid(bad, DensityGrid([0.0, 1.0], [1.0, 2.0]))

    def test_uniform_level_positive(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                PSDModel.uniform(B, bad)
            with pytest.raises(ValueError):
                Kernel.uniform(B, bad)

    def test_grid_positive(self):
        om = np.linspace(-2, 2, 11)
        for values in (np.zeros(11), np.abs(np.linspace(-1.0, 1.0, 11))):
            with pytest.raises(ValueError, match="bounded away from zero"):
                PSDModel.from_grid(B, DensityGrid(om, values))

    def test_values_are_bitwise_the_density(self, lowpass_spec, tabulated_psd):
        # on the synthesis midpoint grid each kernel's reciprocal weight reads
        # exactly its source density
        om = (np.arange(SYNTHESIS_GRID_SIZE) + 0.5) * (2 * np.pi * B / SYNTHESIS_GRID_SIZE)
        grid = tabulated_psd.grid
        pairs = [(PSDModel.from_weight_spec(lowpass_spec), inverse_weight_eval(lowpass_spec, om)),
                 (tabulated_psd, np.interp(om, grid.omegas, grid.values)),
                 (PSDModel.uniform(B, 0.7), np.full(om.shape, 0.7))]
        for psd, expected in pairs:
            assert psd.reciprocal(om).tobytes() == expected.tobytes()


class TestAutocorrelation:
    def test_uniform_critical_zeros_at_nonzero_nodes(self):
        T = 0.5
        psd = PSDModel.uniform(1.0 / (2 * T), level=3.0)
        taus = np.arange(1, 6) * T
        np.testing.assert_allclose(autocorrelation(psd, taus), 0.0, atol=1e-12)
        assert autocorrelation(psd, 0.0) == pytest.approx(3.0 / T, rel=1e-14)

    def test_zero_lag_is_total_power(self, lowpass_psd, lowpass_kernel):
        # R(0) = (1/2pi) integral of S over the band
        assert float(autocorrelation(lowpass_psd, 0.0)) == pytest.approx(
            lowpass_kernel.psi0, rel=1e-14)

    def test_matches_kernel_of_reciprocal_weights(self, lowpass_psd,
                                                  lowpass_kernel):
        from bandlim import psi_closed_form
        taus = np.linspace(-21, 21, 85)
        np.testing.assert_allclose(autocorrelation(lowpass_psd, taus),
                                   psi_closed_form(lowpass_kernel, taus),
                                   atol=1e-14)

    def test_grid_backed_quadrature_agrees_with_closed_form(self, lowpass_spec,
                                                            lowpass_kernel):
        from bandlim import psi_closed_form
        edge = 2 * np.pi * B
        om = np.linspace(-edge, edge, 3001)
        grid = DensityGrid(om, np.maximum(
            inverse_weight_eval(lowpass_spec, om), 1e-12))
        psd = PSDModel.from_grid(B, grid)
        for tau in (0.0, 0.4, 2.3, 7.9):
            assert autocorrelation(psd, tau) == pytest.approx(
                float(psi_closed_form(lowpass_kernel, tau)), abs=2e-6)


class TestLMMSE:
    def test_equals_weighted_interpolant(self, lowpass_spec, lowpass_kernel,
                                         lowfreq_signal):
        T, N = 1.0 / B, 10
        samples = sample_signal(lowfreq_signal, T, N)
        psd = PSDModel.from_weight_spec(lowpass_spec)
        t = np.linspace(-12, 12, 401)
        direct = evaluate(solve(build_gram(lowpass_kernel, T, N), samples), t)
        np.testing.assert_allclose(lmmse_interpolate(samples, psd, t), direct,
                                   atol=1e-12)

    def test_uniform_critical_equals_truncated_shannon(self):
        T, N = 0.5, 8
        rng = np.random.default_rng(31)
        from bandlim import SampleSet
        samples = SampleSet(T, rng.standard_normal(2 * N + 1))
        psd = PSDModel.uniform(1.0 / (2 * T), level=4.0)
        t = np.linspace(-5, 5, 201)
        np.testing.assert_allclose(lmmse_interpolate(samples, psd, t),
                                   truncated_shannon(samples, t), atol=1e-10)

    def test_node_exactness(self, lowpass_psd, lowfreq_signal):
        T, N = 2.0 / (3 * B), 9
        samples = sample_signal(lowfreq_signal, T, N)
        vals = lmmse_interpolate(samples, lowpass_psd, samples.times)
        np.testing.assert_allclose(vals, samples.values, atol=1e-9)

    def test_grid_backed_pipeline(self, lowpass_spec, lowpass_psd):
        edge = 2 * np.pi * B
        om = np.linspace(-edge, edge, 2001)
        grid = DensityGrid(om, np.maximum(
            inverse_weight_eval(lowpass_spec, om), 1e-12))
        psd = PSDModel.from_grid(B, grid)
        from bandlim import SampleSet
        rng = np.random.default_rng(8)
        samples = SampleSet(1.0 / B, rng.standard_normal(9))
        t = np.array([0.3, 1.7])
        spec_backed = lmmse_interpolate(samples, lowpass_psd, t)
        np.testing.assert_allclose(lmmse_interpolate(samples, psd, t),
                                   spec_backed, atol=1e-4)


@pytest.fixture(scope="module")
def flat_psd():
    return PSDModel.uniform(B, 0.7)


REPLAY_PSDS = {"spec": "lowpass_psd", "grid": "tabulated_psd", "flat": "flat_psd"}


def _reference_row(psd, kind, T, N, t_eval):
    """Weights of the node samples in each kind's estimate at t_eval."""
    n = np.arange(-N, N + 1)
    if kind == "shannon":
        return np.sinc(t_eval / T - n)
    edge = 2.0 * np.pi * B
    if kind == "uniform_weight":
        transform = lambda tau: tabulated_transform_reference(
            B, DensityGrid([0.0, edge], [1.0, 1.0]), tau)
    elif psd.spec is not None:
        transform = lambda tau: spec_transform_reference(psd.spec, tau)
    else:
        transform = lambda tau: tabulated_transform_reference(B, psd.grid, tau)
    nodes = n * T
    return np.linalg.solve(transform(nodes[:, None] - nodes[None, :]),
                           transform(t_eval - nodes))


@pytest.fixture(scope="module")
def tabulated_psd():
    """A nonuniform tabulated density that starts above 0 and ends past the band edge."""
    rng = np.random.default_rng(17)
    om = np.sort(rng.uniform(0.4, 7.5, 60))
    return PSDModel.from_grid(B, DensityGrid(om, rng.uniform(0.3, 2.0, om.size)))


class TestTabulatedPSD:
    def test_lmmse_is_the_kernel_pipeline(self, tabulated_psd):
        rng = np.random.default_rng(12)
        samples = SampleSet(0.7, rng.standard_normal(15))
        t = np.linspace(-6, 6, 37)
        gram = build_gram(tabulated_psd, samples.spacing_T,
                          samples.half_count_N)
        np.testing.assert_array_equal(lmmse_interpolate(samples, tabulated_psd, t),
                                      evaluate(solve(gram, samples), t))

    @pytest.mark.parametrize("kind", MSE_KINDS)
    @pytest.mark.parametrize("source", ["spec", "grid", "flat"])
    def test_matched_weight_squared_errors_replay(self, request, source, kind):
        # rows from Gauss-Legendre transforms, independent of the closed forms
        psd = request.getfixturevalue(REPLAY_PSDS[source])
        T, N, t_eval, seed = 0.8, 5, 0.37, 99
        nodes = np.arange(-N, N + 1) * T
        row = _reference_row(psd, kind, T, N, t_eval)
        errors = squared_errors(psd, kind, T, N, t_eval, 6, seed)
        pts = np.concatenate([nodes, [t_eval]])
        for k, err in enumerate(errors):
            x = draw_process(psd, [seed, k], pts)
            assert err == pytest.approx((row @ x[:-1] - x[-1]) ** 2, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("kind", ["uniform_weight", "matched_weight"])
    @pytest.mark.parametrize("source", ["spec", "grid", "flat"])
    def test_predictor_row_is_the_cardinals(self, request, source, kind):
        psd = request.getfixturevalue(REPLAY_PSDS[source])
        kern = Kernel.uniform(B) if kind == "uniform_weight" else psd
        for T, N, t_eval in ((0.8, 5, 0.37), (0.4, 7, -1.15), (0.5, 3, 1.0)):
            gram = build_gram(kern, T, N)
            row = _predictor_row(psd, kind, T, N, t_eval)
            assert row.shape == (2 * N + 1,)
            expected = [cardinal(gram, n, t_eval) for n in range(-N, N + 1)]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    def test_not_positive_definite_error(self, highfreq_signal):
        sigma = 2.0 * 2.0 * np.pi * B / (3 + 2 * 11 + 1)
        grid = gaussian_smooth(spectral_density_grid(highfreq_signal), sigma)
        psd = PSDModel.from_grid(B, grid)
        samples = SampleSet(0.02, np.ones(81))
        with pytest.raises(NotPositiveDefiniteError) as info:
            lmmse_interpolate(samples, psd, [0.1])
        assert info.value.condition_estimate > 1e12
        with pytest.raises(NotPositiveDefiniteError):
            squared_errors(psd, "matched_weight", 0.02, 40, 0.01, 2, 1)


class TestSynthesis:
    def test_deterministic_given_seed(self, lowpass_psd):
        a = squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, 20, 123)
        np.testing.assert_array_equal(
            a, squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, 20, 123))
        c = squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, 20, 124)
        assert np.max(np.abs(a - c)) > 1e-3 * np.max(a)

    def test_variance_matches_psd_mass(self, lowpass_psd):
        # a.C + b.S with standard normal a, b has variance sum_k C_k^2 + S_k^2
        # = sum_k S(omega_k) d_omega / pi at every t: the midpoint rule for
        # R(0) = (1/pi) integral_0^{2 pi B} S
        cos_t, sin_t = _synthesis_basis(lowpass_psd, np.array([0.0, 0.7]),
                                        SYNTHESIS_GRID_SIZE)
        target = float(autocorrelation(lowpass_psd, 0.0))
        np.testing.assert_allclose(np.sum(cos_t ** 2 + sin_t ** 2, axis=0), target,
                                   rtol=1e-10)

    def test_zero_mean(self, lowpass_psd):
        trials = 2000
        vals = np.array([draw_process(lowpass_psd, [9, k], [0.4])[0]
                         for k in range(trials)])
        sigma = np.sqrt(float(autocorrelation(lowpass_psd, 0.0)))
        assert abs(np.mean(vals)) < 3 * sigma / np.sqrt(trials)


class TestEmpiricalMSE:
    def test_nonnegative_and_deterministic(self, lowpass_psd):
        a = empirical_mse(lowpass_psd, "shannon", 1.0 / B, 6, 0.5, 50, 7)
        b = empirical_mse(lowpass_psd, "shannon", 1.0 / B, 6, 0.5, 50, 7)
        assert a >= 0.0
        assert a == b

    def test_kinds_identical_for_uniform_psd_at_critical_spacing(self):
        # flat density at critical spacing makes all three estimators the
        # same linear map, so their MSEs coincide realization by realization
        T = 0.5
        psd = PSDModel.uniform(1.0 / (2 * T), level=2.0)
        results = [squared_errors(psd, kind, T, 8, 0.3 * T, 40, 2024)
                   for kind in ("shannon", "uniform_weight", "matched_weight")]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-8)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-8)

    def test_matched_weights_dominate_below_nyquist(self, lowpass_psd):
        T, N = 1.0 / B, 10
        kwargs = dict(T=T, N=N, t_eval=0.5 * T, realizations=300, seed=42)
        matched = empirical_mse(lowpass_psd, "matched_weight", **kwargs)
        shannon = empirical_mse(lowpass_psd, "shannon", **kwargs)
        uniform = empirical_mse(lowpass_psd, "uniform_weight", **kwargs)
        assert matched <= 1.05 * shannon
        assert matched <= 1.05 * uniform

    def test_unknown_kind_rejected(self, lowpass_psd):
        with pytest.raises(ValueError):
            empirical_mse(lowpass_psd, "cubic", 1.0, 5, 0.5, 10, 1)

    @pytest.mark.parametrize("kind", MSE_KINDS)
    @pytest.mark.parametrize("t_eval", [np.nan, np.inf, -np.inf])
    def test_non_finite_eval_time_rejected_before_any_evaluation(self, lowpass_psd,
                                                                  kind, t_eval):
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated before t_eval was checked")

        with patch("bandlim.interpolate.psi_closed_form", unreachable), \
                patch("bandlim.stochastic._synthesis_basis", unreachable), \
                pytest.raises(ValueError, match=f"t_eval must be finite, got {t_eval}"):
            squared_errors(lowpass_psd, kind, 1.0, 5, t_eval, 10, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", MSE_KINDS)
    @pytest.mark.parametrize("t_eval", [1e308, -1e308])
    def test_overflowing_eval_time_rejected_before_any_evaluation(self, lowpass_psd, kind,
                                                                  t_eval):
        # `bandlim mc` once wrote NaN mse and stderr here and exited 0
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated before t_eval was checked")

        with patch("bandlim.interpolate.psi_closed_form", unreachable), \
                patch("bandlim.stochastic._synthesis_basis", unreachable), \
                pytest.raises(ValueError, match="evaluation times must be finite"):
            squared_errors(lowpass_psd, kind, 1.0, 5, t_eval, 10, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", MSE_KINDS)
    def test_spacing_whose_node_times_overflow_rejected_before_any_evaluation(
            self, lowpass_psd, kind):
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated before T was checked")

        with patch("bandlim.interpolate.psi_closed_form", unreachable), \
                patch("bandlim.stochastic._synthesis_basis", unreachable), \
                pytest.raises(ValueError,
                              match=r"spacing T=1e\+308 with half count N=10 puts"):
            squared_errors(lowpass_psd, kind, 1e308, 10, 0.5, 10, 1)


def _serial_errors(psd, kind, T, N, t_eval, realizations, seed,
                   nfreq=SYNTHESIS_GRID_SIZE):
    """The Monte-Carlo loop written out: one realization after another, with
    two draws of ``nfreq`` normals each."""
    weights = np.append(_predictor_row(psd, kind, T, N, t_eval), -1.0)
    cos_t, sin_t = _synthesis_basis(psd, np.append(np.arange(-N, N + 1) * T, t_eval),
                                    nfreq)
    c, s = cos_t @ weights, sin_t @ weights
    errors = np.empty(realizations)
    for k in range(realizations):
        rng = np.random.default_rng([seed, k])
        a = rng.standard_normal(nfreq)
        b = rng.standard_normal(nfreq)
        errors[k] = (a @ c + b @ s) ** 2
    return errors


def _cpus(count):
    """Pretend the process may run on ``count`` CPUs."""
    return patch.object(os, "sched_getaffinity", lambda pid: set(range(count)),
                        create=True)


@contextmanager
def _thread_starts():
    """The threads started while active."""
    started = []
    start = threading.Thread.start
    with patch.object(threading.Thread, "start",
                      lambda thread: started.append(thread) or start(thread)):
        yield started


@contextmanager
def _escaped_from_threads():
    """The exceptions that escape a thread while active; the default hook
    would print them to stderr."""
    escaped = []
    with patch.object(threading, "excepthook", escaped.append):
        yield escaped


class TestSplitRealizations:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MSE_KINDS), st.integers(1, 300), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @example("shannon", 300, 2, 0)
    @example("matched_weight", 257, 3, 12345)
    @example("uniform_weight", 199, 4, 2**32 - 1)
    def test_bitwise_equal_to_the_serial_loop(self, lowpass_psd, kind, realizations,
                                              cpus, seed):
        T, N, t_eval = 0.8, 5, 0.37
        with _cpus(cpus), _thread_starts() as starts:
            errors = squared_errors(lowpass_psd, kind, T, N, t_eval, realizations, seed)
        expected = _serial_errors(lowpass_psd, kind, T, N, t_eval, realizations, seed)
        assert errors.tobytes() == expected.tobytes()
        assert len(starts) == max(1, min(cpus, realizations // _MIN_CHUNK)) - 1

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(MSE_KINDS), st.sampled_from([1, 2, 3, 63, 64, 2047]),
           st.integers(2 * _MIN_CHUNK, 3 * _MIN_CHUNK), st.integers(1, 2),
           st.integers(0, 2**32 - 1))
    @example("matched_weight", 1, 2 * _MIN_CHUNK, 2, 0)
    @example("shannon", 2047, 3 * _MIN_CHUNK, 2, 2**32 - 1)
    @example("uniform_weight", 63, 2 * _MIN_CHUNK + 1, 1, 9)
    def test_any_synthesis_size_is_the_two_draw_loop(self, lowpass_psd, kind, nfreq,
                                                     realizations, cpus, seed):
        # one draw of 2 nfreq normals per realization, split into its halves,
        # must be bitwise the two draws of nfreq, in the caller and in a thread
        T, N, t_eval = 0.8, 5, 0.37
        with _cpus(cpus), _thread_starts() as starts:
            errors = squared_errors(lowpass_psd, kind, T, N, t_eval, realizations, seed,
                                    nfreq=nfreq)
        expected = _serial_errors(lowpass_psd, kind, T, N, t_eval, realizations, seed,
                                  nfreq=nfreq)
        assert errors.tobytes() == expected.tobytes()
        assert len(starts) == cpus - 1

    def test_one_cpu_runs_inline_with_the_same_bytes(self, lowpass_psd):
        args = (lowpass_psd, "matched_weight", 1.0, 10, 0.5, 500, 31)
        with _cpus(3), _thread_starts() as starts:
            split = squared_errors(*args)
        assert len(starts) == 2

        def refuse(thread):
            raise AssertionError("a thread was started")

        with _cpus(1), patch.object(threading.Thread, "start", refuse):
            inline = squared_errors(*args)
        assert inline.tobytes() == split.tobytes()

    def test_more_chunks_than_cores_under_fast_switching(self, lowpass_psd):
        # every chunk writes its own slice of one array: a lost or misplaced
        # write would leave an np.empty value or a neighbour's error behind
        args = (lowpass_psd, "uniform_weight", 0.8, 5, 0.37, 8 * _MIN_CHUNK + 5, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _cpus(8), _thread_starts() as starts:
                errors = squared_errors(*args)
        finally:
            sys.setswitchinterval(interval)
        assert len(starts) == 7
        assert errors.tobytes() == _serial_errors(*args).tobytes()

    def test_short_calls_start_no_thread(self, lowpass_psd):
        with _cpus(64), _thread_starts() as starts:
            squared_errors(lowpass_psd, "shannon", 1.0, 10, 0.5, 2 * _MIN_CHUNK - 1, 3)
        assert len(starts) == 0

    @pytest.mark.parametrize("kind", MSE_KINDS)
    def test_prefix_of_a_longer_call(self, lowpass_psd, kind):
        short = squared_errors(lowpass_psd, kind, 1.0, 10, 0.5, 10, 77)
        with _cpus(4):
            long = squared_errors(lowpass_psd, kind, 1.0, 10, 0.5, 500, 77)
        assert short.tobytes() == long[:10].tobytes()

    def test_failing_draw_raises_in_the_caller_after_every_join(self, lowpass_psd,
                                                                 capfd):
        before = threading.active_count()
        with _cpus(4), _thread_starts() as starts, _escaped_from_threads() as escaped, \
                pytest.raises(ValueError, match="negative"):
            squared_errors(lowpass_psd, "shannon", 1.0, 10, 0.5, 500, -1)
        assert len(starts) == 3
        assert threading.active_count() == before
        assert escaped == []
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("fail_at", [0, 499])
    def test_one_failing_chunk_raises_after_the_others_finish(self, lowpass_psd, capfd,
                                                              fail_at):
        # k = 0 fails in the caller's chunk [0, 250), k = 499 in the thread's
        # [250, 500); the other chunk must be drawn to its end before the raise
        realizations = 500
        default_rng = np.random.default_rng
        drawn = {}

        def failing_rng(entropy):
            if entropy[1] == fail_at:
                raise RuntimeError("draw failed")
            drawn[entropy[1]] = threading.current_thread()
            return default_rng(entropy)

        before = threading.active_count()
        with _cpus(2), patch.object(np.random, "default_rng", failing_rng), \
                _escaped_from_threads() as escaped, \
                pytest.raises(RuntimeError, match="draw failed"):
            squared_errors(lowpass_psd, "shannon", 1.0, 10, 0.5, realizations, 5)
        assert escaped == []
        caller = {k for k, thread in drawn.items() if thread is threading.main_thread()}
        assert caller == (set() if fail_at == 0 else set(range(250)))
        assert set(drawn) - caller == set(range(250, 500)) - {fail_at}
        assert threading.active_count() == before
        assert capfd.readouterr().err == ""


class TestCountChecks:
    @pytest.mark.parametrize("realizations", [2.5, 3.0, "4", None])
    def test_non_integral_realizations_rejected(self, lowpass_psd, realizations):
        with pytest.raises(ValueError, match="realizations must be an integer"):
            squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, realizations, 1)

    def test_realizations_below_one_rejected(self, lowpass_psd):
        with pytest.raises(ValueError, match="realizations must be >= 1, got 0"):
            squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, 0, 1)

    def test_numpy_integer_counts_accepted(self, lowpass_psd):
        np.testing.assert_array_equal(
            squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, np.int64(7), 1,
                           nfreq=np.int32(64)),
            squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, 7, 1, nfreq=64))

    @pytest.mark.parametrize("nfreq", [0, -3])
    def test_nfreq_below_one_rejected(self, lowpass_psd, nfreq):
        with pytest.raises(ValueError, match=f"nfreq must be >= 1, got {nfreq}"):
            squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, 4, 1, nfreq=nfreq)

    def test_non_integral_nfreq_rejected(self, lowpass_psd):
        with pytest.raises(ValueError, match="nfreq must be an integer"):
            squared_errors(lowpass_psd, "shannon", 1.0, 5, 0.5, 4, 1, nfreq=64.5)

    @pytest.mark.parametrize("kind", MSE_KINDS)
    @pytest.mark.parametrize("N, message", [(-1, "half count N must be >= 0, got -1"),
                                            (2.5, "half count N must be an integer")])
    def test_bad_half_count_rejected(self, lowpass_psd, kind, N, message):
        # the shannon kind once returned errors for both
        with pytest.raises(ValueError, match=message):
            squared_errors(lowpass_psd, kind, 1.0, N, 0.5, 4, 1)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlim import (AnalyticSignal, adaptive_simpson, eval_signal,
                     inverse_weight_eval, sample_signal, spectrum,
                     truncated_shannon)

B = 1.0


def windowed_transform(sig, omega, half_window=600.0):
    """Brute-force windowed Fourier integral of the (even, real) signal."""
    f = lambda t: eval_signal(sig, t) * np.cos(omega * t)
    seeds = np.linspace(0.0, half_window, 2400)
    return 2.0 * adaptive_simpson(f, 0.0, half_window, tolerance=1e-8,
                                  breakpoints=seeds)


class TestEval:
    def test_center_values(self, lowfreq_signal, highfreq_signal):
        assert float(eval_signal(lowfreq_signal, 0.0)) == 2.0
        assert float(eval_signal(highfreq_signal, 0.0)) == 2.0

    def test_first_wide_zero(self, lowfreq_signal):
        # at t = 1/B the wide term vanishes and the narrow one remains
        expected = np.sinc(1.0 / 20.0) ** 2
        assert float(eval_signal(lowfreq_signal, 1.0 / B)) == pytest.approx(
            expected, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-50, 50))
    def test_evenness(self, t):
        for sig in (AnalyticSignal.lowfreq(B), AnalyticSignal.highfreq(B)):
            np.testing.assert_allclose(eval_signal(sig, t),
                                       eval_signal(sig, -t), rtol=1e-12,
                                       atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["lowfreq", "highfreq", "mixture"])
    @pytest.mark.parametrize("t", [np.nan, [0.0, -np.inf], [0.0, 1e308]])
    def test_non_finite_or_overflowing_times_rejected(self, lowpass_kernel, name, t):
        # at 1e308 the sinc arguments overflowed and the truth column of
        # `bandlim compare` read NaN
        sig = (AnalyticSignal.kernel_mixture(lowpass_kernel, [-1.0, 2.0], [0.5, 1.0])
               if name == "mixture" else AnalyticSignal(name, B))
        with pytest.raises(ValueError, match="evaluation times must be finite"):
            eval_signal(sig, t)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AnalyticSignal("chirp", B)


class TestSampling:
    def test_nodes_reproduced_by_truncated_shannon(self, highfreq_signal):
        samples = sample_signal(highfreq_signal, 0.45, 7)
        np.testing.assert_allclose(truncated_shannon(samples, samples.times),
                                   samples.values, atol=1e-13)

    def test_single_sample(self, lowfreq_signal):
        samples = sample_signal(lowfreq_signal, 0.3, 0)
        assert samples.values.shape == (1,)
        assert samples.values[0] == float(eval_signal(lowfreq_signal, 0.0))

    def test_three_quarter_nyquist_configuration(self, lowfreq_signal):
        # T = 2/(3B) is sampling at 75% of the critical rate
        T = 2.0 / (3.0 * B)
        samples = sample_signal(lowfreq_signal, T, 10)
        assert samples.values.size == 21
        n = np.arange(-10, 11)
        np.testing.assert_array_equal(samples.values,
                                      eval_signal(lowfreq_signal, n * T))


class TestSpectrum:
    def test_closed_form_against_windowed_transform(self, lowfreq_signal,
                                                    highfreq_signal):
        for sig in (lowfreq_signal, highfreq_signal):
            for om in (0.4, 2.0, 5.0):
                assert windowed_transform(sig, om) == pytest.approx(
                    float(spectrum(sig, om)), abs=2e-3)

    def test_bandlimited(self, lowfreq_signal, highfreq_signal):
        # windowed estimate beyond the band edge stays below 1e-3 of the peak
        for sig in (lowfreq_signal, highfreq_signal):
            peak = float(np.max(spectrum(sig, np.linspace(-7, 7, 2001))))
            for om in (2 * np.pi * B * 1.05, 2 * np.pi * B * 1.5):
                assert abs(windowed_transform(sig, om)) < 1e-3 * peak

    def test_highfreq_mass_sits_at_modulation(self, highfreq_signal):
        shift = 1.7 * np.pi * B
        assert float(spectrum(highfreq_signal, shift)) > \
            float(spectrum(highfreq_signal, 0.6 * shift))


class TestMatchedWeights:
    def test_valid_and_normalized(self, lowpass_spec):
        lo, hi = lowpass_spec.reciprocal_range()
        assert hi == pytest.approx(1.0, rel=1e-12)
        assert lo > 0.0

    def test_lowpass_shape(self, lowpass_spec):
        g = inverse_weight_eval(lowpass_spec, np.array([0.0, 0.9 * 2 * np.pi * B]))
        assert g[0] > 10 * g[1]

    def test_highpass_shape(self, highpass_spec):
        g = inverse_weight_eval(highpass_spec,
                                np.array([0.0, 1.7 * np.pi * B]))
        assert g[1] > 2 * g[0]


class TestKernelMixture:
    def test_matches_direct_sum(self, lowpass_kernel):
        from bandlim import psi_closed_form
        taus = np.array([-1.2, 0.4, 2.0])
        amps = np.array([0.5, -1.0, 2.0])
        sig = AnalyticSignal.kernel_mixture(lowpass_kernel, taus, amps)
        t = np.linspace(-4, 4, 33)
        direct = sum(a * psi_closed_form(lowpass_kernel, t - tau)
                     for a, tau in zip(amps, taus))
        np.testing.assert_allclose(eval_signal(sig, t), direct, rtol=1e-13)

    def test_requires_kernel(self):
        with pytest.raises(ValueError):
            AnalyticSignal("mixture", B)

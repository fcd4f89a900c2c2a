"""Closed-form bandlimited test signals and the sampling operator.

Two named signals cover the low- and high-frequency-dominant regimes: a sum
of a wide and a 20x-narrower squared sinc, and the same pair with the narrow
component modulated up to 0.85 of the band edge. Both are exactly
B-bandlimited (squared sincs have triangular spectra; the modulation keeps
the shifted triangle inside the band). Custom signals are finite kernel
mixtures, which live in the weighted space by construction.
"""

from dataclasses import dataclass

import numpy as np

from .interpolate import SampleSet
from .kernel import Kernel, _check_spacing, _check_times, psi_closed_form
from .weights import DensityGrid, _check_bandwidth, fit_weights, gaussian_smooth, \
    normalized, power_transform, spline_spacing

NAMED_KINDS = ("lowfreq", "highfreq")
MODULATION_RATE = 1.7  # times pi*B, keeping the narrow spectrum in-band
NARROW_FACTOR = 20.0


@dataclass(frozen=True)
class AnalyticSignal:
    """A closed-form test signal: a named shape or a kernel mixture."""

    kind: str
    bandwidth_B: float
    mixture_kernel: Kernel | None = None
    mixture_times: np.ndarray | None = None
    mixture_amps: np.ndarray | None = None

    def __post_init__(self):
        _check_bandwidth(self.bandwidth_B)
        if self.kind in NAMED_KINDS:
            return
        if self.kind != "mixture":
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.mixture_kernel is None:
            raise ValueError("mixture signals need a kernel")
        times = np.atleast_1d(np.asarray(self.mixture_times, dtype=float))
        amps = np.atleast_1d(np.asarray(self.mixture_amps))
        if times.shape != amps.shape:
            raise ValueError("mixture times and amplitudes must align")
        times.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "mixture_times", times)
        object.__setattr__(self, "mixture_amps", amps)

    @classmethod
    def lowfreq(cls, bandwidth_B):
        """sinc^2(Bt) + sinc^2(Bt/20): energy concentrated near zero frequency."""
        return cls("lowfreq", bandwidth_B)

    @classmethod
    def highfreq(cls, bandwidth_B):
        """Same pair with the narrow term modulated to 0.85 of the band edge."""
        return cls("highfreq", bandwidth_B)

    @classmethod
    def kernel_mixture(cls, kernel, times, amps):
        return cls("mixture", kernel.bandwidth_B, mixture_kernel=kernel,
                   mixture_times=times, mixture_amps=amps)


def eval_signal(sig, t):
    """Evaluate the signal at times ``t`` (sinc(0) = 1 convention). A NaN,
    infinite or overflowing time raises `ValueError`."""
    t = np.asarray(t, dtype=float)
    B = sig.bandwidth_B
    _check_times(t, 2.0 * np.pi * B)
    if sig.kind == "lowfreq":
        return np.sinc(B * t) ** 2 + np.sinc(B * t / NARROW_FACTOR) ** 2
    if sig.kind == "highfreq":
        return (np.sinc(B * t) ** 2
                + np.sinc(B * t / NARROW_FACTOR) ** 2
                * np.cos(MODULATION_RATE * np.pi * B * t))
    psi_mat = psi_closed_form(sig.mixture_kernel, t[..., None] - sig.mixture_times)
    return psi_mat @ sig.mixture_amps


def sample_signal(sig, T, N):
    """Uniform samples x[n] = x(nT) for n = -N..N. A spacing T whose node
    times N T overflow raises `ValueError` before any is computed."""
    _check_spacing(T, N)
    n = np.arange(-N, N + 1)
    return SampleSet(spacing_T=T, values=eval_signal(sig, n * T))


def spectrum(sig, omega):
    """Fourier transform X(omega) of a named signal (zero out of band)."""
    omega = np.asarray(omega, dtype=float)
    B = sig.bandwidth_B

    def triangle(om, half_width):
        return np.maximum(0.0, 1.0 - np.abs(om) / half_width)

    wide = (1.0 / B) * triangle(omega, 2.0 * np.pi * B)
    narrow_width = 2.0 * np.pi * B / NARROW_FACTOR
    if sig.kind == "lowfreq":
        return wide + (NARROW_FACTOR / B) * triangle(omega, narrow_width)
    if sig.kind == "highfreq":
        shift = MODULATION_RATE * np.pi * B
        half = 0.5 * NARROW_FACTOR / B
        return wide + half * (triangle(omega - shift, narrow_width)
                              + triangle(omega + shift, narrow_width))
    raise ValueError(f"no closed-form spectrum for signal kind {sig.kind!r}")


def spectral_density_grid(sig, count=4001):
    """|X(omega)|^2 of a named signal on a uniform interior band grid."""
    edge = 2.0 * np.pi * sig.bandwidth_B
    omegas = np.linspace(-edge, edge, count + 2)[1:-1]
    x = spectrum(sig, omegas)
    return DensityGrid(omegas, np.abs(x) ** 2)


def matched_weights(sig, degree_K=3, half_count_M=11, smoothing_scale=2.0,
                    power_p=3.0, power_eps=1e-6):
    """Weights whose reciprocal tracks the signal's (smoothed) energy density.

    The squared spectrum is blurred to the spline resolution
    (``smoothing_scale`` times the spacing A) and compressed through the
    power transform before fitting; the result is normalized to unit peak.
    Narrower smoothing risks a nonpositive fit, wider smoothing dilutes the
    prior.
    """
    spacing = spline_spacing(sig.bandwidth_B, degree_K, half_count_M)
    grid = spectral_density_grid(sig)
    smoothed = gaussian_smooth(grid, smoothing_scale * spacing)
    spec = fit_weights(smoothed, sig.bandwidth_B, degree_K, half_count_M,
                       transform=power_transform(power_p, power_eps))
    return normalized(spec)

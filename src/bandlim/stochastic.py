"""Stochastic oracle: stationary bandlimited processes and LMMSE estimation.

A zero-mean wide-sense-stationary process with in-band power spectral
density S has autocorrelation ``R(tau) = (1/2pi) integral S cos(omega tau)``;
the linear minimum-mean-squared-error interpolator of its samples expands in
translates of R(tau) with coefficients pinned by node exactness. Choosing
frequency weights W = 1/S makes the deterministic weighted interpolant
identical to this estimator, which the Monte-Carlo harness here quantifies.
So R is the kernel of W = 1/S: every density (weight spec, tabulated grid or
flat level) maps to a `Kernel` through `PSDModel.matched_kernel`, and R and
the LMMSE estimate come from the kernel pipeline in closed form.

Randomness uses numpy's PCG64 generator (``numpy.random.default_rng``);
realization k of a run seeded with s draws from ``default_rng([s, k])``, so
results are reproducible for a fixed seed schedule.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .interpolate import build_gram, evaluate, solve
from .kernel import Kernel, psi_closed_form
from .weights import DensityGrid, WeightSpec

SYNTHESIS_GRID_SIZE = 2048
MSE_KINDS = ("shannon", "uniform_weight", "matched_weight")


@dataclass(frozen=True)
class PSDModel:
    """In-band power spectral density, zero outside the band.

    Exactly one of ``spec`` (S equals the spec's reciprocal weight, i.e.
    W = 1/S), ``grid`` (tabulated density), or ``uniform_level`` (flat
    density gamma^2) must be provided.
    """

    bandwidth_B: float
    spec: WeightSpec | None = None
    grid: DensityGrid | None = None
    uniform_level: float | None = None
    _kernel: Kernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sources = sum(x is not None for x in (self.spec, self.grid, self.uniform_level))
        if sources != 1:
            raise ValueError("provide exactly one of spec, grid, uniform_level")
        if self.bandwidth_B <= 0:
            raise ValueError(f"bandwidth_B must be positive, got {self.bandwidth_B}")
        if self.spec is not None and self.spec.bandwidth_B != self.bandwidth_B:
            raise ValueError("PSD bandwidth must match its weight spec")
        if self.uniform_level is not None and self.uniform_level <= 0:
            raise ValueError("uniform_level must be positive")
        if self.grid is not None and np.min(self.grid.values) <= 0:
            raise ValueError("grid density must be bounded away from zero in-band")
        object.__setattr__(self, "_kernel", self._build_kernel())

    @classmethod
    def uniform(cls, bandwidth_B, level):
        return cls(bandwidth_B=bandwidth_B, uniform_level=level)

    @classmethod
    def from_weight_spec(cls, spec):
        """Density S = 1/W for the given weight spec (so weights match it)."""
        return cls(bandwidth_B=spec.bandwidth_B, spec=spec)

    @classmethod
    def from_grid(cls, bandwidth_B, grid):
        return cls(bandwidth_B=bandwidth_B, grid=grid)

    def values(self, omegas):
        """Density values at in-band angular frequencies."""
        return self.matched_kernel().reciprocal(omegas)

    def matched_kernel(self):
        """Interpolation kernel whose weights satisfy W = 1/S (built once per model)."""
        return self._kernel

    def _build_kernel(self):
        if self.spec is not None:
            return Kernel.from_spec(self.spec)
        if self.uniform_level is not None:
            # Flat density gamma^2: represent it by a single full-band
            # rectangle so the standard closed form applies.
            flat = WeightSpec(self.bandwidth_B, 0, 0,
                              np.array([self.uniform_level]), 0.0)
            return Kernel.from_spec(flat)
        return Kernel.from_grid(self.bandwidth_B, self.grid)


def autocorrelation(psd, tau):
    """Autocorrelation R(tau), the inverse Fourier transform of the density."""
    return psi_closed_form(psd.matched_kernel(), tau)


def lmmse_interpolate(samples, psd, t, ridge_sigma2=0.0):
    """LMMSE estimate of the process at times ``t`` from its samples.

    This is the weighted interpolant with W = 1/S, whose kernel is the
    autocorrelation. With ``ridge_sigma2 > 0`` only the ridged Gram matrix
    has to be positive definite.
    """
    gram = build_gram(psd.matched_kernel(), samples.spacing_T,
                      samples.half_count_N)
    return evaluate(solve(gram, samples, ridge_sigma2), t)


def synthesize_process(psd, seed, t_grid, nfreq=SYNTHESIS_GRID_SIZE):
    """Draw one process realization on ``t_grid`` by spectral synthesis.

    Sums ``sqrt(S(omega_k) d_omega / pi) [a_k cos(omega_k t) + b_k sin(omega_k t)]``
    over a midpoint grid of ``nfreq`` in-band frequencies with independent
    standard-normal a_k, b_k from ``default_rng(seed)``. The discretization
    approximates the continuous process for |t| well inside 1/d_omega.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    omegas, amps = _synthesis_weights(psd, nfreq)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(nfreq)
    b = rng.standard_normal(nfreq)
    phases = np.multiply.outer(omegas, t_grid)
    return (amps * a) @ np.cos(phases) + (amps * b) @ np.sin(phases)


def empirical_mse(psd, interpolator_kind, T, N, t_eval, realizations, seed,
                  nfreq=SYNTHESIS_GRID_SIZE):
    """Monte-Carlo mean squared error of one interpolator kind at ``t_eval``."""
    return float(np.mean(squared_errors(psd, interpolator_kind, T, N, t_eval,
                                        realizations, seed, nfreq=nfreq)))


def squared_errors(psd, interpolator_kind, T, N, t_eval, realizations, seed,
                   nfreq=SYNTHESIS_GRID_SIZE):
    """Per-realization squared errors |xhat(t_eval) - x(t_eval)|^2.

    ``interpolator_kind`` is one of ``shannon`` (truncated sinc),
    ``uniform_weight`` (flat weights over the density's band), or
    ``matched_weight`` (W = 1/S). Realization k draws from
    ``default_rng([seed, k])`` regardless of kind, so kinds see identical
    processes.
    """
    if interpolator_kind not in MSE_KINDS:
        raise ValueError(f"unknown interpolator kind {interpolator_kind!r}; "
                         f"expected one of {MSE_KINDS}")
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    nodes = np.arange(-N, N + 1) * T
    predictor = _node_predictor(psd, interpolator_kind, T, N, float(t_eval))

    omegas, amps = _synthesis_weights(psd, nfreq)
    tpts = np.concatenate([nodes, [float(t_eval)]])
    phases = np.multiply.outer(omegas, tpts)
    cos_t = amps[:, None] * np.cos(phases)
    sin_t = amps[:, None] * np.sin(phases)

    errors = np.empty(realizations)
    for k in range(realizations):
        rng = np.random.default_rng([seed, k])
        a = rng.standard_normal(nfreq)
        b = rng.standard_normal(nfreq)
        vals = a @ cos_t + b @ sin_t
        errors[k] = abs(predictor(vals[:-1]) - vals[-1]) ** 2
    return errors


def _node_predictor(psd, kind, T, N, t_eval):
    """Precompute a map from node samples to the estimate at t_eval."""
    if kind == "shannon":
        row = np.sinc(t_eval / T - np.arange(-N, N + 1))
        return lambda x: row @ x
    if kind == "uniform_weight":
        kern = Kernel.uniform(psd.bandwidth_B)
    else:
        kern = psd.matched_kernel()
    gram = build_gram(kern, T, N)
    factor = gram.factor()
    psi_vec = psi_closed_form(kern, t_eval - gram.times)
    return lambda x: psi_vec @ cho_solve(factor, x)


def _synthesis_weights(psd, nfreq):
    edge = 2.0 * np.pi * psd.bandwidth_B
    d_omega = edge / nfreq
    omegas = (np.arange(nfreq) + 0.5) * d_omega
    amps = np.sqrt(psd.values(omegas) * d_omega / np.pi)
    return omegas, amps

"""Stochastic oracle: stationary bandlimited processes and LMMSE estimation.

A zero-mean wide-sense-stationary process with in-band power spectral
density S has autocorrelation ``R(tau) = (1/2pi) integral S cos(omega tau)``;
the linear minimum-mean-squared-error interpolator of its samples expands in
translates of R(tau) with coefficients pinned by node exactness. Choosing
frequency weights W = 1/S makes the deterministic weighted interpolant
identical to this estimator, which the Monte-Carlo harness here quantifies.
So R is the kernel of W = 1/S: every density (weight spec, tabulated grid or
flat level, the last a flat weight spec) maps to a `Kernel` through
`PSDModel.matched_kernel`, and R and the LMMSE estimate come from the kernel
pipeline in closed form. A Monte-Carlo predictor is one row of node weights,
truncated sinc or the cardinal values that the power function also uses.

Randomness uses numpy's PCG64 generator (``numpy.random.default_rng``);
realization k of a run seeded with s draws from ``default_rng([s, k])``, so
results are reproducible for a fixed seed schedule.
"""

from dataclasses import dataclass, field

import numpy as np

from .interpolate import _cardinal_values, build_gram, evaluate, solve
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
        if self.grid is not None:
            return Kernel.from_grid(self.bandwidth_B, self.grid)
        spec = self.spec
        if spec is None:
            # Flat density gamma^2: no splines, the full-band floor alone
            spec = WeightSpec(self.bandwidth_B, 0, 0, np.zeros(1), self.uniform_level)
        return Kernel(self.bandwidth_B, spec=spec)


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
    approximates the continuous process for |t| well inside 1/d_omega. The
    result has the shape of ``t_grid``.
    """
    t = np.asarray(t_grid, dtype=float)
    cos_t, sin_t = _synthesis_basis(psd, t.ravel(), nfreq)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(nfreq)
    b = rng.standard_normal(nfreq)
    # [()] turns a 0-d result into a scalar
    return (a @ cos_t + b @ sin_t).reshape(t.shape)[()]


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
    processes. The error is linear in the draws, ``a.c + b.s`` with c = C [r; -1],
    s = S [r; -1] for the synthesis basis C, S at (nodes, t_eval) and row r.
    """
    if interpolator_kind not in MSE_KINDS:
        raise ValueError(f"unknown interpolator kind {interpolator_kind!r}; "
                         f"expected one of {MSE_KINDS}")
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    t_eval = float(t_eval)
    weights = np.append(_predictor_row(psd, interpolator_kind, T, N, t_eval), -1.0)
    cos_t, sin_t = _synthesis_basis(psd, np.append(np.arange(-N, N + 1) * T, t_eval),
                                    nfreq)
    c = cos_t @ weights
    s = sin_t @ weights

    errors = np.empty(realizations)
    for k in range(realizations):
        rng = np.random.default_rng([seed, k])
        a = rng.standard_normal(nfreq)
        b = rng.standard_normal(nfreq)
        errors[k] = (a @ c + b @ s) ** 2
    return errors


def _predictor_row(psd, kind, T, N, t_eval):
    """Weights of the node samples x[-N..N] in the estimate at t_eval."""
    if kind == "shannon":
        return np.sinc(t_eval / T - np.arange(-N, N + 1))
    if kind == "uniform_weight":
        kern = Kernel.uniform(psd.bandwidth_B)
    else:
        kern = psd.matched_kernel()
    return _cardinal_values(build_gram(kern, T, N), t_eval)[0]


def _synthesis_basis(psd, t, nfreq):
    """sqrt(S(omega_k) d_omega / pi) times cos and sin(omega_k t) on the midpoint
    grid of ``nfreq`` in-band omega_k, for 1-d t; shape (nfreq, t.size)."""
    edge = 2.0 * np.pi * psd.bandwidth_B
    d_omega = edge / nfreq
    omegas = (np.arange(nfreq) + 0.5) * d_omega
    amps = np.sqrt(psd.values(omegas) * d_omega / np.pi)[:, None]
    phases = np.multiply.outer(omegas, t)
    return amps * np.cos(phases), amps * np.sin(phases)

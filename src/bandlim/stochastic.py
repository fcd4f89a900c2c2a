"""Stochastic oracle: stationary bandlimited processes and LMMSE estimation.

A zero-mean wide-sense-stationary process with in-band power spectral
density S has autocorrelation ``R(tau) = (1/2pi) integral S cos(omega tau)``,
which is the kernel of the weights W = 1/S. So a PSD here *is* that
`Kernel`: its reciprocal weight is the density (a weight spec, a tabulated
grid, or a flat level, the last the flat spec of `Kernel.uniform`), R is
`psi_closed_form` of it, and the linear minimum-mean-squared-error estimate
of the process from its samples is the weighted interpolant of that kernel.
`PSDModel` only names the three constructors. A Monte-Carlo predictor is one
row of node weights, truncated sinc or the cardinal values that the power
function also uses.

Randomness uses numpy's PCG64 generator (``numpy.random.default_rng``);
realization k of a run seeded with s draws from ``default_rng([s, k])``, so
results are reproducible for a fixed seed schedule. Each realization makes
one draw of 2 ``nfreq`` normals into a buffer of its chunk, whose halves are
the cosine and the sine amplitudes. `squared_errors` splits its realizations
into contiguous chunks, one per CPU in the process's affinity set
(``taskset`` confines a run to one core), and the draws release the GIL.
Each realization keeps its own generator and arithmetic, so the errors are
bitwise the same on any number of CPUs.
"""

import operator

import numpy as np

from ._parallel import cpu_count, run_split
from .interpolate import _cardinal_values, build_gram, evaluate, solve
from .kernel import Kernel, _check_spacing, _check_times, psi_closed_form

SYNTHESIS_GRID_SIZE = 2048
MSE_KINDS = ("shannon", "uniform_weight", "matched_weight")

# Realizations per chunk at least. On a 2-core host a realization took about
# 70 us and starting and joining a thread 90-110 us, some 1.5 realizations;
# calls below twice this run inline.
_MIN_CHUNK = 64


class PSDModel:
    """Constructors of the kernel whose reciprocal weight is an in-band power
    spectral density S (zero outside the band), i.e. the kernel of W = 1/S."""

    # S equals the spec's reciprocal weight, so the weights match it
    from_weight_spec = staticmethod(Kernel.from_spec)
    # flat density S = level
    uniform = staticmethod(Kernel.uniform)

    @staticmethod
    def from_grid(bandwidth_B, grid):
        """Kernel of a tabulated density, which must stay above zero in-band."""
        if np.min(grid.values) <= 0:
            raise ValueError("grid density must be bounded away from zero in-band")
        return Kernel.from_grid(bandwidth_B, grid)


def autocorrelation(psd, tau):
    """Autocorrelation R(tau), the inverse Fourier transform of the density."""
    return psi_closed_form(psd, tau)


def lmmse_interpolate(samples, psd, t, ridge_sigma2=0.0):
    """LMMSE estimate of the process at times ``t`` from its samples.

    This is the weighted interpolant with W = 1/S, whose kernel is the
    autocorrelation. With ``ridge_sigma2 > 0`` only the ridged Gram matrix
    has to be positive definite.
    """
    gram = build_gram(psd, samples.spacing_T, samples.half_count_N)
    return evaluate(solve(gram, samples, ridge_sigma2), t)


def empirical_mse(psd, interpolator_kind, T, N, t_eval, realizations, seed,
                  nfreq=SYNTHESIS_GRID_SIZE):
    """Monte-Carlo mean squared error of one interpolator kind at ``t_eval``."""
    return float(np.mean(squared_errors(psd, interpolator_kind, T, N, t_eval,
                                        realizations, seed, nfreq=nfreq)))


def squared_errors(psd, interpolator_kind, T, N, t_eval, realizations, seed,
                   nfreq=SYNTHESIS_GRID_SIZE):
    """Per-realization squared errors (xhat(t_eval) - x(t_eval))^2.

    ``interpolator_kind`` is one of ``shannon`` (truncated sinc),
    ``uniform_weight`` (flat weights over the density's band), or
    ``matched_weight`` (W = 1/S). Realization k draws from
    ``default_rng([seed, k])`` regardless of kind, so kinds see identical
    processes. The error is linear in the draws, ``a.c + b.s`` with c = C [r; -1],
    s = S [r; -1] for the synthesis basis C, S at (nodes, t_eval) and row r;
    a and b are the halves of one draw of 2 ``nfreq`` normals, bitwise the
    two draws of ``nfreq`` (the generator keeps no normal between calls).
    A NaN, infinite or overflowing ``t_eval``, or a spacing whose node times
    overflow, raises `ValueError` first.

    The realizations are split into contiguous chunks, one per CPU in the
    process's affinity set and at least ``_MIN_CHUNK`` each; the caller fills
    the first and one thread each the others. The one normal draw of a
    realization releases the GIL, so the chunks trade it once per
    realization. Realization k still draws from its own
    ``default_rng([seed, k])``, so the errors are bitwise independent of the
    CPU count, and the first m errors of a call are those of the same call
    with m realizations. A failing chunk's exception is raised here once
    every thread has ended.
    """
    if interpolator_kind not in MSE_KINDS:
        raise ValueError(f"unknown interpolator kind {interpolator_kind!r}; "
                         f"expected one of {MSE_KINDS}")
    N = _count("half count N", N, least=0)
    realizations = _count("realizations", realizations)
    nfreq = _count("nfreq", nfreq)
    _check_spacing(T, N)
    t_eval = float(t_eval)
    if not np.isfinite(t_eval):
        raise ValueError(f"t_eval must be finite, got {t_eval}")
    _check_times(t_eval, max(2.0 * np.pi * psd.bandwidth_B, np.pi / T), N * T)
    weights = np.append(_predictor_row(psd, interpolator_kind, T, N, t_eval), -1.0)
    cos_t, sin_t = _synthesis_basis(psd, np.append(np.arange(-N, N + 1) * T, t_eval),
                                    nfreq)
    c = cos_t @ weights
    s = sin_t @ weights

    errors = np.empty(realizations)

    def fill(start, stop):
        draws = np.empty(2 * nfreq)
        a, b = draws[:nfreq], draws[nfreq:]
        for k in range(start, stop):
            np.random.default_rng([seed, k]).standard_normal(out=draws)
            errors[k] = (a @ c + b @ s) ** 2

    chunks = max(1, min(cpu_count(), realizations // _MIN_CHUNK))
    run_split(fill, [realizations * i // chunks for i in range(chunks + 1)])
    return errors


def _count(name, value, least=1):
    """``value`` as an int >= ``least``, else a ValueError that names it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _predictor_row(psd, kind, T, N, t_eval):
    """Weights of the node samples x[-N..N] in the estimate at t_eval."""
    if kind == "shannon":
        return np.sinc(t_eval / T - np.arange(-N, N + 1))
    kern = Kernel.uniform(psd.bandwidth_B) if kind == "uniform_weight" else psd
    return _cardinal_values(build_gram(kern, T, N), t_eval)


def _synthesis_basis(psd, t, nfreq):
    """sqrt(S(omega_k) d_omega / pi) times cos and sin(omega_k t) on the midpoint
    grid of ``nfreq`` in-band omega_k, for 1-d t; shape (nfreq, t.size). The
    draws over it approximate the process for |t| well inside 1/d_omega."""
    edge = 2.0 * np.pi * psd.bandwidth_B
    d_omega = edge / nfreq
    omegas = (np.arange(nfreq) + 0.5) * d_omega
    amps = np.sqrt(psd.reciprocal(omegas) * d_omega / np.pi)[:, None]
    phases = np.multiply.outer(omegas, t)
    return amps * np.cos(phases), amps * np.sin(phases)

import os
import threading
from collections import namedtuple
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve as dense_solve, toeplitz

from bandlim import (AnalyticSignal, DensityGrid, Kernel, WeightSpec, inverse_weight_eval,
                     matched_weights, psi_closed_form)
from bandlim import _lapack, _parallel, interpolate

BANDWIDTH = 1.0


@pytest.fixture(scope="session")
def bandwidth():
    return BANDWIDTH


@pytest.fixture(scope="session")
def lowfreq_signal():
    return AnalyticSignal.lowfreq(BANDWIDTH)


@pytest.fixture(scope="session")
def highfreq_signal():
    return AnalyticSignal.highfreq(BANDWIDTH)


@pytest.fixture(scope="session")
def lowpass_spec(lowfreq_signal):
    """Weights matched to the low-frequency-dominant signal (K=3, M=11)."""
    return matched_weights(lowfreq_signal)


@pytest.fixture(scope="session")
def highpass_spec(highfreq_signal):
    return matched_weights(highfreq_signal)


@pytest.fixture(scope="session")
def lowpass_kernel(lowpass_spec):
    return Kernel.from_spec(lowpass_spec)


@pytest.fixture(scope="session")
def highpass_kernel(highpass_spec):
    return Kernel.from_spec(highpass_spec)


@pytest.fixture(scope="session")
def uniform_kernel():
    return Kernel.uniform(BANDWIDTH)


def random_weight_spec(seed, degree_K=None, half_count_M=None, bandwidth_B=None):
    """A random valid symmetric spec with strictly positive reciprocal weight."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(0, 6)) if degree_K is None else degree_K
    M = int(rng.integers(2, 13)) if half_count_M is None else half_count_M
    B = float(rng.choice([0.5, 1.0, 2.0])) if bandwidth_B is None else bandwidth_B
    half = rng.uniform(0.2, 1.5, M + 1)
    d = np.concatenate([half[:0:-1], half])
    alpha = float(rng.uniform(0.01, 0.3))
    return WeightSpec(B, K, M, d, alpha)


# The tolerance of a lattice kernel-matrix entry (`kernel_rows`) against
# the direct psi(t - nT): its argument may differ from t - nT by a few ulps
# of the largest argument, so it is 8 ulps of psi0 times
# (1 + 2 pi B max|t - nT|): psi sums terms whose sizes add up to about psi0
# (for a positive density psi0 = max|psi|), so its roundoff is about eps psi0
# wherever it is evaluated, and Bernstein's bound |psi'| <= 2 pi B psi0 turns
# argument ulps into ulps of psi0. Far from 0 max|psi| over the window can be
# 1e-3 psi0 or less, and a bound scaled by it fell below the error of the
# direct path itself (`test_interpolate.FAR_GRID_DRAW`). (Over 3000 random
# lattice cases the largest deviation was 2.4 units, even with max|psi| in
# place of psi0.)
TOL_ULPS = 8.0


def lattice_tolerance(kernel, t, T, N):
    # max|t - nT| over n = -N..N is max|t| + NT
    return TOL_ULPS * np.finfo(float).eps * kernel.psi0 * (
        1.0 + 2.0 * np.pi * kernel.bandwidth_B * (np.max(np.abs(t)) + N * T))


def classical_bound(samples, E, t):
    """The classical pointwise bound of truncated sinc interpolation for
    truths of energy at most E^2, C sqrt((1 - sum_n sinc^2(t/T - n)) / T)
    over n = -N..N with C = sqrt(E^2 - T sum_n x[n]^2): the bound that the
    weighted one reduces to at W = 1 and critical spacing."""
    T, N = samples.spacing_T, samples.half_count_N
    constant = np.sqrt(E * E - T * np.sum(samples.values ** 2))
    s = np.sinc(np.asarray(t, dtype=float)[:, None] / T - np.arange(-N, N + 1))
    return constant * np.sqrt(np.maximum(1.0 - np.sum(s * s, axis=1), 0.0) / T)


def dense_gram(gram):
    """The full Gram matrix R = psi((m - n) T) of a `GramMatrix`, as a test
    reference: the symmetric Toeplitz matrix of its first row."""
    return toeplitz(gram.first_row)


def dense_kernel_matrix(kernel, t, T, N):
    return psi_closed_form(kernel, t[..., None] - np.arange(-N, N + 1) * T)


def kernel_rows(gram, t):
    """The kernel rows psi(t_j - nT) over the nodes of ``gram`` as
    `interpolate._kernel_rows` gives them in one block that spans every
    point, with shape ``t.shape + (2N+1,)``."""
    t = np.asarray(t, dtype=float)
    ((_, _, rows),) = interpolate._kernel_rows(gram, t.ravel(), [0, t.size])
    return rows.reshape(t.shape + (gram.size,))


def dense_power_sq(kernel, R, dense, tol):
    """The second-order P^2 = psi0 - 2 u.v + u.R u, u = R^{-1} v, from the full
    R and the dense kernel matrix (last axis over n), clamped at 0 and
    flattened, with its tolerance: P^2 is perturbed by -2 u.dv to first order
    in the kernel row v and by rounding of the same order in the quadratic
    terms, so ``tol`` (of one kernel entry) is scaled by max (1 + |u|_1)^2."""
    v = dense.reshape(-1, R.shape[0]).T
    u = dense_solve(R, v, assume_a="pos")
    p2 = kernel.psi0 - 2.0 * np.sum(u * v, axis=0) + np.sum(u * (R @ u), axis=0)
    u1 = np.sum(np.abs(u), axis=0)
    return np.maximum(p2, 0.0), tol * np.max((1.0 + u1) ** 2)


def grid_kernel(seed, B):
    """A tabulated-density kernel at bandwidth B: 12 seeded nodes over
    +-1.1 times the band, with values in [0.1, 3)."""
    rng = np.random.default_rng(seed)
    omegas = np.unique(rng.uniform(-1.1, 1.1, 12)) * 2.0 * np.pi * B
    return Kernel.from_grid(B, DensityGrid(omegas, rng.uniform(0.1, 3.0, omegas.size)))


@contextmanager
def split_cpus(cpus, blas_threads, min_flops=None):
    """Pretend the process may run on ``cpus`` CPUs and the BLAS reports
    ``blas_threads``, with both gates of the Gram halves (their flops and
    the factor entries of a one-vector solve) at ``min_flops`` when given;
    yield the threads started meanwhile."""
    started = []
    start = threading.Thread.start
    with ExitStack() as stack:
        stack.enter_context(patch.object(os, "sched_getaffinity",
                                         lambda pid: set(range(cpus)), create=True))
        stack.enter_context(patch.object(_lapack, "blas_threads", lambda: blas_threads))
        stack.enter_context(patch.object(threading.Thread, "start",
                                         lambda thread: started.append(thread) or start(thread)))
        if min_flops is not None:
            stack.enter_context(patch.object(_parallel, "_MIN_SPLIT_FLOPS", min_flops))
            stack.enter_context(patch.object(interpolate, "_MIN_SPLIT_SOLVE", min_flops))
        yield started


FlatGramReference = namedtuple("FlatGramReference", "dense v u p2 c norm_sq")


def flat_gram_reference(bandwidth_B, T, N, t, x):
    """The Gram pipeline of the flat kernel 2B sinc(2B t) at 50 digits.

    R[m, n] = psi((m - n) T) and v[n, j] = psi(t_j - nT) over n = -N..N,
    u = R^{-1} v by a Cholesky factorization of the full R (not its halves)
    and P^2 = psi(0) - u.v; for the samples x over n = -N..N, the
    coefficients c = R^{-1} x by the same factorization and the weighted
    norm c.R c = c.x. Each is rounded to float64 at the end. B, T, t and x
    enter as their exact binary values, so the reference carries no float64
    rounding of its own before that last step.
    """
    with mpmath.workdps(50):
        two_b, step = 2 * mpmath.mpf(bandwidth_B), mpmath.mpf(T)

        def psi(x):
            return two_b * mpmath.sincpi(two_b * x)

        size = 2 * N + 1
        lags = [psi(k * step) for k in range(size)]
        chol = mpmath.cholesky(mpmath.matrix(
            [[lags[abs(i - j)] for j in range(size)] for i in range(size)]))
        rows = [[chol[i, j] for j in range(i + 1)] for i in range(size)]

        def cholesky_solve(col):
            y = []
            for i in range(size):
                y.append((col[i] - mpmath.fdot(rows[i][:i], y)) / rows[i][i])
            sol = [None] * size
            for i in reversed(range(size)):
                below = [rows[k][i] for k in range(i + 1, size)]
                sol[i] = (y[i] - mpmath.fdot(below, sol[i + 1:])) / rows[i][i]
            return sol

        v, u, p2 = [], [], []
        for tv in np.asarray(t, dtype=float).ravel():
            col = [psi(mpmath.mpf(float(tv)) - n * step) for n in range(-N, N + 1)]
            sol = cholesky_solve(col)
            v.append(col)
            u.append(sol)
            p2.append(psi(0) - mpmath.fdot(sol, col))
        samples = [mpmath.mpf(float(xv)) for xv in x]
        c = cholesky_solve(samples)

        def to_float(values):
            return np.array(values, dtype=object).astype(float)

        dense = to_float([[lags[abs(i - j)] for j in range(size)] for i in range(size)])
        return FlatGramReference(dense=dense, v=to_float(v).T, u=to_float(u).T,
                                 p2=to_float(p2), c=to_float(c),
                                 norm_sq=float(mpmath.fdot(c, samples)))


def grid_kernel_reference(kernel, t, T, N):
    """psi(t_j - nT) of a tabulated-density kernel at 50 digits, with shape
    ``t.shape + (2N+1,)`` over n = -N..N.

    The density S is ``np.interp`` over the grid (linear between nodes,
    constant beyond the end nodes), and psi(x) = (1/pi) integral_0^{2piB}
    S cos(omega x). On a piece [a, b] where S = S(a) + m (omega - a) the
    integral is [S sin(omega x)/x + m cos(omega x)/x^2] from a to b, and the
    trapezoid (b - a)(S(a) + S(b))/2 at x = 0; the cancellation of the first
    form as x -> 0 costs digits that 50 do not miss for |x| > 1e-12. The band
    edge is 2 pi B at 50 digits, and t_j - nT is formed exactly from the
    binary t_j and T, so nothing is rounded to float64 before the end.
    """
    with mpmath.workdps(50):
        omegas = [mpmath.mpf(float(om)) for om in kernel.grid.omegas]
        values = [mpmath.mpf(float(v)) for v in kernel.grid.values]
        edge = 2 * mpmath.pi * mpmath.mpf(kernel.bandwidth_B)

        def density(om):
            if om <= omegas[0]:
                return values[0]
            if om >= omegas[-1]:
                return values[-1]
            i = next(i for i in range(len(omegas) - 1) if om <= omegas[i + 1])
            return values[i] + (values[i + 1] - values[i]) * (om - omegas[i]) / (
                omegas[i + 1] - omegas[i])

        cuts = [mpmath.mpf(0)] + [om for om in omegas if 0 < om < edge] + [edge]
        pieces = [(a, b, density(a), density(b)) for a, b in zip(cuts[:-1], cuts[1:])]

        def psi(x):
            total = mpmath.mpf(0)
            for a, b, sa, sb in pieces:
                if x == 0:
                    total += (b - a) * (sa + sb) / 2
                else:
                    m = (sb - sa) / (b - a)
                    total += (sb * mpmath.sin(b * x) - sa * mpmath.sin(a * x)) / x \
                        + m * (mpmath.cos(b * x) - mpmath.cos(a * x)) / (x * x)
            return total / mpmath.pi

        step = mpmath.mpf(float(T))
        t = np.asarray(t, dtype=float)
        out = [[float(psi(mpmath.mpf(float(tv)) - n * step)) for n in range(-N, N + 1)]
               for tv in t.ravel()]
        return np.array(out).reshape(t.shape + (2 * N + 1,))


def tabulated_transform_reference(bandwidth_B, grid, t, order=12):
    """(1/pi) integral_0^{2piB} S(omega) cos(omega t) by Gauss-Legendre rules.

    S is ``np.interp`` over the grid (linear between nodes, constant beyond
    the end nodes). Each stretch between the grid nodes inside the band is
    split so that a subinterval spans at most one radian of ``omega t`` at
    the largest |t|, where the order-``order`` rule is exact to rounding.
    """
    return _piecewise_transform_reference(
        bandwidth_B, lambda om: np.interp(om, grid.omegas, grid.values), grid.omegas,
        t, order)


def spec_transform_reference(spec, t, order=12):
    """The same Gauss-Legendre transform of a weight spec's reciprocal weight.

    Between the spline knots 2A (m + j - (K+1)/2) the reciprocal weight is a
    polynomial of degree K, so the rules are exact to rounding there too.
    """
    K, M = spec.degree_K, spec.half_count_M
    knots = 2.0 * spec.spacing_A * (np.arange(-M, M + 1)[:, None]
                                    + np.arange(K + 2) - 0.5 * (K + 1))
    return _piecewise_transform_reference(
        spec.bandwidth_B, lambda om: inverse_weight_eval(spec, om), np.unique(knots),
        t, order)


def _piecewise_transform_reference(bandwidth_B, density, breaks, t, order):
    t = np.asarray(t, dtype=float)
    edge = 2.0 * np.pi * bandwidth_B
    cuts = np.concatenate([[0.0], breaks[(breaks > 0.0) & (breaks < edge)], [edge]])
    reach = float(np.max(np.abs(t), initial=0.0))
    edges = np.concatenate([np.linspace(lo, hi, int(np.ceil((hi - lo) * reach)) + 2)[:-1]
                            for lo, hi in zip(cuts[:-1], cuts[1:])] + [[edge]])
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = edges[:-1, None], edges[1:, None]
    points = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w).ravel() * density(points) / np.pi
    flat = t.ravel()
    out = np.array([np.cos(tv * points) @ weights for tv in flat])
    return out.reshape(t.shape)


def tabulated_transform_scale(bandwidth_B, grid):
    """(1/pi) integral_0^{2piB} |S|, the scale of the transform's values."""
    edge = 2.0 * np.pi * bandwidth_B
    om = np.linspace(0.0, edge, 20001)
    s = np.abs(np.interp(om, grid.omegas, grid.values))
    return float(np.sum(0.5 * (s[1:] + s[:-1]) * np.diff(om)) / np.pi)

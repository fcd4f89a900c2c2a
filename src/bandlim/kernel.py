"""Time-domain interpolation kernel attached to a frequency weight.

The kernel is the inverse Fourier transform of the reciprocal weight over
the band, using the ``(1/2pi) integral G(omega) exp(j omega t) domega``
convention. There are two variants, both evaluated in closed form by
`psi_closed_form`. For the B-spline weight family

    psi(t) = (A/pi) sinc(A t / pi)^(K+1) [ d_0 + 2 sum_{m>=1} d_m cos(2 A m t) ]
             + 2 alpha B sinc(2 B t),

real and even because the coefficients are real and symmetric. Uniform
weights W = 1 are the flat spec with no spline mass and floor alpha = 1,
whose kernel is the floor term ``2 B sinc(2 B t)`` alone. The cosine
polynomial is a Chebyshev series in ``x = cos(2 A t)``, summed by Clenshaw's
recurrence (one ``cos`` per entry), and the sinc power is K multiplies. For
a tabulated density S (reciprocal weight linear between grid nodes, as
``np.interp`` reads it, and constant beyond the end nodes) the transform
``(1/pi) integral_0^{2 pi B} S(omega) cos(omega t)`` is summed exactly over
the linear pieces. Both run over the flattened times in fixed blocks, so
temporaries stay O(block) and peak memory is the output array; an input of
one block or less is evaluated straight, with no loop. Past one block the
times are cut at the middle, and each half is evaluated in blocks from its
own start, on a CPU of its own (`_parallel.run_split`) where the process may
use two. Every value is computed from its own time alone: the spline blocks
are numpy ufuncs, entry by entry, and the density grid sums over its pieces
row by row in an ``einsum`` that makes no BLAS call. So the values are
bitwise those of one thread, of any other blocks and of each time alone,
whatever the BLAS. An adaptive-quadrature path evaluates the same transform
directly from the reciprocal weight; it is the independent oracle for the
closed forms and is used only to check them. A NaN, infinite or overflowing
time raises `ValueError` (`_check_times`).
"""

import sys
from dataclasses import dataclass

import numpy as np

from ._parallel import cpu_count, run_split
from .quadrature import DEFAULT_TOLERANCE, adaptive_simpson
from .weights import DensityGrid, WeightSpec, _check_bandwidth, flat_spec, \
    inverse_weight_eval

# Entries of t per evaluation block: large enough to amortize the Python loop,
# small enough for the block temporaries to stay in cache (2^14..2^16 timed
# the same).
_BLOCK = 1 << 14

# Below this |x| the piece factors sin(x)/x and (sin x - x cos x)/x^2 come
# from their Taylor series (ascending powers of x^2, truncation under 1e-16
# relative), where the direct forms would cancel.
_SERIES_LIMIT = 0.5
_SINC_SERIES = np.array([1.0, -1 / 6, 1 / 120, -1 / 5040, 1 / 362880,
                         -1 / 39916800, 1 / 6227020800])
_SLOPE_SERIES = np.array([1 / 3, -1 / 30, 1 / 840, -1 / 45360, 1 / 3991680,
                          -1 / 518918400, 1 / 93405312000])


@dataclass(frozen=True)
class Kernel:
    """Interpolation kernel of exactly one of a weight spec or a density grid."""

    bandwidth_B: float
    spec: WeightSpec | None = None
    grid: DensityGrid | None = None

    def __post_init__(self):
        if (self.spec is None) == (self.grid is None):
            raise ValueError("a kernel takes exactly one of a weight spec or a "
                             "density grid")
        _check_bandwidth(self.bandwidth_B)
        if self.spec is not None and self.spec.bandwidth_B != self.bandwidth_B:
            raise ValueError("kernel bandwidth must match its weight spec")

    @classmethod
    def uniform(cls, bandwidth_B, level=1.0):
        """Kernel of the flat spec G = level over the band: uniform weights
        W = 1 at the default level, a flat density S = level otherwise."""
        return cls.from_spec(flat_spec(bandwidth_B, level))

    @classmethod
    def from_spec(cls, spec):
        return cls(bandwidth_B=spec.bandwidth_B, spec=spec)

    @classmethod
    def from_grid(cls, bandwidth_B, grid):
        """Kernel whose reciprocal weight is a tabulated density (W = 1/S)."""
        return cls(bandwidth_B=bandwidth_B, grid=grid)

    @property
    def psi0(self):
        """Kernel value at the origin, (1/2pi) times the band integral of G."""
        return float(psi_closed_form(self, 0.0))

    def reciprocal(self, omega):
        """Reciprocal weight G = 1/W at in-band angular frequencies."""
        if self.grid is not None:
            return np.interp(omega, self.grid.omegas, self.grid.values)
        return inverse_weight_eval(self.spec, omega)


def psi_closed_form(kernel, t):
    """Evaluate the kernel at times ``t`` via the closed-form expression.

    A NaN, infinite or overflowing time raises `ValueError`. Past one block,
    ``t`` is split at the middle over two CPUs (`_parallel.run_split`) when
    the process may use two, and each half is evaluated in blocks.
    Each value depends on its own time alone, so the values are bitwise those
    of one thread, and of each time evaluated by itself.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    _check_times(flat, 2.0 * np.pi * kernel.bandwidth_B)
    values, step = (_spec_values(kernel.spec) if kernel.grid is None
                    else _grid_values(kernel))
    if flat.size <= step:
        # [()] turns a 0-d result into a scalar, as the ufunc path returns
        return values(flat).reshape(t.shape)[()]
    out = np.empty(flat.shape)

    def fill(start, stop):
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            out[lo:hi] = values(flat[lo:hi])

    # on a 2-core host one block and one time of spec psi took 455 us split
    # against 755 us inline, and of grid psi 536 against 879 us
    if cpu_count() >= 2:
        run_split(fill, [0, flat.size // 2, flat.size])
    else:
        fill(0, flat.size)
    return out.reshape(t.shape)


def _check_times(t, omega, offset=0.0):
    """Raise `ValueError` for a NaN or infinite time in ``t``, or for one at
    which a kernel argument, at most ``omega (|t| + offset)`` for angular
    frequencies up to ``omega``, would overflow (with a factor 2 to spare
    for rounding) and its sin or cos read NaN."""
    t = np.asarray(t, dtype=float)
    # Python floats overflow to inf without a RuntimeWarning
    reach = float(max(t.max(initial=0.0), -t.min(initial=0.0)))
    omega, offset = 2.0 * float(omega), float(offset)
    if not (reach + offset) * omega < np.inf:
        raise ValueError("evaluation times must be finite and at most "
                         f"{sys.float_info.max / omega - offset:.6g} in magnitude")


def _check_spacing(T, N, span=1):
    """Raise `ValueError` unless the spacing T is finite and positive and the
    multiples n T with |n| <= span N are finite: the node times for
    ``span=1``, also their differences for ``span=2``. Checked in Python
    floats, before any array arithmetic on T and N could overflow."""
    if not 0 < T < np.inf:
        raise ValueError(f"spacing T must be finite and positive, got {T}")
    if not span * float(N) * float(T) < np.inf:
        raise ValueError(f"spacing T={T} with half count N={N} puts the node times "
                         "beyond the float range")


def _spec_values(spec):
    """The psi of a weight spec as a function of one block of times, and the
    block's length in times."""
    B = spec.bandwidth_B
    A = spec.spacing_A
    M = spec.half_count_M
    d = spec.coeffs_d
    floor = 2.0 * spec.floor_alpha * B
    # the flat spec has no spline mass: its kernel is the floor term alone
    if not d.any():
        return (lambda tb: floor * np.sinc(2.0 * B * tb)), _BLOCK
    # Chebyshev coefficients of d_M + 2 sum_m d_{M+m} T_m(x), x = cos(2 A t)
    cheb = np.concatenate([d[M:M + 1], 2.0 * d[M + 1:]])
    scale = A / np.pi

    def values(tb):
        s = np.sinc(A * tb / np.pi)
        env = s.copy()
        for _ in range(spec.degree_K):
            env *= s
        env *= scale
        env *= _clenshaw(cheb, np.cos(2.0 * A * tb))
        if floor != 0.0:
            env += floor * np.sinc(2.0 * B * tb)
        return env

    return values, _BLOCK


def _grid_values(kernel):
    """Transform of a tabulated density, summed exactly over its linear pieces,
    as a function of one block of times, and the block's length in times (of
    about ``_BLOCK`` entries of times by pieces).

    On a piece of width h = 2 delta around c the density is S_bar + m (omega - c),
    and its contribution to (1/pi) integral_0^{2piB} S cos(omega t) is

        (h S_bar / pi) cos(c t) sin(x)/x - (h m delta / pi) sin(c t) (sin x - x cos x)/x^2

    with x = delta t; at t = 0 the sum over pieces is the trapezoid rule.
    """
    edge = 2.0 * np.pi * kernel.bandwidth_B
    om = kernel.grid.omegas
    # np.interp is constant beyond the end nodes: those stretches are pieces too
    cuts = np.concatenate([[0.0], om[(om > 0.0) & (om < edge)], [edge]])
    s = np.interp(cuts, om, kernel.grid.values)
    width = np.diff(cuts)
    mid, half = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * width
    mean_w = width * (0.5 / np.pi) * (s[:-1] + s[1:])
    slope_w = width * (0.5 / np.pi) * (s[1:] - s[:-1])

    def values(tb):
        tb = np.abs(tb)
        x = np.multiply.outer(tb, half)
        x2 = x * x
        sinc = np.polynomial.polynomial.polyval(x2, _SINC_SERIES)
        slope = x * np.polynomial.polynomial.polyval(x2, _SLOPE_SERIES)
        big = x >= _SERIES_LIMIT
        if big.any():
            xb = x[big]
            sin_x = np.sin(xb)
            sinc[big] = sin_x / xb
            slope[big] = (sin_x - xb * np.cos(xb)) / (xb * xb)
        phase = np.multiply.outer(tb, mid)
        sinc *= np.cos(phase)
        slope *= np.sin(phase)
        # summed row by row with no BLAS call, so each value is its own
        return np.einsum("ij,j->i", sinc, mean_w) - np.einsum("ij,j->i", slope, slope_w)

    return values, max(1, _BLOCK // mid.size)


def _clenshaw(cheb, x):
    """Sum ``sum_k cheb[k] T_k(x)`` by Clenshaw's recurrence."""
    b1 = np.full_like(x, cheb[-1])
    if cheb.size == 1:
        return b1
    two_x = 2.0 * x
    b2 = np.zeros_like(x)
    tmp = np.empty_like(x)
    # b_k = c_k + 2x b_{k+1} - b_{k+2}, down to k = 1
    for c in cheb[-2:0:-1]:
        np.multiply(two_x, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    # c_0 + x b_1 - b_2
    b1 *= x
    b1 -= b2
    b1 += cheb[0]
    return b1


def psi_quadrature(kernel, t, tolerance=DEFAULT_TOLERANCE):
    """Evaluate the kernel at a single time by numerical integration.

    Integrates ``(1/2pi) integral_{-2piB}^{2piB} G(omega) cos(omega t)``
    with adaptive composite Simpson, exploiting evenness to cover only
    ``[0, 2piB]``. Independent of `psi_closed_form`; used as its oracle.

    Raises
    ------
    QuadratureError
        If refinement does not converge; carries the achieved estimate and
        an error bound.
    """
    t = float(t)
    edge = 2.0 * np.pi * kernel.bandwidth_B
    knots = kernel.grid.omegas if kernel.grid is not None else _spline_knots(kernel.spec)
    integrand = lambda om: kernel.reciprocal(om) * np.cos(om * t)
    value = adaptive_simpson(integrand, 0.0, edge, tolerance=tolerance,
                             breakpoints=knots)
    return value / np.pi


def shannon_kernel(T, t):
    """Classical interpolation kernel sinc(t/T) with sinc(0) = 1. A NaN,
    infinite or overflowing time raises `ValueError`."""
    if not 0 < T < np.inf:
        raise ValueError(f"spacing T must be finite and positive, got {T}")
    t = np.asarray(t, dtype=float)
    _check_times(t, np.pi / T)
    return np.sinc(t / T)


def _spline_knots(spec):
    # Piecewise-polynomial breakpoints of the reciprocal weight on [0, edge]:
    # each translated spline has knots at x = m + j - (K+1)/2 in units of 2A.
    K, M, A = spec.degree_K, spec.half_count_M, spec.spacing_A
    offsets = np.arange(K + 2) - 0.5 * (K + 1)
    x = (np.arange(-M, M + 1)[:, None] + offsets[None, :]).ravel()
    return np.unique(2.0 * A * x)

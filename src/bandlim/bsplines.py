"""Centered B-spline basis evaluation.

The degree-``K`` centered B-spline is the (K+1)-fold self-convolution of the
unit rectangle, supported on ``|x| < h`` with ``h = (K+1)/2``. Degree 0 is the
rectangle's indicator. Every degree K >= 1 is one symmetric truncated-power
sum (de Boor, *A Practical Guide to Splines*)

    beta_K(x) = sum_{0 <= j < h} (-1)^j C(K+1, j) max(h - j - |x|, 0)^K / K!,

which reads only |x|, so it is exactly even and vanishes continuously at the
support edge. Each power is K - 1 multiplies, so a term costs O(K).
"""

from math import comb, factorial

import numpy as np


def bspline_eval(degree_K, x):
    """Evaluate the centered B-spline of degree ``degree_K`` at ``x``.

    Parameters
    ----------
    degree_K : int
        Spline degree, >= 0.
    x : float or array_like
        Evaluation points.

    Returns
    -------
    ndarray
        Spline values, zero for ``|x| >= (degree_K + 1)/2``. Shape follows
        ``x`` (0-d array for scalar input).
    """
    if degree_K < 0:
        raise ValueError(f"B-spline degree must be >= 0, got {degree_K}")
    x = np.asarray(x, dtype=float)
    if degree_K == 0:
        return np.where(np.abs(x) < 0.5, 1.0, 0.0)
    ax = np.abs(x)
    half = 0.5 * (degree_K + 1)
    total = 0.0
    for j in range(degree_K // 2 + 1):  # 0 <= j < h
        r = np.maximum(half - j - ax, 0.0)
        power = np.array(r)
        for _ in range(degree_K - 1):
            power *= r
        total = total + (-1) ** j * comb(degree_K + 1, j) * power
    return total / factorial(degree_K)

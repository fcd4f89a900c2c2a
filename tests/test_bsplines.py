from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bandlim import bspline_eval


def convolution_oracle(degree, x):
    """(degree+1)-fold self-convolution of the unit rectangle on a fine grid.

    Independent brute-force reference: builds the rectangle indicator on a
    dense grid, convolves repeatedly, and linearly interpolates at x.
    """
    step = 1.0 / 4096.0
    half_support = 0.5 * (degree + 1) + 1.0
    n = int(round(half_support / step))
    grid = np.arange(-n, n + 1) * step  # exactly symmetric, odd length
    rect = np.where(np.abs(grid) < 0.5, 1.0, 0.0)
    rect[np.isclose(np.abs(grid), 0.5)] = 0.5  # trapezoidal jump weight
    out = rect
    for _ in range(degree):
        out = np.convolve(out, rect, mode="same") * step
    return np.interp(x, grid, out)


def test_rectangle_inside_support():
    assert bspline_eval(0, 0.25) == 1.0


def test_cubic_zero_at_support_edge():
    assert bspline_eval(3, 2.5) == 0.0
    assert bspline_eval(3, 2.0) == 0.0
    assert bspline_eval(3, -2.0) == 0.0


def test_cubic_center_matches_convolution_oracle():
    assert bspline_eval(3, 0.0) == pytest.approx(convolution_oracle(3, 0.0), abs=1e-5)
    # exact value of the cubic spline at its center
    assert bspline_eval(3, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6])
def test_matches_convolution_oracle(degree):
    # offset keeps comparison points off the measure-zero knots, where the
    # discretized rectangle carries midpoint values
    edge = 0.5 * (degree + 1)
    x = np.linspace(-edge - 0.5, edge + 0.5, 41) + 0.0101
    np.testing.assert_allclose(bspline_eval(degree, x),
                               convolution_oracle(degree, x), atol=2e-5)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
def test_support(degree):
    edge = 0.5 * (degree + 1)
    outside = np.array([edge, -edge, edge + 0.7, -edge - 2.3])
    assert np.all(bspline_eval(degree, outside) == 0.0)
    inside = np.linspace(-edge + 1e-6, edge - 1e-6, 25)
    assert np.all(bspline_eval(degree, inside) > 0.0)


@given(st.floats(-10, 10), st.integers(0, 10))
def test_even_symmetry(x, degree):
    assert bspline_eval(degree, x) == bspline_eval(degree, -x)


@given(st.floats(-4, 4), st.integers(1, 10))
def test_partition_of_unity(x, degree):
    # translates over all integers sum to one; |m| <= 10 covers the support
    m = np.arange(-10, 11)
    total = float(np.sum(bspline_eval(degree, x - m)))
    assert total == pytest.approx(1.0, abs=1e-12)


def _rectangle_midpoint(y):
    # degree 0 with the midpoint value at its jumps, where the recurrence
    # from degree 0 to degree 1 averages the two one-sided limits; y is an
    # exact Fraction, since a float x +- 1/2 can round onto a jump (x = 5e-17)
    half = Fraction(1, 2)
    return 1.0 if abs(y) < half else 0.5 if abs(y) == half else 0.0


@given(st.floats(-7, 7), st.integers(1, 10))
def test_two_term_recurrence(x, degree):
    # beta_K(x) = [(h + x) beta_{K-1}(x + 1/2) + (h - x) beta_{K-1}(x - 1/2)] / K
    # with h = (K + 1)/2: an independent route to every degree
    lower = _rectangle_midpoint if degree == 1 else (
        lambda y: float(bspline_eval(degree - 1, float(y))))
    h = 0.5 * (degree + 1)
    half = Fraction(1, 2)
    expected = ((h + x) * lower(Fraction(x) + half)
                + (h - x) * lower(Fraction(x) - half)) / degree
    assert float(bspline_eval(degree, x)) == pytest.approx(float(expected),
                                                            abs=1e-13)


def test_linear_and_cubic_are_the_one_sided_power_forms():
    # K = 1 is the hat max(0, 1 - |x|) and K = 3 is (r(2)^3 - 4 r(1)^3) / 6
    # with r(c) = max(c - |x|, 0), bit for bit
    x = np.random.default_rng(4).uniform(-2.5, 2.5, 20000)
    ax = np.abs(x)
    np.testing.assert_array_equal(bspline_eval(1, x), np.maximum(0.0, 1.0 - ax))
    outer = np.maximum(2.0 - ax, 0.0)
    inner = np.maximum(1.0 - ax, 0.0)
    np.testing.assert_array_equal(
        bspline_eval(3, x),
        (outer * outer * outer - 4.0 * inner * inner * inner) / 6.0)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        bspline_eval(-1, 0.0)

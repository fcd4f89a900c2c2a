"""Frequency weights parameterized through a B-spline expansion.

A weight function W is represented through its reciprocal

    G(omega) = sum_m d_m beta_K(omega / (2 A) - m) + alpha

on the angular-frequency band ``[-2 pi B, 2 pi B]``, with 2M+1 translated
degree-K splines at spacing ``A = 2 pi B / (K + 2M + 1)`` plus a full-band
floor ``alpha`` that keeps G strictly positive. Coefficients
are real and symmetric (``d[-m] == d[m]``), which makes the time-domain
kernel real and even.
"""

import copy
import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .bsplines import bspline_eval

VALIDATION_GRID_SIZE = 4096
POSITIVITY_RTOL = 1e-9


class BandError(ValueError):
    """Frequency argument outside the representable band."""


class WeightFitError(RuntimeError):
    """Least-squares weight fit produced a nonpositive reciprocal weight."""


class NonPositiveWeightError(ValueError):
    """Reciprocal weight of a spec is not strictly positive on the band."""


@dataclass(frozen=True)
class WeightSpec:
    """B-spline parameterization of a reciprocal frequency weight.

    Parameters
    ----------
    bandwidth_B : float
        Bandwidth in Hz; the band edge sits at angular frequency 2 pi B.
    degree_K : int
        B-spline degree, >= 0.
    half_count_M : int
        2M+1 splines are used.
    coeffs_d : ndarray
        Real symmetric coefficients for m = -M..M, stored at offsets 0..2M.
    floor_alpha : float
        Full-band floor added to the spline sum, >= 0.
    """

    bandwidth_B: float
    degree_K: int
    half_count_M: int
    coeffs_d: np.ndarray
    floor_alpha: float = 0.0
    # (min, max) of the reciprocal weight on the validation grid
    _range: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_bandwidth(self.bandwidth_B)
        spline_spacing(self.bandwidth_B, self.degree_K, self.half_count_M)
        if self.floor_alpha < 0:
            raise ValueError(f"floor_alpha must be >= 0, got {self.floor_alpha}")
        d = np.atleast_1d(np.asarray(self.coeffs_d, dtype=float))
        expected = 2 * self.half_count_M + 1
        if d.shape != (expected,):
            raise ValueError(
                f"coeffs_d must have length 2M+1 = {expected}, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("coeffs_d must be finite")
        scale = np.max(np.abs(d)) or 1.0
        if np.max(np.abs(d - d[::-1])) > 1e-12 * scale:
            raise ValueError("coeffs_d must be symmetric: d[-m] == d[m]")
        d.setflags(write=False)
        object.__setattr__(self, "coeffs_d", d)
        grid = self.validation_grid()
        g = inverse_weight_eval(self, grid)
        lo, hi = float(np.min(g)), float(np.max(g))
        if not lo > POSITIVITY_RTOL * hi:
            raise NonPositiveWeightError(
                "reciprocal weight is not strictly positive on the band near "
                f"omega = {grid[np.argmin(g)]:.6g} (min {lo:.3e} vs max {hi:.3e})")
        object.__setattr__(self, "_range", (lo, hi))

    @property
    def spacing_A(self):
        """Spline spacing in angular frequency: 2 pi B / (K + 2M + 1)."""
        return spline_spacing(self.bandwidth_B, self.degree_K, self.half_count_M)

    @property
    def band_edge(self):
        """Band edge in angular frequency, 2 pi B."""
        return 2.0 * np.pi * self.bandwidth_B

    def validation_grid(self):
        """Uniform interior grid on the open band used for positivity checks.

        The spline expansion vanishes continuously at the exact band edges,
        so those two measure-zero points are excluded.
        """
        edge = self.band_edge
        return np.linspace(-edge, edge, VALIDATION_GRID_SIZE + 2)[1:-1]

    def reciprocal_range(self):
        """(min, max) of the reciprocal weight on the validation grid."""
        return self._range

    def to_dict(self):
        return {
            "bandwidth_B": self.bandwidth_B,
            "degree_K": self.degree_K,
            "half_count_M": self.half_count_M,
            "coeffs_d": [float(v) for v in self.coeffs_d],
            "floor_alpha": self.floor_alpha,
        }

    @classmethod
    def from_dict(cls, doc):
        """The spec of a `to_dict` document. One that is not an object, lacks
        a key or has a field of the wrong type (`_integer`, `_number`;
        ``coeffs_d`` a list of numbers) raises `ValueError`."""
        if not isinstance(doc, dict):
            raise ValueError(f"weight document must be a JSON object, got {type(doc).__name__}")
        if not isinstance(coeffs := _lookup(doc, "coeffs_d"), list):
            raise ValueError(f"coeffs_d must be a list of numbers, got {coeffs!r}")
        # each entry is read as a number field of its own
        d = np.array([_number({"coeffs_d": v}, "coeffs_d") for v in coeffs])
        return cls(_number(doc, "bandwidth_B"), _integer(doc, "degree_K"),
                   _integer(doc, "half_count_M"), d, _number(doc, "floor_alpha"))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class DensityGrid:
    """Target spectral density sampled on an increasing frequency grid."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        om = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        va = np.atleast_1d(np.asarray(self.values, dtype=float))
        if om.shape != va.shape or om.ndim != 1:
            raise ValueError("omegas and values must be 1-d arrays of equal length")
        if om.size < 2:
            raise ValueError("density grid needs at least two nodes")
        if not np.all(np.diff(om) > 0):
            raise ValueError("omegas must be strictly increasing")
        if not np.all(np.isfinite(va)) or np.any(va < 0):
            raise ValueError("density values must be finite and nonnegative")
        om.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "values", va)

    @classmethod
    def from_csv(cls, path):
        omegas, values = [], []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"empty density file: {path}")
            for row in reader:
                if not row:
                    continue
                if len(row) < 2:
                    raise ValueError(f"{path} line {reader.line_num}: expected "
                                     f"(omega, value), got {row!r}")
                omegas.append(float(row[0]))
                values.append(float(row[1]))
        return cls(np.asarray(omegas), np.asarray(values))


def _lookup(doc, name, default=None):
    """The field ``name`` of a JSON object ``doc`` (dotted; its last part is
    the key), or ``default`` when it is absent (required if None)."""
    key = name.rpartition(".")[2]
    if key not in doc:
        if default is None:
            raise ValueError(f"missing key {name!r}")
        return default
    return doc[key]


def _number(doc, name, default=None):
    """The real field ``name`` of ``doc`` (`_lookup`) as a float. An int or a
    float passes; a bool or a string does not."""
    value = _lookup(doc, name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of range: {exc}") from exc


def _integer(doc, name, default=None):
    """The integer field ``name`` of ``doc`` (`_lookup`) as an int. JSON may
    write 10 as 10.0, so an integral float passes; a bool does not."""
    value = _lookup(doc, name, default)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value}")
    if not isinstance(value, (int, float)):
        raise ValueError(f"{name} is invalid: expected an integer, got {value!r}")
    return int(value)


def _check_bandwidth(bandwidth_B):
    if not 0.0 < bandwidth_B < np.inf:
        raise ValueError(f"bandwidth_B must be positive and finite, got {bandwidth_B}")


def spline_spacing(bandwidth_B, degree_K, half_count_M):
    """Spline spacing A = 2 pi B / (K + 2M + 1) in angular frequency.

    Validates the basis size first, so a bad K or M is reported by name.
    """
    if degree_K < 0:
        raise ValueError(f"degree_K must be >= 0, got {degree_K}")
    if half_count_M < 0:
        raise ValueError(f"half_count_M must be >= 0, got {half_count_M}")
    return 2.0 * np.pi * bandwidth_B / (degree_K + 2 * half_count_M + 1)


def identity_transform(tau):
    """Default density transform: pass the target density through unchanged."""
    return np.asarray(tau, dtype=float)


def power_transform(p, eps):
    """Density transform ``tau -> (tau + eps) ** (p/2 - 1)``.

    Increasing for p > 2, compressive/decreasing otherwise; ``eps > 0``
    keeps the transform finite at zero density.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    exponent = 0.5 * p - 1.0

    def theta(tau):
        return (np.asarray(tau, dtype=float) + eps) ** exponent

    return theta


def inverse_weight_eval(spec, omega):
    """Reciprocal weight G(omega) = 1/W(omega) on the closed band.

    Raises
    ------
    BandError
        If any ``|omega|`` exceeds the band edge 2 pi B, where the weight
        is undefined.
    """
    omega = np.asarray(omega, dtype=float)
    edge = spec.band_edge
    if np.any(np.abs(omega) > edge * (1 + 1e-15)):
        worst = float(np.max(np.abs(omega)))
        raise BandError(f"|omega| = {worst:.6g} outside band edge {edge:.6g}")
    return _spline_mix(spec.degree_K, spec.half_count_M, spec.coeffs_d,
                       omega / (2.0 * spec.spacing_A)) + spec.floor_alpha


def _translates(degree_K, half_count_M, x):
    """Yield (m, in_range, beta_K(x - m)) for the K + 1 translates that can be
    nonzero at each point of ``x``; ``in_range`` marks ``|m| <= half_count_M``."""
    first = np.floor(x - 0.5 * (degree_K + 1)).astype(int) + 1
    for j in range(degree_K + 1):
        m = first + j
        yield m, np.abs(m) <= half_count_M, bspline_eval(degree_K, x - m)


def _spline_mix(degree_K, half_count_M, coeffs, x):
    # gather the coefficients of the translates instead of forming the basis
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape)
    for m, in_range, beta in _translates(degree_K, half_count_M, x):
        dm = np.where(in_range, coeffs.take(m + half_count_M, mode="clip"), 0.0)
        total += dm * beta
    return total


def fit_weights(target, bandwidth_B, degree_K, half_count_M,
                floor_alpha=None, transform=None):
    """Fit symmetric spline coefficients to a transformed target density.

    Ordinary least squares matches the spline sum to ``theta(Z(omega)) -
    alpha`` at the grid nodes, with the M + 1 free coefficients d_0..d_M of
    the symmetric model (translates -m and m share one column), and
    validates strict positivity of the result. The model is even in omega,
    so a density tabulated on one side of the band fits as well as one
    tabulated on both.

    Parameters
    ----------
    target : DensityGrid
        Density samples covering the band, or its half omega >= 0.
    bandwidth_B : float
        Band edge / (2 pi), in Hz.
    degree_K, half_count_M : int
        Basis size parameters.
    floor_alpha : float, optional
        Rectangle-term coefficient. Defaults to 1e-3 * max(theta(Z)).
    transform : callable, optional
        Strictly increasing map applied to the density values (caller's
        responsibility); identity when omitted. See `power_transform`.

    Raises
    ------
    WeightFitError
        If the fitted reciprocal weight is nonpositive anywhere on the
        validation grid (the offending frequency is reported).
    """
    theta = transform if transform is not None else identity_transform
    spacing = spline_spacing(bandwidth_B, degree_K, half_count_M)
    edge = 2.0 * np.pi * bandwidth_B
    if np.any(np.abs(target.omegas) > edge * (1 + 1e-12)):
        raise BandError("density grid extends beyond the band edge")
    n_free = half_count_M + 1
    if target.omegas.size < n_free:
        raise ValueError(
            f"need at least {n_free} grid nodes to fit {n_free} coefficients, "
            f"got {target.omegas.size}")

    y = theta(target.values)
    if floor_alpha is None:
        floor_alpha = 1e-3 * float(np.max(y))
    # column |m| of the design sums the translates -m and m
    design = np.zeros((y.size, n_free))
    rows = np.arange(y.size)
    for m, in_range, beta in _translates(degree_K, half_count_M,
                                         target.omegas / (2.0 * spacing)):
        design[rows[in_range], np.abs(m[in_range])] += beta[in_range]
    half, *_ = np.linalg.lstsq(design, y - floor_alpha, rcond=None)
    d = np.concatenate([half[:0:-1], half])

    try:
        return WeightSpec(bandwidth_B, degree_K, half_count_M, d, floor_alpha)
    except NonPositiveWeightError as exc:
        raise WeightFitError(
            f"fitted {exc}; raise floor_alpha or smooth the target") from None


def gaussian_smooth(grid, sigma):
    """Smooth a density grid by discrete convolution with a Gaussian.

    Useful before fitting: features narrower than the spline spacing make
    the least-squares fit ring (and can push the fitted reciprocal weight
    negative), so targets are blurred to the basis resolution first.
    Requires a uniformly spaced grid.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    steps = np.diff(grid.omegas)
    if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
        raise ValueError("gaussian_smooth requires a uniform grid")
    step = float(steps[0])
    half = int(np.ceil(4.0 * sigma / step))
    kk = np.arange(-half, half + 1) * step
    kern = np.exp(-0.5 * (kk / sigma) ** 2)
    kern /= kern.sum()
    smoothed = np.convolve(grid.values, kern, mode="same")
    return DensityGrid(grid.omegas, np.maximum(smoothed, 0.0))


def flat_spec(bandwidth_B, level):
    """The flat spec G = ``level`` over the band (K = M = 0, d = 0).

    Built without `WeightSpec`'s positivity pass: its reciprocal weight is
    ``0 * beta + level``, exactly ``level`` at every in-band point, so a
    positive finite level is the whole check and the range is (level, level).
    """
    _check_bandwidth(bandwidth_B)
    if not 0.0 < level < np.inf:
        raise NonPositiveWeightError(
            f"flat level must be positive and finite, got {level}")
    coeffs = np.zeros(1)
    coeffs.setflags(write=False)
    spec = object.__new__(WeightSpec)
    for name, value in (("bandwidth_B", bandwidth_B), ("degree_K", 0),
                        ("half_count_M", 0), ("coeffs_d", coeffs),
                        ("floor_alpha", level), ("_range", (float(level),) * 2)):
        object.__setattr__(spec, name, value)
    return spec


def normalized(spec):
    """Rescale a spec so its reciprocal weight peaks at 1 on the band.

    Scaling W by a constant leaves the interpolant unchanged; a unit peak
    keeps kernel amplitudes and norm constants on a common scale.

    The copy skips `WeightSpec`'s validation: dividing a validated spec by
    its positive peak keeps it symmetric and positive, and its range is the
    validated range over the same peak.
    """
    lo, peak = spec.reciprocal_range()
    coeffs = spec.coeffs_d / peak
    coeffs.setflags(write=False)
    scaled = copy.copy(spec)
    object.__setattr__(scaled, "coeffs_d", coeffs)
    object.__setattr__(scaled, "floor_alpha", spec.floor_alpha / peak)
    object.__setattr__(scaled, "_range", (lo / peak, 1.0))
    return scaled

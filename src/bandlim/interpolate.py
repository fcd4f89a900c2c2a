"""Gram system assembly, coefficient solve, and interpolant evaluation.

Samples x[n] at uniform spacing T for logical indices n = -N..N are matched
by the kernel expansion ``xhat(t) = sum_n c_n psi(t - n T)``. Coefficients
come from the symmetric positive-definite Toeplitz system ``R c = x`` with
``R[m, n] = psi((m - n) T)``, optionally ridge-stabilized to
``(R + sigma^2 I) c = x`` for noisy samples. Logical indices are stored at
array offsets 0..2N throughout.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.linalg.lapack import dpocon

from .kernel import psi_closed_form, shannon_kernel

SOLVER_RTOL = 1e-9


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Gram matrix is numerically singular or indefinite.

    Carries ``condition_estimate`` so callers can report it and decide to
    retry with a ridge term.
    """

    def __init__(self, message, condition_estimate):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class SampleSet:
    """Uniform samples x[n], n = -N..N, at spacing T seconds."""

    spacing_T: float
    values: np.ndarray

    def __post_init__(self):
        if self.spacing_T <= 0:
            raise ValueError(f"spacing_T must be positive, got {self.spacing_T}")
        v = np.atleast_1d(np.asarray(self.values))
        if v.ndim != 1 or v.size % 2 == 0:
            raise ValueError(f"values must be 1-d with odd length 2N+1, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite")
        if not np.iscomplexobj(v):
            v = v.astype(float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def half_count_N(self):
        return (self.values.size - 1) // 2

    @property
    def indices(self):
        n = self.half_count_N
        return np.arange(-n, n + 1)

    @property
    def times(self):
        return self.indices * self.spacing_T

    def value(self, n):
        """Sample at logical index n, -N <= n <= N."""
        if abs(n) > self.half_count_N:
            raise IndexError(f"|n| must be <= {self.half_count_N}, got {n}")
        return self.values[n + self.half_count_N]

    @classmethod
    def from_csv(cls, path, spacing_T):
        """Read samples from CSV rows ``(n, value)`` or ``(n, re, im)``."""
        entries = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # header
            for row in reader:
                if not row:
                    continue
                if len(row) < 2:
                    raise ValueError(f"{path} line {reader.line_num}: expected "
                                     f"(n, value) or (n, re, im), got {row!r}")
                n = int(row[0])
                if len(row) >= 3:
                    entries[n] = complex(float(row[1]), float(row[2]))
                else:
                    entries[n] = float(row[1])
        if not entries:
            raise ValueError(f"no samples in {path}")
        nmax = max(abs(n) for n in entries)
        if sorted(entries) != list(range(-nmax, nmax + 1)):
            raise ValueError("sample indices must cover -N..N without gaps")
        vals = np.array([entries[n] for n in range(-nmax, nmax + 1)])
        return cls(spacing_T, vals)


@dataclass(frozen=True)
class GramMatrix:
    """Kernel Gram system for one (kernel, T, N) configuration.

    ``dense`` is the symmetric Toeplitz matrix psi((m - n) T). ``cholesky``
    holds its lower factor, or None when it is not numerically positive
    definite; every use goes through `factor`, which then raises. The
    condition estimate is computed only when read (`condition_estimate`).
    """

    kernel: object
    spacing_T: float
    half_count_N: int
    dense: np.ndarray
    cholesky: object

    @property
    def size(self):
        return 2 * self.half_count_N + 1

    @property
    def times(self):
        return np.arange(-self.half_count_N, self.half_count_N + 1) * self.spacing_T

    @property
    def condition_estimate(self):
        """1-norm estimate 1/rcond from the factor (LAPACK ``dpocon``), or
        without a factor the ratio of extreme |eigenvalues| of ``dense``."""
        if self.cholesky is not None:
            rcond, _ = dpocon(self.cholesky[0], np.linalg.norm(self.dense, 1), uplo="L")
            return float("inf") if rcond == 0.0 else 1.0 / rcond
        eigs = np.abs(np.linalg.eigvalsh(self.dense))
        return float("inf") if np.min(eigs) == 0.0 else float(np.max(eigs) / np.min(eigs))

    @property
    def first_row(self):
        """psi(k T) for k = 0..2N, the Toeplitz generator (read-only)."""
        return self.dense[0]

    def factor(self):
        """Cholesky factor for `cho_solve`, or `NotPositiveDefiniteError`."""
        if self.cholesky is None:
            cond = self.condition_estimate
            raise NotPositiveDefiniteError(
                "Gram matrix is not numerically positive definite at "
                f"T={self.spacing_T!r}, N={self.half_count_N} (condition "
                f"estimate {cond:.3e}); consider ridge_sigma2 > 0",
                condition_estimate=cond)
        return self.cholesky


@dataclass(frozen=True)
class Interpolant:
    """Solved kernel expansion: coefficients over the nodes of its Gram system."""

    gram: GramMatrix
    coeffs_c: np.ndarray
    ridge_sigma2: float


def build_gram(kernel, T, N):
    """Assemble the Gram matrix of kernel values psi((m - n) T).

    Never fails on a matrix that does not factor: `NotPositiveDefiniteError`
    surfaces at the first use of the factor (`solve` without ridge,
    `cardinal`, `power_function`); a ridged `solve` needs only R + sigma^2 I.
    """
    if T <= 0:
        raise ValueError(f"spacing T must be positive, got {T}")
    if N < 0:
        raise ValueError(f"half count N must be >= 0, got {N}")
    dense = toeplitz(psi_closed_form(kernel, np.arange(2 * N + 1) * T))
    try:
        factor = cho_factor(dense, lower=True)
    except np.linalg.LinAlgError:
        factor = None
    dense.setflags(write=False)
    return GramMatrix(kernel=kernel, spacing_T=T, half_count_N=N, dense=dense,
                      cholesky=factor)


def solve(gram, samples, ridge_sigma2=0.0):
    """Solve (R + sigma^2 I) c = x and return the interpolant."""
    if not 0.0 <= ridge_sigma2 < np.inf:
        raise ValueError(f"ridge_sigma2 must be finite and >= 0, got {ridge_sigma2}")
    if samples.half_count_N != gram.half_count_N:
        raise ValueError(
            f"sample count mismatch: gram N={gram.half_count_N}, "
            f"samples N={samples.half_count_N}")
    if not np.isclose(samples.spacing_T, gram.spacing_T, rtol=1e-12, atol=0.0):
        raise ValueError("sample spacing does not match the Gram system")
    if ridge_sigma2 > 0:
        try:
            factor = cho_factor(gram.dense + ridge_sigma2 * np.eye(gram.size),
                                lower=True)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                "ridge-augmented Gram matrix failed to factor",
                condition_estimate=gram.condition_estimate) from None
    else:
        factor = gram.factor()
    c = _cho_solve_any(factor, samples.values)
    c.setflags(write=False)
    return Interpolant(gram=gram, coeffs_c=c, ridge_sigma2=ridge_sigma2)


def evaluate(interp, t):
    """Evaluate the kernel expansion sum_n c_n psi(t - n T) at ``t``."""
    gram = interp.gram
    return _expand(gram.kernel, gram.spacing_T, gram.half_count_N, interp.coeffs_c, t)


def cardinal_coeffs(gram, n):
    """Row n of the inverse Gram matrix (solve R p = e_n)."""
    N = gram.half_count_N
    if abs(n) > N:
        raise IndexError(f"|n| must be <= {N}, got {n}")
    e = np.zeros(gram.size)
    e[n + N] = 1.0
    return cho_solve(gram.factor(), e)


def cardinal(gram, n, t):
    """Cardinal interpolation function u_n(t), satisfying u_n(mT) = delta[n-m]."""
    return _expand(gram.kernel, gram.spacing_T, gram.half_count_N,
                   cardinal_coeffs(gram, n), t)


def shift_invariant_approx(gram, samples, t):
    """Approximate interpolant using only shifts of the center cardinal.

    Evaluates ``sum_n x[n] u_0(t - n T)``; exact at the nodes and close to
    the full solve away from the window edges, at the cost of a single
    inverse-row computation. Since ``u_0`` is itself a kernel expansion, the
    sum is one expansion over nodes -2N..2N whose coefficients are the
    convolution of the samples with the center cardinal's coefficients.
    """
    if samples.half_count_N != gram.half_count_N:
        raise ValueError("sample count mismatch with the Gram system")
    N = gram.half_count_N
    coeffs = np.convolve(samples.values, cardinal_coeffs(gram, 0))
    return _expand(gram.kernel, gram.spacing_T, 2 * N, coeffs, t)


def _cardinal_values(gram, t):
    """Kernel values v = psi(t - nT) and cardinals u = R^{-1} v, shape (2N+1,) + t.shape.

    The factor comes first: a Gram that does not factor raises before any psi.
    """
    factor = gram.factor()
    t = np.asarray(t, dtype=float)
    v = np.moveaxis(_kernel_matrix(gram.kernel, t, gram.spacing_T, gram.half_count_N),
                    -1, 0)
    u = cho_solve(factor, v.reshape(gram.size, -1)).reshape(v.shape)
    return u, v


def _expand(kernel, T, N, coeffs, t):
    """sum_n coeffs[n] psi(t - nT) over n = -N..N, broadcast over the shape of t.

    The kernel matrix comes from `_kernel_matrix`: one psi table per residue
    class of t mod T when the points share residues (a grid whose step
    divides a multiple of T), else the direct entry-by-entry evaluation.
    """
    return _kernel_matrix(kernel, t, T, N) @ coeffs


def _kernel_matrix(kernel, t, T, N):
    """psi(t_j - nT) for n = -N..N, with shape ``t.shape + (2N+1,)``.

    Every t_j is split as m_j T + r_j with m_j = floor(t_j / T), so that
    t_j - nT = r_j + (m_j - n) T. Points whose residues agree to within a
    few ulps of max|t| + T (no more than the rounding ``t - nT`` carries
    anyway) form one class, which needs psi(r + kT) only on one contiguous
    run of k; each row is then a window of that run. When the runs would
    hold as many values as the matrix itself (no two points share a residue,
    as for random points), the matrix is evaluated entry by entry.
    """
    t = np.asarray(t, dtype=float)
    width = 2 * N + 1
    flat = t.ravel()
    if flat.size > 1 and np.all(np.isfinite(flat)):
        tol = 4.0 * np.spacing(np.max(np.abs(flat)) + T)
        m = np.floor(flat / T)
        r = flat - m * T
        # a residue just below T is the class of residue 0, one period on
        wrap = r > T - tol
        r[wrap] -= T
        m[wrap] += 1.0
        order = np.argsort(r)
        r_sorted = r[order]
        new_class = np.diff(r_sorted, prepend=-np.inf) > tol
        heads = np.flatnonzero(new_class)
        tails = np.append(heads[1:], flat.size) - 1
        m_sorted = m[order]
        lo = np.minimum.reduceat(m_sorted, heads)
        hi = np.maximum.reduceat(m_sorted, heads)
        lengths = hi - lo + width
        if (np.all(r_sorted[tails] - r_sorted[heads] <= tol)
                and np.sum(lengths) < flat.size * width):
            # Class c's run holds psi(r_c + kT) for k = hi_c + N down to
            # lo_c - N, so row j of the class starts (hi_c - m_j) into it.
            lengths = lengths.astype(np.intp)
            starts = np.cumsum(lengths) - lengths
            k = np.repeat(hi + N + starts, lengths)
            k -= np.arange(k.size)
            k *= T
            k += np.repeat(r_sorted[heads], lengths)
            table = psi_closed_form(kernel, k)
            cls = np.empty(flat.size, dtype=np.intp)
            cls[order] = np.cumsum(new_class) - 1
            rows = (starts[cls] + (hi[cls] - m)).astype(np.intp)
            windows = np.lib.stride_tricks.sliding_window_view(table, width)
            return windows[rows].reshape(t.shape + (width,))
    nodes = np.arange(-N, N + 1) * T
    return psi_closed_form(kernel, t[..., None] - nodes)


def truncated_shannon(samples, t):
    """Classical truncated interpolation sum_n x[n] sinc(t/T - n)."""
    t = np.asarray(t, dtype=float)
    T = samples.spacing_T
    sinc_mat = shannon_kernel(T, t[..., None] - samples.times)
    return sinc_mat @ samples.values


def write_evaluations_csv(path, t, values):
    """Write interpolant evaluations as CSV rows ``(t, re, im)``."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    values = np.atleast_1d(np.asarray(values))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re", "im"])
        for tv, val in zip(t, values):
            cval = complex(val)
            writer.writerow([f"{tv:.17g}", f"{cval.real:.17g}",
                             f"{cval.imag:.17g}"])


def wnorm_sq(interp):
    """Squared weighted-space norm of the interpolant, Re(c^H R c)."""
    c = interp.coeffs_c
    return float(np.real(np.conj(c) @ (interp.gram.dense @ c)))


def node_residual(interp, samples):
    """Max-norm residual of the (possibly ridged) system at the nodes."""
    lhs = interp.gram.dense @ interp.coeffs_c + interp.ridge_sigma2 * interp.coeffs_c
    return float(np.max(np.abs(lhs - samples.values)))


def _cho_solve_any(factor, rhs):
    if np.iscomplexobj(rhs):
        return cho_solve(factor, rhs.real).astype(complex) + 1j * cho_solve(factor, rhs.imag)
    return cho_solve(factor, rhs)

"""Gram system assembly, coefficient solve, and interpolant evaluation.

Samples x[n] at uniform spacing T for logical indices n = -N..N are matched
by the kernel expansion ``xhat(t) = sum_n c_n psi(t - n T)``. Coefficients
come from the symmetric positive-definite Toeplitz system ``R c = x`` with
``R[m, n] = psi((m - n) T)``, optionally ridge-stabilized to
``(R + sigma^2 I) c = x`` for noisy samples. Logical indices are stored at
array offsets 0..2N throughout.

R is centrosymmetric (it commutes with the reversal n -> -n), so in the
orthonormal basis of delta_0, (delta_j + delta_-j)/sqrt2 and
(delta_j - delta_-j)/sqrt2 (j = 1..N) it is block diagonal: an even block of
size N+1 and an odd block of size N (Cantoni & Butler, Linear Algebra Appl.
13, 1976). R itself is never formed: `build_gram` assembles the two blocks
straight from the generator r_k = psi(kT) (`_fill_half`), and every system is
solved by folding its right-hand side into these coordinates (`_fold`),
solving in each half and unfolding: a quarter of the Cholesky work of R and
half of each solve. The weighted norm c^T R c is the sum of the same
quadratic form over the two halves of the folded c. The kernel values
psi(t - nT) for the cardinals and the power function, one row per
evaluation point, are solved from the right in two stages by the Cholesky
factor L of each half (`_kernel_halves`): the first gives w = v L^{-T},
whose squared row norms, summed over the halves, are the Schur term
v R^{-1} v of the power function, and the second the cardinal values
u = w L^{-1}. `_cardinal_values` takes both stages on every row;
`bounds.power_function` takes the second only on the rows near the nodes.

The two halves are independent, so `build_gram` fills and factors each
half (`_factor_halves`), `solve` and `cardinal_coeffs` solve each half
(`_solve_halves`), and the stages of `bounds.power_function` solve each
half, the even one in the caller and the odd one in a worker thread at the
same time (`_parallel.run_halves`), when the work is large enough, the
process may use two CPUs and the BLAS runs one thread. The factor of a half
starts from a Fortran-ordered copy of its block made by one memcpy of the
transpose, which the exact symmetry of the block makes the block itself.
Each half's arithmetic, and the order in which the halves are combined, are
the same either way, so the results are bitwise those of one thread. The
LAPACK and BLAS calls go through `_lapack`, ctypes bindings that release the
GIL: scipy's wrappers hold it. On a 2-core host with the BLAS on one thread,
at N = 1000 (a 1000 x 1000 block, 341 rows), two scipy ``dtrsm`` calls took
8.3 ms one after the other and 8.4 ms in two threads, and two ``cho_factor``
calls 10.7 and 8.9 ms; through `_lapack`, ``dtrsm`` went from 8.3 to 4.2 ms
and ``dpotrf`` from 9.0 to 4.9 ms. A solve with one right-hand side reads
its factor for two flops an entry, so `_solve_halves` has a gate of its own
in factor entries (`_MIN_SPLIT_SOLVE`, N = 400). The other solves stay in
the caller: those of `_cardinal_values` (one point per call, from
`stochastic`) and the quadratic forms of `wnorm_sq` would reach the split's
size only from N = 1225, past every benchmarked shape. The psi runs of the
kernel values split over two CPUs inside `psi_closed_form` when they are
long enough.

The interpolant, its cardinals and the power function all read the kernel
values psi(t_j - nT) through `_lattice_rows`. It groups the points by
residue of t mod T, one run of psi per group, and pairs the residues r and
T - r (psi is even), so a grid symmetric about 0 evaluates about half the
runs; each row of the kernel matrix is then a window of a run. The power
function and the cardinal values take the whole matrix (`_kernel_matrix`),
but `evaluate` and `cardinal` need only its product with one vector, which
`_kernel_product` forms a block of rows at a time, so the matrix (11 MB at
N = 1000 on 681 points) never exists. Its blocks come in multiples of 128
rows and the last block of each product takes the remainder, so with the
BLAS on one thread the product was bitwise that of the whole matrix on
every shape tried; a multi-threaded BLAS, which spreads a large product
over its threads but not the smaller blocks, can round a row otherwise.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpocon

from . import _lapack
from ._parallel import run_halves
from .kernel import psi_closed_form, shannon_kernel

_SQRT_HALF = np.sqrt(0.5)
# Entries of the kernel-matrix block of `_kernel_product`, and the multiple
# of rows it comes in. On a 2-core host with the BLAS on one thread, the
# product of N = 200 on 4001 lattice points took 0.72 ms in blocks of 2^15
# to 2^17 entries against 1.04 ms in one piece, and blocks of 2^14 0.80 ms;
# at N = 1000 on 681 points every size took 1.94 to 2.13 ms. Blocks of 64
# rows or fewer were not always bitwise the whole product (OpenBLAS dgemv
# groups its rows), and in 60 random shapes 128 always was.
_PRODUCT_ENTRIES = 1 << 16
_PRODUCT_ALIGN = 128
# Entries of the odd half's factor at least, for `_solve_halves` to solve the
# halves of one right-hand side on two CPUs. Such a solve reads its factor
# for two flops an entry, so it gains from a second core at far fewer flops
# than `_parallel._MIN_SPLIT_FLOPS`. On a 2-core host with the BLAS on one
# thread, split against inline: N = 300 took 75 against 70 us, N = 400 101
# against 109 us, N = 500 121 against 149 us and N = 1000 407 against 547 us.
_MIN_SPLIT_SOLVE = 400 ** 2


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
    """Uniform real samples x[n], n = -N..N, at spacing T seconds."""

    spacing_T: float
    values: np.ndarray

    def __post_init__(self):
        if not 0 < self.spacing_T < np.inf:
            raise ValueError(f"spacing_T must be finite and positive, got {self.spacing_T}")
        v = np.atleast_1d(np.asarray(self.values))
        if v.ndim != 1 or v.size % 2 == 0:
            raise ValueError(f"values must be 1-d with odd length 2N+1, got shape {v.shape}")
        if np.iscomplexobj(v):
            raise ValueError("sample values must be real")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite")
        v = v.astype(float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def half_count_N(self):
        return (self.values.size - 1) // 2

    @property
    def times(self):
        n = self.half_count_N
        return np.arange(-n, n + 1) * self.spacing_T


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel Gram system for one (kernel, T, N) configuration.

    The symmetric Toeplitz matrix R = psi((m - n) T) is held only as its
    generator ``first_row`` (r_k = psi(kT), k = 0..2N) and its even and odd
    ``blocks`` (`_fill_half`), all read-only. ``cholesky`` holds the lower
    Cholesky factors of the two blocks, or None when either block is not
    numerically positive definite; every use goes through `factor`, which
    then raises. The condition estimate is computed only when read
    (`condition_estimate`).
    """

    kernel: object
    spacing_T: float
    half_count_N: int
    first_row: np.ndarray
    blocks: tuple
    cholesky: object

    @property
    def size(self):
        return 2 * self.half_count_N + 1

    @property
    def times(self):
        return np.arange(-self.half_count_N, self.half_count_N + 1) * self.spacing_T

    @property
    def condition_estimate(self):
        """1-norm estimate of the condition number of diag(E, O), or without
        a factor the ratio of extreme |eigenvalues| of the two halves.

        It is max |block|_1 times max |block^-1|_1, each inverse norm LAPACK's
        estimate from the half factor (``dpocon``); the orthonormal fold
        changes a 1-norm by at most a factor 2, so this tracks |R|_1 |R^-1|_1.
        """
        if self.cholesky is not None:
            norm = inverse_norm = 0.0
            for block, chol in zip(self.blocks, self.cholesky):
                if block.size:  # dpocon rejects the empty odd block of N = 0
                    block_norm = np.linalg.norm(block, 1)
                    rcond, _ = dpocon(chol, block_norm, uplo="L")
                    if rcond == 0.0:
                        return float("inf")
                    norm = max(norm, block_norm)
                    inverse_norm = max(inverse_norm, 1.0 / (rcond * block_norm))
            return float(norm * inverse_norm)
        eigs = np.abs(np.concatenate([np.linalg.eigvalsh(block) for block in self.blocks]))
        return float("inf") if np.min(eigs) == 0.0 else float(np.max(eigs) / np.min(eigs))

    def factor(self):
        """The Cholesky factors of the even and odd halves, or
        `NotPositiveDefiniteError`."""
        if self.cholesky is None:
            cond = self.condition_estimate
            raise NotPositiveDefiniteError(
                "Gram matrix is not numerically positive definite at "
                f"T={self.spacing_T!r}, N={self.half_count_N} (condition "
                f"estimate {cond:.3e}); consider ridge_sigma2 > 0",
                condition_estimate=cond)
        return self.cholesky


@dataclass(frozen=True, eq=False)
class Interpolant:
    """Solved kernel expansion: coefficients over the nodes of its Gram system."""

    gram: GramMatrix
    coeffs_c: np.ndarray


def build_gram(kernel, T, N):
    """Assemble the even and odd halves of the Gram matrix of kernel values
    psi((m - n) T) and factor them.

    Never fails on a matrix that does not factor: `NotPositiveDefiniteError`
    surfaces at the first use of the factor (`solve` without ridge,
    `cardinal`, `power_function`); a ridged `solve` needs only R + sigma^2 I.
    """
    if not 0 < T < np.inf:
        raise ValueError(f"spacing T must be finite and positive, got {T}")
    if N < 0:
        raise ValueError(f"half count N must be >= 0, got {N}")
    first_row = psi_closed_form(kernel, np.arange(2 * N + 1) * T)
    first_row.setflags(write=False)
    blocks = (np.empty((N + 1, N + 1)), np.empty((N, N)))
    cholesky = _factor_halves(blocks, lambda h: _fill_half(first_row, h, blocks[h]))
    for block in blocks:
        block.setflags(write=False)
    return GramMatrix(kernel=kernel, spacing_T=T, half_count_N=N, first_row=first_row,
                      blocks=blocks, cholesky=cholesky)


def solve(gram, samples, ridge_sigma2=0.0):
    """Solve (R + sigma^2 I) c = x and return the interpolant.

    The ridge adds sigma^2 to the diagonal of each half, which the orthonormal
    fold leaves as it is.
    """
    if not 0.0 <= ridge_sigma2 < np.inf:
        raise ValueError(f"ridge_sigma2 must be finite and >= 0, got {ridge_sigma2}")
    if samples.half_count_N != gram.half_count_N:
        raise ValueError(
            f"sample count mismatch: gram N={gram.half_count_N}, "
            f"samples N={samples.half_count_N}")
    if not np.isclose(samples.spacing_T, gram.spacing_T, rtol=1e-12, atol=0.0):
        raise ValueError("sample spacing does not match the Gram system")
    if ridge_sigma2 > 0:
        blocks = [block.copy() for block in gram.blocks]
        for block in blocks:
            block[np.diag_indices_from(block)] += ridge_sigma2
        halves = _factor_halves(blocks)
        if halves is None:
            raise NotPositiveDefiniteError(
                "ridge-augmented Gram matrix failed to factor",
                condition_estimate=gram.condition_estimate)
    else:
        halves = gram.factor()
    c = _solve_halves(halves, samples.values)
    c.setflags(write=False)
    return Interpolant(gram=gram, coeffs_c=c)


def evaluate(interp, t):
    """Evaluate the kernel expansion sum_n c_n psi(t - n T) at ``t``,
    broadcast over its shape."""
    return _kernel_product(interp.gram, t, interp.coeffs_c)


def cardinal_coeffs(gram, n):
    """Row n of the inverse Gram matrix (solve R p = e_n)."""
    N = gram.half_count_N
    if abs(n) > N:
        raise IndexError(f"|n| must be <= {N}, got {n}")
    halves = gram.factor()
    e = np.zeros(gram.size)
    e[n + N] = 1.0
    return _solve_halves(halves, e)


def cardinal(gram, n, t):
    """Cardinal interpolation function u_n(t), satisfying u_n(mT) = delta[n-m]."""
    return _kernel_product(gram, t, cardinal_coeffs(gram, n))


def _cardinal_values(gram, t):
    """Cardinal values u = R^{-1} v of the kernel values v = psi(t - nT), with
    shape (2N+1,) + t.shape: both stages of every row, in each half."""
    t = np.asarray(t, dtype=float)
    halves = _kernel_halves(gram, t.ravel())
    for _, chol, _, u in halves:
        _lapack.dtrsm(chol, u, trans=True)
        _lapack.dtrsm(chol, u, trans=False)
    return _unfold(*(u.T for _, _, _, u in halves)).reshape((gram.size,) + t.shape)


def _kernel_halves(gram, t):
    """The kernel values at 1-d ``t`` in each half, ready for the two stages:
    (block, L, v, w) for the even and the odd half, with block = L L^T.

    v = psi(t - nT) in the coordinates of `_fold`, one row per point, and w
    a Fortran-ordered copy of it for the stages to overwrite, each a
    triangular solve from the right (`_lapack.dtrsm`, which timed faster
    than LAPACK's left-side ``potrs`` on the transpose): the first
    w = v L^{-T}, after which ``w.w`` is ``v block^{-1} v`` row by row (the
    Schur term of the power function), and the second the cardinal rows
    u = w L^{-1} = v block^{-1}. The factor comes first: a Gram that does
    not factor raises before any psi.
    """
    halves = gram.factor()
    # the kernel matrix is dropped before the copies are made
    parts = [part.T for part in
             _fold(_kernel_matrix(gram.kernel, t, gram.spacing_T, gram.half_count_N).T)]
    return [(block, chol, part, np.array(part, order="F"))
            for block, chol, part in zip(gram.blocks, halves, parts)]


def _fill_half(r, h, block):
    """Fill ``block`` with the even (h = 0) or odd (h = 1) block, E or O, of
    the centrosymmetric Gram matrix R of generator r_k = psi(kT), k = 0..2N.

    ``E[i, j] = r_|i-j| + r_(i+j)`` for i, j = 0..N, except that row and
    column 0 are ``sqrt2 r_j`` and ``E[0, 0] = r_0``; and
    ``O[i, j] = r_|i-j| - r_(i+j)`` for i, j = 1..N. The Toeplitz term is a
    window of the palindrome r_N..r_1, r_0, r_1..r_N and the Hankel term a
    window of r, so nothing of the block's size is allocated. Both blocks
    are exactly symmetric.
    """
    N = r.size // 2
    toeplitz_part = sliding_window_view(np.concatenate([r[N:0:-1], r[:N + 1]]), N + 1)[::-1]
    hankel_part = sliding_window_view(r, N + 1)
    if h:
        np.subtract(toeplitz_part[1:, 1:], hankel_part[1:, 1:], out=block)
        return
    np.add(toeplitz_part, hankel_part, out=block)
    block[0, 1:] *= _SQRT_HALF
    block[1:, 0] *= _SQRT_HALF
    block[0, 0] = r[0]


def _factor_halves(blocks, fill=None):
    """The lower Cholesky factor of each block, Fortran-ordered with the
    block's upper triangle left as it is (as ``cho_factor`` leaves it), or
    None when one of them is not numerically positive definite.

    ``fill(h)``, when given, first fills block h, in the same thread as its
    factor. A block is exactly symmetric, so its transpose, a Fortran-ordered
    copy made by one memcpy, holds the same values.
    """
    factors = [np.empty(block.shape, order="F") for block in blocks]
    infos = [0, 0]

    def factor(h):
        if fill is not None:
            fill(h)
        np.copyto(factors[h].T, blocks[h])
        infos[h] = _lapack.potrf(factors[h])

    run_halves(factor, factors[1].shape[0] ** 3 / 3)
    return None if any(infos) else tuple(factors)


def _fold(x):
    """Coordinates of x (axis 0 over n = -N..N) in the even and odd bases:
    x_0 and (x_j + x_-j)/sqrt2, and (x_j - x_-j)/sqrt2, for j = 1..N."""
    N = x.shape[0] // 2
    up, down = x[N + 1:], x[:N][::-1]
    even = np.empty((N + 1,) + x.shape[1:], dtype=x.dtype)
    even[0] = x[N]
    np.add(up, down, out=even[1:])
    even[1:] *= _SQRT_HALF
    odd = up - down
    odd *= _SQRT_HALF
    return even, odd


def _unfold(even, odd):
    """The x over n = -N..N (axis 0) whose `_fold` is (even, odd)."""
    up = even[1:] + odd
    up *= _SQRT_HALF
    down = even[1:] - odd
    down *= _SQRT_HALF
    return np.concatenate([down[::-1], even[:1], up])


def _solve_halves(halves, x):
    """R^{-1} x for 1-d x over n = -N..N, one Cholesky solve per half of
    `_fold(x)`, in place in the folded parts, the odd half in a worker
    thread when its factor has ``_MIN_SPLIT_SOLVE`` entries (`run_halves`)."""
    parts = _fold(x)

    def solve_half(h):
        _lapack.potrs(halves[h], parts[h])

    run_halves(solve_half, halves[1].size, _MIN_SPLIT_SOLVE)
    return _unfold(*parts)


def _kernel_matrix(kernel, t, T, N):
    """psi(t_j - nT) for n = -N..N, with shape ``t.shape + (2N+1,)``.

    Every t_j is split as m_j T + r_j with m_j = floor(t_j / T), so that
    t_j - nT = r_j + (m_j - n) T. psi is even, so a point with r_j > T/2 is
    rewritten as -(rho_j + m'_j T) with rho_j = T - r_j and m'_j = -m_j - 1:
    its row psi(rho_j + (m'_j + n) T) is a reversed row of residue rho_j,
    and m'_j stands in for m_j. Points whose residues (rho for these flipped
    points) agree to within a few ulps of max|t| + T (no more than the
    rounding ``t - nT`` carries anyway) form one class, which needs
    psi(rho + kT) only on one contiguous run of k; each row is then a window
    of that run, read backwards for a flipped point. So on a grid symmetric
    about 0 the residues r and T - r share one run. A class whose flipped
    and unflipped points have m-ranges more than 2N + 1 apart keeps two
    runs, as one run spanning both would be longer. When the runs would hold
    as many values as the matrix itself (no two points share a residue, as
    for random points), the matrix is evaluated entry by entry. A NaN or
    infinite time raises `ValueError` before any psi is evaluated.
    """
    t = np.asarray(t, dtype=float)
    lattice = _lattice_rows(kernel, t.ravel(), T, N)
    if lattice is None:
        return psi_closed_form(kernel, t[..., None] - np.arange(-N, N + 1) * T)
    windows, rows = lattice
    return windows[rows].reshape(t.shape + (2 * N + 1,))


def _kernel_product(gram, t, c):
    """``_kernel_matrix(...) @ c`` for the nodes of ``gram``, with the shape
    of ``t``, formed a block of rows of the matrix at a time (about
    ``_PRODUCT_ENTRIES`` entries, in whole multiples of ``_PRODUCT_ALIGN``
    rows): the windows of the lattice runs or the direct psi rows, so that
    the matrix itself never exists."""
    kernel, T, N = gram.kernel, gram.spacing_T, gram.half_count_N
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    lattice = _lattice_rows(kernel, flat, T, N)
    nodes = np.arange(-N, N + 1) * T
    out = np.empty(flat.size)
    # one product per row along the last axis of t, as matmul takes a stack;
    # the last block of a row takes its remainder, so that no block is a
    # short product of its own
    length = t.shape[-1] if t.ndim else 1
    step = _PRODUCT_ALIGN * max(1, _PRODUCT_ENTRIES // (nodes.size * _PRODUCT_ALIGN))
    count = max(1, length // step)
    for first in range(0, flat.size, max(1, length)):
        for k in range(count):
            start = first + k * step
            stop = start + step if k + 1 < count else first + length
            if lattice is None:
                block = psi_closed_form(kernel, flat[start:stop, None] - nodes)
            else:
                windows, rows = lattice
                block = windows[rows[start:stop]]
            np.matmul(block, c, out=out[start:stop])
    return out.reshape(t.shape)[()]


def _lattice_rows(kernel, flat, T, N):
    """The runs of `_kernel_matrix` for the 1-d ``flat``, as ``(windows,
    rows)`` with row j of the matrix in ``windows[rows[j]]``, or None when
    the matrix is to be evaluated entry by entry. Raises `ValueError` for a
    NaN or infinite time.
    """
    width = 2 * N + 1
    if not np.all(np.isfinite(flat)):
        raise ValueError("evaluation times must be finite")
    if flat.size > 1:
        tol = 4.0 * np.spacing(np.max(np.abs(flat)) + T)
        m = np.floor(flat / T)
        r = flat - m * T
        # a residue just below T is the class of residue 0, one period on
        wrap = r > T - tol
        r[wrap] -= T
        m[wrap] += 1.0
        # residue T/2 pairs with itself: unflipped, its class keeps one run
        flip = r > 0.5 * T + tol
        r = np.where(flip, T - r, r)
        m = np.where(flip, -1.0 - m, m)
        order = np.argsort(r)
        r_sorted = r[order]
        new_class = np.diff(r_sorted, prepend=-np.inf) > tol
        heads = np.flatnonzero(new_class)
        tails = np.append(heads[1:], flat.size) - 1
        if heads.size < flat.size and np.all(r_sorted[tails] - r_sorted[heads] <= tol):
            # m-range of each class's unflipped and flipped points, NaN if none
            m_sorted = m[order]
            flip_sorted = flip[order]
            unflipped = np.where(flip_sorted, np.nan, m_sorted)
            flipped = np.where(flip_sorted, m_sorted, np.nan)
            lo_u = np.fmin.reduceat(unflipped, heads)
            hi_u = np.fmax.reduceat(unflipped, heads)
            lo_f = np.fmin.reduceat(flipped, heads)
            hi_f = np.fmax.reduceat(flipped, heads)
            lo, hi = np.fmin(lo_u, lo_f), np.fmax(hi_u, hi_f)
            # each point's run: the one of its class, unless a split moves it
            run = np.empty(flat.size, dtype=np.intp)
            run[order] = np.cumsum(new_class) - 1
            residues = r_sorted[heads]
            split = np.maximum(lo_f - hi_u, lo_u - hi_f) > width
            if split.any():
                # the flipped points of a split class get a run of their own,
                # appended after the runs of the classes
                lo[split], hi[split] = lo_u[split], hi_u[split]
                lo, hi = np.append(lo, lo_f[split]), np.append(hi, hi_f[split])
                residues = np.append(residues, residues[split])
                moved = flip & split[run]
                run[moved] = heads.size + np.cumsum(split)[run[moved]] - 1
            lengths = hi - lo + width
            if np.sum(lengths) < flat.size * width:
                # Run q holds psi(rho_q + kT) for k = hi_q + N down to
                # lo_q - N, so row j of the run starts (hi_q - m_j) into it.
                lengths = lengths.astype(np.intp)
                starts = np.cumsum(lengths) - lengths
                k = np.repeat(hi + N + starts, lengths)
                k -= np.arange(k.size)
                k *= T
                k += np.repeat(residues, lengths)
                table = psi_closed_form(kernel, k)
                rows = (starts[run] + (hi[run] - m)).astype(np.intp)
                # reversed, a flipped row is a window of the reversed table
                rows[flip] = 2 * table.size - width - rows[flip]
                windows = sliding_window_view(np.concatenate([table, table[::-1]]), width)
                return windows, rows
    return None


def truncated_shannon(samples, t):
    """Classical truncated interpolation sum_n x[n] sinc(t/T - n). A NaN or
    infinite time raises `ValueError`."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("evaluation times must be finite")
    T = samples.spacing_T
    sinc_mat = shannon_kernel(T, t[..., None] - samples.times)
    return sinc_mat @ samples.values


def wnorm_sq(interp):
    """Squared weighted-space norm of the interpolant, c^T R c, summed over
    the even and odd halves of the folded c."""
    return float(sum(part @ (block @ part)
                     for block, part in zip(interp.gram.blocks, _fold(interp.coeffs_c))))


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
quadratic form over the two halves of the folded c.

The two halves are independent, so `build_gram` fills and factors each half
(`_factor_halves`), `solve` and `cardinal_coeffs` solve each half
(`_solve_halves`), and the stages of `bounds.power_function` solve each half,
the odd one in a worker thread (`_parallel.run_halves`) when the work is large
enough, the process may use two CPUs and the BLAS runs one thread. Each half's
arithmetic, and the order in which the halves are combined, are the same either
way, so the results are bitwise those of one thread. The factor of a half
starts from a Fortran-ordered copy of its block, one memcpy of the transpose,
which the exact symmetry of the block makes the block itself. The LAPACK and
BLAS calls, the condition estimate's ``dpocon`` too, go through `_lapack`:
ctypes bindings to the OpenBLAS that scipy bundles, which release the GIL for
each call where scipy's f2py wrappers keep it. The solves of
`_cardinal_values` and the quadratic forms of `wnorm_sq` stay in the caller.

Every reader of the kernel rows psi(t_j - nT), n = -N..N, one row per point,
takes them from one walk, `_kernel_rows`, a block of rows at a time, so the
kernel matrix of all the points never exists. The walk checks the times once
and lays out the rows once for all the points: `_lattice_rows` groups the
points by residue of t mod T, one run of psi per group, and pairs the residues
r and T - r (psi is even), so each row is a window of a run and a grid
symmetric about 0 evaluates about half the runs; points that share no residue
take direct psi rows. A psi value depends on its own time alone, and
`evaluate` and `cardinal` need only the dot of each row with one vector
(`_kernel_product`, ``np.vecdot``, in blocks of about 2^16 entries), so their
values do not depend on where the blocks are cut. The cardinals and the power
function fold each block of ``_BLOCK_ROWS`` rows into the halves and solve it
in place from the right by the Cholesky factor L of each half
(`_kernel_halves`): first w = v L^{-T}, whose squared row norms, summed over
the halves, are the Schur term v R^{-1} v of the power function, then the
cardinal values u = w L^{-1}. `_cardinal_values` takes both stages on every
row, `bounds.power_function` the second only on the rows near the nodes.
Each block is dropped before the next is made, so malloc hands its memory to
the next block instead of new pages, and the memory of a walk is a few blocks
whatever the points.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _lapack
from ._parallel import run_halves
from .kernel import _check_spacing, _check_times, psi_closed_form, shannon_kernel

_SQRT_HALF = np.sqrt(0.5)
# Entries of a `_kernel_product` block. On a 2-core host with the BLAS on one
# thread, `evaluate` at N = 200 on 4001 lattice points took 0.57 ms in blocks
# of 2^16 entries, 0.60 ms in 2^15 or 2^17, and 0.74 ms in one piece.
_PRODUCT_ENTRIES = 1 << 16
# Rows per block of `_cardinal_values` and `bounds._power_sq`: each block
# reads the whole factor of each half again, so a block is a count of rows.
# On a 2-core host with the BLAS on one thread, `power_function` at N = 200
# took 2.95-3.16 ms on 4001 points against 3.5-3.7 ms in blocks of 128 rows,
# and 0.17-0.20 s on 160,001 points against 0.29-0.32 s in one block. Blocks
# start at multiples of it, and P was bitwise that of one block.
_BLOCK_ROWS = 1024
# Entries of the odd half's factor at least, for `_solve_halves` to solve the
# halves of one right-hand side on two CPUs: it reads its factor for two flops
# an entry. On a 2-core host with the BLAS on one thread, split against inline,
# N = 300 took 75 against 70 us, N = 400 101 against 109 us.
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
                if block.size:  # the empty odd block of N = 0 has no 1-norm
                    block_norm = np.linalg.norm(block, 1)
                    rcond = _lapack.pocon(chol, block_norm)
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
    A spacing T whose lags up to 2 N T overflow raises `ValueError` first.
    """
    _check_spacing(T, N, span=2)
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
    chol = gram.factor()
    u = np.empty((gram.size, t.size))
    for start, stop, _, halves in _kernel_halves(gram, t.ravel()):
        for w, factor in zip(halves, chol):
            _lapack.dtrsm(factor, w, trans=True)
            _lapack.dtrsm(factor, w, trans=False)
        u[:, start:stop] = _unfold(*(w.T for w in halves))
        del halves, w
    return u.reshape((gram.size,) + t.shape)


def _kernel_halves(gram, flat):
    """Yield ``(start, stop, rows, halves)`` per block of ``_BLOCK_ROWS``
    points of ``flat``: the kernel rows and, per half, their Fortran-ordered
    coordinates in the basis of `_fold`, for the stages to overwrite. The
    caller factors the Gram first. A last block of one row joins the one
    before: ``einsum`` sums the squares of a lone row in another order."""
    cuts = [*range(0, max(flat.size - 1, 1), _BLOCK_ROWS), flat.size]
    for start, stop, rows in _kernel_rows(gram, flat, cuts):
        yield start, stop, rows, [v.T for v in _fold(rows.T)]
        del rows


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
    x_0 and (x_j + x_-j)/sqrt2, and (x_j - x_-j)/sqrt2, for j = 1..N, both
    C-ordered: the parts of a block of rows, transposed back, are Fortran."""
    N = x.shape[0] // 2
    up, down = x[N + 1:], x[:N][::-1]
    even = np.empty((N + 1,) + x.shape[1:], dtype=x.dtype)
    even[0] = x[N]
    np.add(up, down, out=even[1:])
    even[1:] *= _SQRT_HALF
    odd = np.subtract(up, down, out=np.empty_like(even[1:]))
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


def _kernel_rows(gram, flat, cuts):
    """Yield ``(start, stop, rows)`` for each consecutive pair of ``cuts``,
    with ``rows`` the C-ordered kernel rows psi(flat[j] - nT), n = -N..N, of
    the 1-d ``flat`` from start to stop: windows of the lattice runs of
    `_lattice_rows` for all of ``flat``, or direct psi rows. A NaN, infinite
    or overflowing time raises `ValueError` first (`kernel._check_times`). A
    caller drops each block before the next, so malloc reuses its memory."""
    kernel, T, N = gram.kernel, gram.spacing_T, gram.half_count_N
    # psi's top frequency 2 pi B, or the 1/T of the residues t mod T
    _check_times(flat, max(2.0 * np.pi * kernel.bandwidth_B, np.pi / T), N * T)
    windows, index = _lattice_rows(kernel, flat, T, N) or (None, None)
    nodes = np.arange(-N, N + 1) * T
    for start, stop in zip(cuts[:-1], cuts[1:]):
        yield start, stop, (windows[index[start:stop]] if windows is not None
                            else psi_closed_form(kernel, flat[start:stop, None] - nodes))


def _kernel_product(gram, t, c):
    """sum_n c_n psi(t - nT) over the nodes of ``gram``, with the shape of
    ``t``, a block of kernel rows of about ``_PRODUCT_ENTRIES`` entries at a
    time, each row its own dot product."""
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.empty(flat.size)
    cuts = [*range(0, flat.size, max(1, _PRODUCT_ENTRIES // gram.size)), flat.size]
    for start, stop, rows in _kernel_rows(gram, flat, cuts):
        np.vecdot(rows, c, out=out[start:stop])
        del rows
    return out.reshape(t.shape)[()]


def _lattice_rows(kernel, flat, T, N):
    """The kernel rows of the finite 1-d ``flat`` as windows of runs of psi,
    ``(windows, rows)`` with row j in ``windows[rows[j]]``, or None.

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
    as many values as the rows (no two points share a residue), it is None.
    """
    width = 2 * N + 1
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
    """Classical truncated interpolation sum_n x[n] sinc(t/T - n). A NaN,
    infinite or overflowing time raises `ValueError`."""
    t = np.asarray(t, dtype=float)
    T = samples.spacing_T
    _check_times(t, np.pi / T, samples.half_count_N * T)
    sinc_mat = shannon_kernel(T, t[..., None] - samples.times)
    return sinc_mat @ samples.values


def wnorm_sq(interp):
    """Squared weighted-space norm of the interpolant, c^T R c, summed over
    the even and odd halves of the folded c."""
    return float(sum(part @ (block @ part)
                     for block, part in zip(interp.gram.blocks, _fold(interp.coeffs_c))))


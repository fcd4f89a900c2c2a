"""Pointwise interpolation-error bounds.

The weighted-space bound ``|xhat(t) - x(t)| <= sqrt(D^2 - |xhat|_W^2) P(t)``
is built on the kernel power function

    P^2(t) = psi(0) - 2 sum_n u_n(t) psi(nT - t)
             + sum_{n,m} u_m(t) psi(nT - mT) u_n(t),

which vanishes at the sample nodes. With the cardinal values
u = R^{-1} psi(t - nT) it equals the LMMSE error variance, the Schur form
psi(0) - v R^{-1} v of the kernel row v = psi(t - nT). `power_function`
sets P = 0 exactly at the node times themselves, with no solve, takes the
Schur form of every other point from one triangular solve per half of R,
and finishes the points near the nodes, where that form cancels to
roundoff, in the second-order form above. A matched-filter tail adversary
realizes the classical bound of truncated sinc interpolation under an
energy budget, C sqrt((1 - sum_n sinc^2(t/T - n)) / T), on a truncated
index set, providing a constructive worst case.
"""

from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._parallel import run_halves
from .interpolate import _block, _fold, _kernel_halves, truncated_shannon, wnorm_sq
from .kernel import _check_times

POWER_CLAMP = 1e-12
# Below this multiple of max(1, |psi0|) the Schur P^2 is finished in the
# second-order form (`_power_sq`)
_SECOND_ORDER_BELOW = np.sqrt(np.finfo(float).eps)
FEASIBILITY_RTOL = 1e-9


class InfeasibleBallError(ValueError):
    """The stated norm budget is smaller than the interpolant's norm."""


class NegativePowerError(ArithmeticError):
    """Computed squared power function is negative beyond roundoff."""


@dataclass(frozen=True)
class BoundReport:
    """Power function and pointwise error bound on an evaluation grid."""

    t_grid: np.ndarray
    power_values: np.ndarray
    bound_values: np.ndarray
    constant: float


@dataclass(frozen=True)
class MinimaxAdversary:
    """Worst-case tail perturbation realizing the classical bound.

    ``coeffs`` are the tail coefficients g[n] on ``indices`` (the truncated
    complement of -N..N); ``attained_error`` is |xhat(t) - z(t)| for the
    adversarial signal z; ``analytic_error`` is the matched-filter value
    (C/sqrt(T)) sqrt(sum tail sinc^2); ``truncation_deficit`` is how far the
    partial partition sum over |n| <= tail_range falls short of 1.
    """

    indices: np.ndarray
    coeffs: np.ndarray
    phase: float
    constant: float
    attained_error: float
    analytic_error: float
    truncation_deficit: float


def power_function(gram, t):
    """Power function P(t) >= 0 of the Gram system, zero at the nodes.

    P(-t) = P(t), as the kernel is even and the nodes are symmetric about 0,
    so P is evaluated once per distinct |t|. A |t| that is bitwise a node time
    m T (m = rint(|t|/T) <= N, as `GramMatrix.times` forms it) takes P = 0,
    its true value, with no kernel values and no solve; the others go to
    `_power_sq`. A Gram that does not factor raises first, even when every
    point is a node. The result has the shape of ``t`` (at least 1-d).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    gram.factor()
    s, back = np.unique(np.abs(t.ravel()), return_inverse=True)
    N, T = gram.half_count_N, gram.spacing_T
    # past (N + 1) T no |t| is a node, and a huge one would overflow |t|/T
    m = np.rint(np.minimum(s, (N + 1) * T) / T)
    off = np.flatnonzero((m > N) | (m * T != s))
    p2 = np.zeros(s.size)
    if off.size:
        p2[off] = _power_sq(gram, s[off])
    return np.sqrt(p2)[back].reshape(t.shape)


def _power_sq(gram, s):
    """P^2 >= 0 at the points ``s`` off the nodes.

    The kernel rows v = psi(s_j - nT) come folded into the halves E, O of R,
    v = (v+, v-), a block of rows at a time (`interpolate._kernel_halves`).
    The first stage, w = v L^{-T} for each half L L^T, gives the Schur form
    ``P^2 = psi0 - |w+|^2 - |w-|^2`` (the LMMSE error variance). Near the
    nodes it cancels to roundoff of psi0, which sqrt lifts to sqrt(eps psi0),
    so the points whose Schur P^2 is below sqrt(eps) max(1, |psi0|) keep their
    rows, and after the walk those of all blocks are finished together, as one
    block would finish them, by a = E^{-1} v+ and b = O^{-1} v- in the
    second-order form ``psi0 - 2 (a.v+ + b.v-) + a.E a + b.O b``, whose terms
    cancel at the nodes. Each stage takes the halves through `run_halves`, and
    the roundoff floor is checked once, on every point.
    """
    psi0 = gram.kernel.psi0
    N = gram.half_count_N
    chol = gram.factor()
    p2 = np.empty(s.size)
    near, kept = [], []
    for start, stop, rows, halves in _kernel_halves(gram, s):
        schur = [np.empty(stop - start) for _ in halves]

        def whiten(h):
            _lapack.dtrsm(chol[h], halves[h], trans=True)
            np.einsum("ij,ij->i", halves[h], halves[h], out=schur[h])

        run_halves(whiten, (stop - start) * N ** 2)
        p2[start:stop] = psi0 - sum(schur)
        close = np.flatnonzero(p2[start:stop] < _SECOND_ORDER_BELOW * max(1.0, abs(psi0)))
        near.append(start + close)
        kept.append((rows[close], *(w[close] for w in halves)))
        del rows, halves
    near = np.concatenate(near)
    if near.size:
        # the kept kernel rows, folded again, beside their first stage
        kept_v, *kept_w = (np.concatenate(part) for part in zip(*kept))
        rows = [(np.ascontiguousarray(v.T), np.asfortranarray(w))
                for v, w in zip(_fold(kept_v.T), kept_w)]
        dots = [np.empty((2, near.size)) for _ in rows]

        def cardinal_rows(h):
            v, a = rows[h]
            _lapack.dtrsm(chol[h], a, trans=False)
            np.einsum("ij,ij->i", a, v, out=dots[h][0])

        run_halves(cardinal_rows, near.size * N ** 2)
        # numpy's matmul runs on a BLAS of its own, kept to the caller: a
        # second concurrent caller would make it keep a second work buffer;
        # the Gram keeps only the factors, so each block is refilled, one at
        # a time
        for h, ((_, a), dot) in enumerate(zip(rows, dots)):
            np.einsum("ij,ij->i", a, a @ _block(gram.first_row, h), out=dot[1])
        (av, a_e_a), (bv, b_o_b) = dots
        p2[near] = psi0 - 2.0 * (av + bv) + a_e_a + b_o_b
    floor = -POWER_CLAMP * max(1.0, abs(psi0))
    if np.any(p2 < floor):
        raise NegativePowerError(
            f"squared power function reached {float(np.min(p2)):.3e}, below the "
            f"roundoff floor {floor:.3e}; the Gram system is too ill-conditioned")
    return np.maximum(p2, 0.0)


def weighted_pointwise_bound(interp, D, t_grid):
    """Bound |xhat(t) - x(t)| for truths with weighted norm at most D."""
    _check_budget("norm budget D", D)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    norm_sq = wnorm_sq(interp)
    # Factored so that D = sqrt(norm_sq) gives a gap of exactly zero
    r = np.sqrt(max(norm_sq, 0.0))
    gap = (D - r) * (D + r)
    if gap < -FEASIBILITY_RTOL * (1.0 + norm_sq):
        raise InfeasibleBallError(
            f"norm budget D^2 = {D * D:.6g} is below the interpolant norm "
            f"{norm_sq:.6g}; no admissible truth exists")
    constant = float(np.sqrt(max(gap, 0.0)))
    power = power_function(interp.gram, t_grid)
    return BoundReport(t_grid=t_grid, power_values=power,
                       bound_values=constant * power, constant=constant)


def sinc_partition_check(t, T, truncation):
    """Partial sum of sinc^2(t/T - n) over |n| <= truncation.

    The full sum over all integers is 1 for every t; partial sums increase
    monotonically toward it.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    n = np.arange(-int(truncation), int(truncation) + 1)
    return float(np.sum(np.sinc(t / T - n) ** 2))


def minimax_worstcase(samples, E, t, tail_range=10_000, phase=0.0):
    """Construct the worst-case tail signal at time ``t``.

    The adversary spends the leftover energy budget C on tail samples
    (|n| > N, truncated at ``tail_range``) shaped by matched filtering
    against the sinc values at ``t``. Its attained error equals the
    truncated analytic bound and is invariant to the free phase. A NaN,
    infinite or overflowing ``t`` raises `ValueError`.
    """
    N = samples.half_count_N
    if tail_range <= N:
        raise ValueError(f"tail_range must exceed N = {N}, got {tail_range}")
    T = samples.spacing_T
    _check_times(t, np.pi / T, tail_range * T)
    constant = _energy_constant(samples, E)
    side = np.arange(N + 1, int(tail_range) + 1)
    indices = np.concatenate([-side[::-1], side])
    s = np.sinc(t / T - indices)
    tail_sq = float(np.sum(s * s))
    scale = constant / np.sqrt(T)
    if tail_sq > 0.0:
        coeffs = scale * np.exp(1j * phase) * s / np.sqrt(tail_sq)
    else:
        coeffs = np.zeros(indices.size, dtype=complex)

    xhat = complex(truncated_shannon(samples, t))
    z = xhat + complex(np.sum(coeffs * s))
    attained = abs(xhat - z)
    analytic = scale * np.sqrt(tail_sq)
    deficit = 1.0 - sinc_partition_check(t, T, tail_range)
    return MinimaxAdversary(indices=indices, coeffs=coeffs, phase=phase,
                            constant=constant, attained_error=float(attained),
                            analytic_error=float(analytic),
                            truncation_deficit=float(deficit))


def _check_budget(name, value):
    # A plain ValueError: a NaN, infinite or negative budget is an input
    # error, not an infeasible ball (a negative one would pass as its square)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _energy_constant(samples, E):
    _check_budget("energy budget E", E)
    T = samples.spacing_T
    interp_energy = T * float(np.sum(np.abs(samples.values) ** 2))
    gap = E * E - interp_energy
    if gap < -FEASIBILITY_RTOL * (1.0 + interp_energy):
        raise InfeasibleBallError(
            f"energy budget E^2 = {E * E:.6g} is below the interpolant energy "
            f"{interp_energy:.6g}; no admissible truth exists")
    return float(np.sqrt(max(gap, 0.0)))


"""Independent reference computations for checking bandlim's outputs.

Nothing here imports bandlim. Each function re-derives a quantity from the
mathematics the package documents, by a different code path: B-splines from
the truncated-power formula, the kernel by an explicit sum over cosine
terms, Gram solves through numpy/scipy directly, the autocorrelation of a
tabulated density by Gauss-Legendre rules on its linear pieces, and the
Monte-Carlo errors by replaying the documented random-number schedule.
"""

from math import comb, factorial

import numpy as np

NARROW_FACTOR = 20.0
MODULATION_RATE = 1.7
SYNTHESIS_GRID_SIZE = 2048
VALIDATION_GRID_SIZE = 4096


def bspline(K, x):
    """Centered B-spline of degree K by the truncated-power formula."""
    x = np.asarray(x, dtype=float)
    h = 0.5 * (K + 1)
    if K == 0:
        return np.where(np.abs(x) < 0.5, 1.0, 0.0)
    out = np.zeros(x.shape)
    for j in range(K + 2):
        out += (-1) ** j * comb(K + 1, j) * np.maximum(x + h - j, 0.0) ** K
    out /= factorial(K)
    out[np.abs(x) >= h] = 0.0
    return out


class Spec:
    """Reciprocal-weight parameters (B, K, M, d, alpha) as plain numbers."""

    def __init__(self, B, K, M, d, alpha):
        self.B, self.K, self.M = float(B), int(K), int(M)
        self.d = np.asarray(d, dtype=float)
        self.alpha = float(alpha)
        self.A = 2.0 * np.pi * self.B / (self.K + 2 * self.M + 1)

    def reciprocal(self, omega):
        """G(omega) on the open band: spline sum plus the rectangle floor."""
        x = np.asarray(omega, dtype=float) / (2.0 * self.A)
        total = np.full(x.shape, self.alpha)
        for i, m in enumerate(range(-self.M, self.M + 1)):
            total += self.d[i] * bspline(self.K, x - m)
        return total

    def psi(self, t):
        """Kernel (A/pi) sinc^(K+1) * cosine polynomial + 2 alpha B sinc(2Bt)."""
        t = np.asarray(t, dtype=float)
        mix = np.full(t.shape, self.d[self.M])
        for m in range(1, self.M + 1):
            mix += 2.0 * self.d[self.M + m] * np.cos(2.0 * self.A * m * t)
        out = (self.A / np.pi) * np.sinc(self.A * t / np.pi) ** (self.K + 1) * mix
        return out + 2.0 * self.alpha * self.B * np.sinc(2.0 * self.B * t)


def uniform_psi(B, t):
    return 2.0 * B * np.sinc(2.0 * B * np.asarray(t, dtype=float))


def signal(kind, B, t):
    """The two named test signals."""
    t = np.asarray(t, dtype=float)
    wide = np.sinc(B * t) ** 2
    narrow = np.sinc(B * t / NARROW_FACTOR) ** 2
    if kind == "lowfreq":
        return wide + narrow
    return wide + narrow * np.cos(MODULATION_RATE * np.pi * B * t)


def spectrum(kind, B, omega):
    """Fourier transform of a named signal: triangles from squared sincs."""
    omega = np.asarray(omega, dtype=float)
    edge = 2.0 * np.pi * B
    wide = np.maximum(0.0, 1.0 - np.abs(omega) / edge) / B
    width = edge / NARROW_FACTOR

    def tri(om):
        return np.maximum(0.0, 1.0 - np.abs(om) / width)

    if kind == "lowfreq":
        return wide + (NARROW_FACTOR / B) * tri(omega)
    shift = MODULATION_RATE * np.pi * B
    return wide + 0.5 * (NARROW_FACTOR / B) * (tri(omega - shift) + tri(omega + shift))


def density_grid(kind, B, count=4001):
    """(omegas, |X|^2) on the open band, count interior points."""
    edge = 2.0 * np.pi * B
    omegas = np.linspace(-edge, edge, count + 2)[1:-1]
    return omegas, spectrum(kind, B, omegas) ** 2


def smooth(omegas, values, sigma):
    """Gaussian blur of a uniformly sampled density, clipped at zero."""
    step = omegas[1] - omegas[0]
    half = int(np.ceil(4.0 * sigma / step))
    offsets = np.arange(-half, half + 1) * step
    weights = np.exp(-0.5 * (offsets / sigma) ** 2)
    weights /= weights.sum()
    padded = np.concatenate([np.zeros(half), values, np.zeros(half)])
    out = np.zeros(values.size)
    for i, w in enumerate(weights):
        out += w * padded[i:i + values.size]
    return np.maximum(out, 0.0)


def fit(omegas, target, B, K, M, alpha=None):
    """Least-squares symmetric spline fit of G to a target density."""
    edge = 2.0 * np.pi * B
    A = edge / (K + 2 * M + 1)
    if alpha is None:
        alpha = 1e-3 * float(np.max(target))
    x = omegas / (2.0 * A)
    design = bspline(K, x[:, None] - np.arange(-M, M + 1)[None, :])
    inside = np.abs(omegas) < edge
    d = np.linalg.lstsq(design, target - alpha * inside, rcond=None)[0]
    return Spec(B, K, M, 0.5 * (d + d[::-1]), alpha)


def matched(kind, B, K=3, M=11, smoothing=2.0, p=3.0, eps=1e-6):
    """Matched weights: fit to the compressed, smoothed energy density."""
    omegas, dens = density_grid(kind, B)
    A = 2.0 * np.pi * B / (K + 2 * M + 1)
    target = (smooth(omegas, dens, smoothing * A) + eps) ** (0.5 * p - 1.0)
    spec = fit(omegas, target, B, K, M)
    edge = 2.0 * np.pi * B
    peak = float(np.max(spec.reciprocal(
        np.linspace(-edge, edge, VALIDATION_GRID_SIZE + 2)[1:-1])))
    return Spec(B, K, M, spec.d / peak, spec.alpha / peak)


class Gram:
    """Toeplitz system psi((m - n) T), n = -N..N, factored by Cholesky."""

    def __init__(self, psi, T, N):
        # Imported here, not at the top: the workloads import this module in
        # the timed set-up, which must hold only what bandlim itself imports.
        from scipy.linalg import cho_factor

        self.psi, self.T, self.N = psi, float(T), int(N)
        self.nodes = np.arange(-N, N + 1) * self.T
        row = psi(np.arange(2 * N + 1) * self.T)
        idx = np.abs(np.arange(2 * N + 1)[:, None] - np.arange(2 * N + 1)[None, :])
        self.dense = row[idx]
        self.factor = cho_factor(self.dense, lower=True)
        self.psi0 = float(psi(np.zeros(1))[0])

    def solve(self, rhs):
        from scipy.linalg import cho_solve

        return cho_solve(self.factor, rhs)

    def cross(self, t):
        """Matrix psi(t_i - nT), shape (len(t), 2N+1)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.psi(t[:, None] - self.nodes[None, :])

    def interpolate(self, samples, t):
        return self.cross(t) @ self.solve(samples)

    def power_sq(self, t):
        """Squared power function psi(0) - v^T R^{-1} v."""
        v = self.cross(t).T
        return self.psi0 - np.sum(v * self.solve(v), axis=0)

    def cardinal(self, n, t):
        e = np.zeros(2 * self.N + 1)
        e[n + self.N] = 1.0
        return self.cross(t) @ self.solve(e)


def shannon(samples, T, t):
    N = (len(samples) - 1) // 2
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.sinc(t[:, None] / T - np.arange(-N, N + 1)[None, :]) @ samples


class TabulatedAutocorrelation:
    """R(tau) = (1/pi) integral_0^{2 pi B} S(omega) cos(omega tau) for a
    density linear between grid nodes (and constant beyond the end nodes)."""

    ORDER = 5

    def __init__(self, omegas, values, B):
        edge = 2.0 * np.pi * B
        inner = omegas[(omegas > 0.0) & (omegas < edge)]
        cuts = np.concatenate([[0.0], inner, [edge]])
        x, w = np.polynomial.legendre.leggauss(self.ORDER)
        lo, hi = cuts[:-1, None], cuts[1:, None]
        self.points = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
        self.weights = (0.5 * (hi - lo) * w[None, :]).ravel()
        self.weights = self.weights * np.interp(self.points, omegas, values) / np.pi

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        flat = tau.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, 64):
            chunk = flat[start:start + 64]
            out[start:start + 64] = np.cos(np.multiply.outer(chunk, self.points)) @ self.weights
        return out.reshape(tau.shape)


def synthesis(density, B, nfreq=SYNTHESIS_GRID_SIZE):
    """Midpoint frequencies and amplitudes of the spectral synthesis."""
    d_omega = 2.0 * np.pi * B / nfreq
    omegas = (np.arange(nfreq) + 0.5) * d_omega
    return omegas, np.sqrt(density(omegas) * d_omega / np.pi)


def realization(omegas, amps, seed, t):
    """x(t) of realization ``seed`` (an int or a sequence for default_rng)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(omegas.size)
    b = rng.standard_normal(omegas.size)
    phase = np.multiply.outer(omegas, np.asarray(t, dtype=float))
    return (amps * a) @ np.cos(phase) + (amps * b) @ np.sin(phase)


def predictor_row(kind, B, T, N, t_eval, matched_psi):
    """Weights a with xhat(t_eval) = a . x[-N..N] for one interpolator kind."""
    if kind == "shannon":
        return np.sinc(t_eval / T - np.arange(-N, N + 1))
    psi = matched_psi if kind == "matched_weight" else (lambda t: uniform_psi(B, t))
    gram = Gram(psi, T, N)
    return gram.solve(gram.cross([t_eval])[0])


def exact_mse(omegas, amps, T, N, t_eval, row):
    """E|a.x - x(t_eval)|^2 under the discretized synthesis covariance."""
    pts = np.concatenate([np.arange(-N, N + 1) * T, [t_eval]])
    cov = (amps ** 2 * np.cos(np.subtract.outer(pts, pts)[..., None] * omegas)).sum(-1)
    a = np.concatenate([row, [-1.0]])
    return float(a @ cov @ a)

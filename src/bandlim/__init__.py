"""Minimum-norm interpolation of bandlimited signals with spectral priors.

Uniform samples of a bandlimited signal are interpolated by the minimum-norm
data-consistent element of a frequency-weighted Hilbert space. The weight
function encodes a spectral prior through the B-spline expansion of its
reciprocal; uniform weights at critical spacing recover truncated sinc
interpolation, and weights inversely proportional to a power spectral
density recover the LMMSE estimator of the matching stationary process.
"""

from .bsplines import bspline_eval
from .bounds import (BoundReport, InfeasibleBallError, MinimaxAdversary,
                     NegativePowerError, minimax_worstcase, power_function,
                     sinc_partition_check, weighted_pointwise_bound)
from .interpolate import (GramMatrix, Interpolant, NotPositiveDefiniteError,
                          SampleSet, build_gram, cardinal, cardinal_coeffs,
                          evaluate, solve, truncated_shannon, wnorm_sq)
from .kernel import Kernel, psi_closed_form, psi_quadrature, shannon_kernel
from .quadrature import QuadratureError, adaptive_simpson
from .signals import AnalyticSignal, eval_signal, matched_weights, sample_signal, spectrum
from .stochastic import (PSDModel, autocorrelation, empirical_mse,
                         lmmse_interpolate, squared_errors)
from .weights import (BandError, DensityGrid, WeightFitError, WeightSpec,
                      fit_weights, gaussian_smooth, identity_transform,
                      inverse_weight_eval, normalized, power_transform)

__all__ = [
    "AnalyticSignal", "BandError", "BoundReport", "DensityGrid", "GramMatrix",
    "InfeasibleBallError", "Interpolant", "Kernel", "MinimaxAdversary",
    "NegativePowerError", "NotPositiveDefiniteError", "PSDModel",
    "QuadratureError", "SampleSet", "WeightFitError", "WeightSpec",
    "adaptive_simpson", "autocorrelation", "bspline_eval", "build_gram",
    "cardinal", "cardinal_coeffs", "empirical_mse", "eval_signal",
    "evaluate", "fit_weights", "gaussian_smooth", "identity_transform",
    "inverse_weight_eval", "lmmse_interpolate", "matched_weights",
    "minimax_worstcase", "normalized", "power_function",
    "power_transform", "psi_closed_form", "psi_quadrature", "sample_signal",
    "shannon_kernel", "sinc_partition_check", "solve", "spectrum",
    "squared_errors", "truncated_shannon", "weighted_pointwise_bound",
    "wnorm_sq",
]

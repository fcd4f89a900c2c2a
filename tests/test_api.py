import bandlim

# The public names of the package: adding or removing one is an API change.
PUBLIC_NAMES = [
    "AnalyticSignal", "BandError", "BoundReport", "DensityGrid", "GramMatrix",
    "InfeasibleBallError", "Interpolant", "Kernel", "MinimaxAdversary",
    "NegativePowerError", "NotPositiveDefiniteError", "PSDModel",
    "QuadratureError", "SampleSet", "WeightFitError", "WeightSpec",
    "adaptive_simpson", "autocorrelation", "bspline_eval", "build_gram",
    "cardinal", "cardinal_coeffs", "empirical_mse", "eval_signal", "evaluate",
    "fit_weights", "gaussian_smooth", "identity_transform",
    "inverse_weight_eval", "lmmse_interpolate", "matched_weights",
    "minimax_worstcase", "normalized", "power_function", "power_transform",
    "psi_closed_form", "psi_quadrature", "sample_signal", "shannon_kernel",
    "sinc_partition_check", "solve", "spectrum", "squared_errors",
    "truncated_shannon", "weighted_pointwise_bound", "wnorm_sq",
]


def test_public_names_are_pinned():
    assert sorted(bandlim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(bandlim, name).__name__ == name

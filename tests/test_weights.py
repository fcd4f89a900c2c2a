import json

import numpy as np
import pytest

from bandlim import (BandError, DensityGrid, WeightFitError, WeightSpec,
                     bspline_eval, fit_weights, gaussian_smooth,
                     identity_transform, inverse_weight_eval, normalized,
                     power_transform)
from bandlim.signals import AnalyticSignal, matched_weights
from bandlim import weights as weights_module
from bandlim.weights import _spline_mix, _translates
from conftest import random_weight_spec

B = 1.0
EDGE = 2.0 * np.pi * B


def band_grid(count=513):
    return np.linspace(-EDGE, EDGE, count + 2)[1:-1]


class TestWeightSpec:
    @pytest.mark.parametrize("B", [np.inf, np.nan, 0.0, -1.0])
    def test_bandwidth_must_be_positive_and_finite(self, B):
        for build in (lambda: WeightSpec(B, 3, 2, np.ones(5), 0.1),
                      lambda: weights_module.flat_spec(B, 1.0)):
            with pytest.raises(ValueError, match="bandwidth_B must be positive and finite"):
                build()

    def test_spacing_recompute(self):
        spec = random_weight_spec(0)
        expected = 2.0 * np.pi * spec.bandwidth_B / (
            spec.degree_K + 2 * spec.half_count_M + 1)
        assert spec.spacing_A == expected

    def test_symmetry_enforced(self):
        d = np.array([1.0, 2.0, 3.0])  # d[-1] != d[1]
        with pytest.raises(ValueError, match="symmetric"):
            WeightSpec(B, 3, 1, d, 0.1)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            WeightSpec(B, 3, 1, np.array([-1.0, -1.0, -1.0]), 0.0)

    def test_positivity_failure_names_worst_frequency(self):
        # the negative center spline makes G dip lowest at the grid points
        # nearest omega = 0 (the 4096-point grid straddles the origin)
        d = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match=r"positive on the band near omega = -?0\.00153"):
            WeightSpec(B, 3, 1, d, 0.1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            WeightSpec(B, 3, 2, np.ones(3), 0.0)

    def test_reciprocal_range_is_the_validation_pass(self, monkeypatch):
        for spec in (random_weight_spec(2), random_weight_spec(9),
                     WeightSpec(B, 0, 0, np.zeros(1), 1.5)):
            g = inverse_weight_eval(spec, spec.validation_grid())
            assert spec.reciprocal_range() == (float(np.min(g)), float(np.max(g)))
            assert "_range" not in repr(spec)
        calls = []
        evaluate = weights_module.inverse_weight_eval
        monkeypatch.setattr(weights_module, "inverse_weight_eval",
                            lambda *args: calls.append(1) or evaluate(*args))
        # one positivity pass for the fit; its normalized copy needs none
        matched_weights(AnalyticSignal.lowfreq(B))
        assert len(calls) == 1

    def test_json_roundtrip(self, tmp_path):
        spec = random_weight_spec(1)
        path = tmp_path / "spec.json"
        spec.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"bandwidth_B", "degree_K", "half_count_M",
                            "coeffs_d", "floor_alpha"}
        loaded = WeightSpec.load(path)
        assert loaded.bandwidth_B == spec.bandwidth_B
        np.testing.assert_array_equal(loaded.coeffs_d, spec.coeffs_d)

    @pytest.mark.parametrize("doc", [[1.0, 3, 2], "weights", 3.0, None])
    def test_document_must_be_an_object(self, doc):
        # a list or a string once raised a TypeError, which the CLI did not map
        with pytest.raises(ValueError, match="weight document must be a JSON object"):
            WeightSpec.from_dict(doc)

    @pytest.mark.parametrize("value, message", [
        (3.7, "degree_K must be an integer, got 3.7"),
        (True, "degree_K must be an integer, got True"),
        ("3", "degree_K is invalid: expected an integer, got '3'"),
    ])
    def test_degree_must_be_an_integer(self, value, message):
        # 3.7 once loaded as K = 3 and true as K = 1
        doc = {**random_weight_spec(1, degree_K=3).to_dict(), "degree_K": value}
        with pytest.raises(ValueError, match=message):
            WeightSpec.from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("bandwidth_B", "1.0"), ("floor_alpha", True), ("half_count_M", 2.5),
        ("coeffs_d", "1, 2, 1"), ("coeffs_d", [[1.0]]), ("coeffs_d", [1.0, "2", 1.0]),
    ])
    def test_fields_are_checked_by_type(self, key, value):
        doc = {**random_weight_spec(1).to_dict(), key: value}
        with pytest.raises(ValueError, match=key.split("_")[0]):
            WeightSpec.from_dict(doc)

    def test_integral_float_degree_loads(self):
        # JSON may write 3 as 3.0
        spec = random_weight_spec(1, degree_K=3)
        loaded = WeightSpec.from_dict({**spec.to_dict(), "degree_K": 3.0})
        assert loaded.degree_K == 3 and isinstance(loaded.degree_K, int)
        assert loaded.to_dict() == spec.to_dict()


class TestInverseWeightEval:
    def test_single_rectangle_gives_unit_weight(self):
        # K=0, M=0 makes the lone rectangle span the full band exactly
        spec = WeightSpec(B, 0, 0, np.array([1.0]), 0.0)
        om = band_grid()
        np.testing.assert_allclose(inverse_weight_eval(spec, om), 1.0, atol=0)

    def test_alpha_only(self):
        spec = WeightSpec(B, 3, 2, np.zeros(5), 2.0)
        om = band_grid()
        np.testing.assert_allclose(inverse_weight_eval(spec, om), 2.0, atol=0)

    def test_matches_term_by_term_oracle(self):
        spec = random_weight_spec(7)
        om = np.linspace(-spec.band_edge, spec.band_edge, 101 + 2)[1:-1]
        expected = np.zeros_like(om)
        for m in range(-spec.half_count_M, spec.half_count_M + 1):
            expected += spec.coeffs_d[m + spec.half_count_M] * bspline_eval(
                spec.degree_K, om / (2 * spec.spacing_A) - m)
        expected += spec.floor_alpha * bspline_eval(0, om / (2 * spec.band_edge))
        np.testing.assert_allclose(inverse_weight_eval(spec, om), expected,
                                   rtol=1e-13)

    def test_band_edge_is_spline_mix_plus_floor(self):
        # the floor is alpha on the closed band, so G is continuous at +-2piB
        spec = random_weight_spec(5)
        edges = np.array([-spec.band_edge, spec.band_edge])
        mix = _spline_mix(spec.degree_K, spec.half_count_M, spec.coeffs_d,
                          edges / (2 * spec.spacing_A))
        np.testing.assert_array_equal(inverse_weight_eval(spec, edges),
                                      mix + spec.floor_alpha)
        np.testing.assert_allclose(inverse_weight_eval(spec, edges),
                                   inverse_weight_eval(spec, edges * (1 - 1e-12)),
                                   rtol=1e-9)

    def test_out_of_band_rejected(self):
        spec = random_weight_spec(2)
        with pytest.raises(BandError):
            inverse_weight_eval(spec, spec.band_edge * 1.001)

    def test_even_in_frequency(self):
        # mirrored evaluation sums the same terms in reverse order, so agree
        # to rounding rather than bit-exactly
        spec = random_weight_spec(3)
        om = np.linspace(0, spec.band_edge * 0.999, 64)
        np.testing.assert_allclose(inverse_weight_eval(spec, om),
                                   inverse_weight_eval(spec, -om),
                                   rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("K,M", [(0, 4), (1, 5), (3, 11), (6, 3), (10, 7)])
def test_translates_fill_the_dense_design(K, M):
    # scattering the K + 1 translates per point gives, bit for bit, the
    # design of all 2M + 1 translates
    x = np.random.default_rng(K + M).uniform(-M - K, M + K, 3001)
    dense = np.stack([bspline_eval(K, x - m) for m in range(-M, M + 1)], axis=1)
    design = np.zeros_like(dense)
    rows = np.arange(x.size)
    for m, in_range, beta in _translates(K, M, x):
        design[rows[in_range], m[in_range] + M] = beta[in_range]
    np.testing.assert_array_equal(design, dense)


def test_partition_plateau():
    # With equal coefficients and no floor, the translated splines sum to the
    # common value wherever no spline is truncated by the band edge.
    for K, M in ((3, 11), (1, 5)):
        spec = WeightSpec(B, K, M, np.full(2 * M + 1, 0.7), 0.0)
        half_extent = spec.spacing_A * (2 * M + 1 - K)
        om = np.linspace(-half_extent, half_extent, 101)
        np.testing.assert_allclose(inverse_weight_eval(spec, om), 0.7,
                                   rtol=1e-12)


class TestFitWeights:
    def test_constant_target_plateau(self):
        # Needs a basis fine enough that the unavoidable band-edge rolloff's
        # least-squares footprint stays outside the interior 80%.
        grid = DensityGrid(band_grid(2001), np.ones(2001))
        spec = fit_weights(grid, B, degree_K=1, half_count_M=28, floor_alpha=0.0)
        om = band_grid(2001)
        inner = om[np.abs(om) <= 0.8 * EDGE]
        np.testing.assert_allclose(inverse_weight_eval(spec, inner), 1.0,
                                   atol=1e-3)

    def test_increasing_transform_inverts_density_ordering(self):
        # larger density at om1 than om2 must produce smaller weight at om1
        om = band_grid(801)
        dens = np.exp(-0.5 * (om / (0.3 * EDGE)) ** 2)
        spec = fit_weights(DensityGrid(om, dens), B, 3, 11,
                           transform=power_transform(4.0, 1e-3))
        g = inverse_weight_eval(spec, np.array([0.0, 0.7 * EDGE]))
        w = 1.0 / g
        assert dens[len(om) // 2] > np.interp(0.7 * EDGE, om, dens)
        assert w[0] < w[1]

    def test_decreasing_power_transform_residual(self):
        # theta(tau) = (tau + 1e-3)^(-1/2) spikes where the triangle hits
        # zero; the fit can only track it where the basis resolves it, so the
        # meaningful residual is over the interior of the band.
        om = band_grid(801)
        z = np.maximum(0.0, 1.0 - np.abs(om) / EDGE)
        theta = power_transform(1.0, 1e-3)
        spec = fit_weights(DensityGrid(om, z), B, 3, 11, floor_alpha=1.0,
                           transform=theta)
        inner = np.abs(om) <= 0.8 * EDGE
        g = inverse_weight_eval(spec, om[inner])
        rel = np.max(np.abs(g - theta(z[inner]))) / np.max(theta(z))
        assert rel < 0.05

    def test_refit_recovers_spline_representable_target(self):
        # a target generated by a spec lies in the fit's span: residual is
        # solver-level
        spec = random_weight_spec(11, degree_K=3, half_count_M=9, bandwidth_B=B)
        om = band_grid(401)
        grid = DensityGrid(om, inverse_weight_eval(spec, om))
        refit = fit_weights(grid, B, 3, 9, floor_alpha=spec.floor_alpha)
        np.testing.assert_allclose(inverse_weight_eval(refit, om),
                                   grid.values, atol=1e-8)

    def test_nonpositive_fit_reports_frequency(self):
        # narrow spike far below basis resolution makes the fit ring negative
        om = band_grid(2001)
        z = np.exp(-0.5 * (om / (0.01 * EDGE)) ** 2)
        with pytest.raises(WeightFitError, match="omega"):
            fit_weights(DensityGrid(om, z), B, 3, 11, floor_alpha=0.0)

    def test_negative_floor_is_not_a_fit_failure(self):
        # only the positivity check becomes WeightFitError; the spec checks
        # floor_alpha before positivity
        grid = DensityGrid(band_grid(), np.ones(513))
        with pytest.raises(ValueError, match="floor_alpha"):
            fit_weights(grid, B, 3, 11, floor_alpha=-0.5)

    def test_one_sided_grid_fits_like_two_sided(self):
        # the fitted model is even, so the half omega >= 0 of a two-sided
        # grid without a node at 0 carries the same least-squares problem
        om = band_grid(800)
        for target in (1.0 + 0.5 * np.cos(om), 1.0 + np.exp(-(om / 3.0) ** 2)):
            two = fit_weights(DensityGrid(om, target), B, 3, 11, floor_alpha=0.1)
            half = om > 0
            one = fit_weights(DensityGrid(om[half], target[half]), B, 3, 11,
                              floor_alpha=0.1)
            np.testing.assert_allclose(one.coeffs_d, two.coeffs_d, rtol=1e-12)
            inner = om[np.abs(om) <= 0.8 * EDGE]
            np.testing.assert_allclose(inverse_weight_eval(one, inner),
                                       inverse_weight_eval(two, inner),
                                       rtol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_fit_against_averaged_fit(self, seed):
        # the folded fit is least squares over symmetric coefficient vectors,
        # so no symmetrized unconstrained fit has a smaller residual; on a
        # symmetric grid the averaged fit is the least-squares fit of the
        # data's even part, which is the folded fit
        rng = np.random.default_rng(seed)
        K, M, alpha = int(rng.integers(1, 6)), int(rng.integers(3, 12)), 0.1
        spacing = 2.0 * np.pi * B / (K + 2 * M + 1)

        def target(om):
            return 1.0 + 0.5 * np.cos(om) + 0.3 * np.sin(0.7 * om + 0.4)

        def averaged_fit(om):
            x = om / (2.0 * spacing)
            dense = np.stack([bspline_eval(K, x - m) for m in range(-M, M + 1)],
                             axis=1)
            d, *_ = np.linalg.lstsq(dense, target(om) - alpha, rcond=None)
            return dense, 0.5 * (d + d[::-1])

        asym = np.sort(rng.uniform(-EDGE, EDGE, 400))
        dense, averaged = averaged_fit(asym)
        folded = fit_weights(DensityGrid(asym, target(asym)), B, K, M,
                             floor_alpha=alpha).coeffs_d
        np.testing.assert_array_equal(folded, folded[::-1])
        y = target(asym) - alpha
        assert (np.linalg.norm(dense @ folded - y)
                <= np.linalg.norm(dense @ averaged - y) * (1 + 1e-12))

        right = np.sort(rng.uniform(0.0, EDGE, 200))
        sym = np.concatenate([-right[::-1], right])
        _, averaged = averaged_fit(sym)
        folded = fit_weights(DensityGrid(sym, target(sym)), B, K, M,
                             floor_alpha=alpha).coeffs_d
        np.testing.assert_allclose(folded, averaged,
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(averaged)))

    def test_too_few_nodes_rejected(self):
        grid = DensityGrid(np.linspace(-1, 1, 5), np.ones(5))
        with pytest.raises(ValueError, match="nodes"):
            fit_weights(grid, B, 3, 11)


class TestWeightsFromDensity:
    """Weights W = 1/S fitted to a density S by `fit_weights`."""

    def test_uniform_psd(self):
        gamma_sq = 2.5
        grid = DensityGrid(band_grid(801), np.full(801, gamma_sq))
        spec = fit_weights(grid, B, degree_K=1, half_count_M=28, floor_alpha=0.0)
        om = band_grid(401)
        inner = om[np.abs(om) <= 0.8 * EDGE]
        w = 1.0 / inverse_weight_eval(spec, inner)
        np.testing.assert_allclose(w, 1.0 / gamma_sq, atol=1e-3 / gamma_sq)

    def test_triangle_psd_tracked_at_nodes(self):
        om = band_grid(801)
        z = np.maximum(0.05, 1.0 - np.abs(om) / EDGE)
        spec = fit_weights(DensityGrid(om, z), B, 3, 11)
        inner = np.abs(om) <= 0.8 * EDGE
        g = inverse_weight_eval(spec, om[inner])
        assert np.max(np.abs(g - z[inner])) < 0.02


class TestDensityGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError):
            DensityGrid(np.array([0.0, 1.0]), np.array([1.0, -2.0]))

    def test_csv_roundtrip(self, tmp_path):
        # 17 significant digits read back to the same doubles
        grid = DensityGrid(np.linspace(-3, 3, 11), np.linspace(0.1, 2.0, 11))
        path = tmp_path / "density.csv"
        path.write_text("omega,value\n" + "".join(
            f"{om:.17g},{va:.17g}\n" for om, va in zip(grid.omegas, grid.values)))
        loaded = DensityGrid.from_csv(path)
        np.testing.assert_array_equal(loaded.omegas, grid.omegas)
        np.testing.assert_array_equal(loaded.values, grid.values)

    def test_csv_short_row_rejected(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("omega,value\n-1,0.5\n0\n1,0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            DensityGrid.from_csv(path)


def test_gaussian_smooth_preserves_mass_and_spreads():
    om = np.linspace(-EDGE, EDGE, 2001)
    z = np.zeros(2001)
    z[1000] = 1.0
    smoothed = gaussian_smooth(DensityGrid(om, z), sigma=0.5)
    assert smoothed.values[1000] < 1.0
    assert smoothed.values[990] > 0.0
    assert np.sum(smoothed.values) == pytest.approx(1.0, rel=1e-6)


def test_normalized_unit_peak():
    spec = normalized(random_weight_spec(5))
    lo, hi = spec.reciprocal_range()
    assert hi == pytest.approx(1.0, rel=1e-12)
    assert lo > 0


@pytest.mark.parametrize("seed", range(6))
def test_normalized_copy_is_the_scaled_spec(seed):
    spec = random_weight_spec(seed)
    _, peak = spec.reciprocal_range()
    scaled = normalized(spec)
    np.testing.assert_array_equal(scaled.coeffs_d, spec.coeffs_d / peak)
    assert not scaled.coeffs_d.flags.writeable
    assert scaled.floor_alpha == spec.floor_alpha / peak
    assert spec.reciprocal_range()[1] == peak  # the source is left as it was
    g = inverse_weight_eval(scaled, scaled.validation_grid())
    np.testing.assert_allclose(scaled.reciprocal_range(),
                               (np.min(g), np.max(g)), rtol=1e-14, atol=0)


def test_identity_transform_passthrough():
    x = np.array([0.5, 2.0])
    np.testing.assert_array_equal(identity_transform(x), x)


@pytest.mark.parametrize("build", [
    lambda K, M: WeightSpec(B, K, M, np.ones(1), 0.1),
    lambda K, M: fit_weights(DensityGrid(band_grid(), np.ones(513)), B, K, M),
    lambda K, M: matched_weights(AnalyticSignal.lowfreq(B), degree_K=K, half_count_M=M),
])
def test_negative_basis_size_named_before_use(build):
    with pytest.raises(ValueError, match="half_count_M must be >= 0, got -1"):
        build(3, -1)
    with pytest.raises(ValueError, match="degree_K must be >= 0, got -2"):
        build(-2, 0)

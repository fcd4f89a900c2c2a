import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bandlim import (BandError, DensityGrid, Kernel, WeightSpec, psi_closed_form,
                     psi_quadrature, shannon_kernel)
from bandlim import kernel as kernel_module, weights as weights_module
from bandlim.kernel import _BLOCK
from bandlim.weights import NonPositiveWeightError
from conftest import (random_weight_spec, split_cpus, tabulated_transform_reference,
                      tabulated_transform_scale)


def oracle_tolerance(kernel):
    return max(1e-8, 1e-6 * abs(kernel.psi0))


def _unreachable(*args, **kwargs):
    raise AssertionError("positivity pass run")


class TestUniformKernel:
    def test_reduces_to_scaled_sinc(self):
        B = 0.8
        k = Kernel.uniform(B)
        t = np.linspace(-4, 4, 33)
        np.testing.assert_array_equal(psi_closed_form(k, t),
                                      2 * B * np.sinc(2 * B * t))

    def test_is_the_flat_spec(self):
        k = Kernel.uniform(0.8)
        assert k == Kernel.from_spec(WeightSpec(0.8, 0, 0, np.zeros(1), 1.0))
        edge = 2.0 * np.pi * 0.8
        np.testing.assert_array_equal(k.reciprocal(np.linspace(-edge, edge, 9)), 1.0)
        with pytest.raises(BandError):
            k.reciprocal(1.01 * edge)
        assert psi_quadrature(k, 0.3) == pytest.approx(
            float(psi_closed_form(k, 0.3)), abs=oracle_tolerance(k))

    @pytest.mark.parametrize("B, level", [(0.8, 1.0), (1.0, 0.7), (2.5, 3), (0.3, 1e-300)])
    def test_flat_spec_skips_the_positivity_pass(self, monkeypatch, B, level):
        # the flat level is checked directly; the spec is the validated one
        validated = WeightSpec(B, 0, 0, np.zeros(1), level)
        monkeypatch.setattr(weights_module, "inverse_weight_eval", _unreachable)
        k = Kernel.uniform(B, level)
        assert k.spec == validated
        assert k.spec.reciprocal_range() == validated.reciprocal_range()
        assert k.spec.floor_alpha is level
        assert not k.spec.coeffs_d.flags.writeable
        monkeypatch.undo()
        t = np.linspace(-40, 40, 4001)
        np.testing.assert_array_equal(psi_closed_form(k, t),
                                      psi_closed_form(Kernel.from_spec(validated), t))

    @pytest.mark.parametrize("B", [np.inf, np.nan, 0.0, -1.0])
    def test_bandwidth_must_be_positive_and_finite(self, B):
        # an infinite bandwidth once gave a kernel whose psi is NaN
        grid = DensityGrid(np.linspace(-1.0, 1.0, 5), np.ones(5))
        spec = random_weight_spec(4, bandwidth_B=1.0)
        for build in (lambda: Kernel.uniform(B), lambda: Kernel.from_grid(B, grid),
                      lambda: Kernel(bandwidth_B=B, spec=spec)):
            with pytest.raises(ValueError, match="bandwidth_B must be positive and finite"):
                build()

    @pytest.mark.parametrize("level", [0.0, -1.0, np.nan, np.inf])
    def test_flat_level_must_be_positive_and_finite(self, level):
        with pytest.raises(NonPositiveWeightError, match="flat level"):
            Kernel.uniform(1.0, level)

    def test_critical_spacing_gives_shannon_kernel_over_T(self):
        T = 0.5
        k = Kernel.uniform(1.0 / (2 * T))
        t = np.linspace(-3, 3, 25)
        np.testing.assert_allclose(psi_closed_form(k, t),
                                   shannon_kernel(T, t) / T, rtol=1e-15)

    def test_quadrature_at_zero_gives_twice_bandwidth(self):
        k = Kernel.uniform(1.25)
        assert psi_quadrature(k, 0.0) == pytest.approx(2.5, abs=1e-9)

    def test_quadrature_at_first_zero(self):
        T = 0.5
        k = Kernel.uniform(1.0 / (2 * T))
        assert psi_quadrature(k, T) == pytest.approx(0.0, abs=1e-9)


class TestSpecKernel:
    def test_origin_value(self):
        spec = random_weight_spec(21)
        k = Kernel.from_spec(spec)
        expected = (spec.spacing_A / np.pi) * np.sum(spec.coeffs_d) \
            + 2 * spec.floor_alpha * spec.bandwidth_B
        assert float(psi_closed_form(k, 0.0)) == pytest.approx(expected, rel=1e-14)
        assert k.psi0 == pytest.approx(expected, rel=1e-14)

    def test_alpha_only_is_scaled_uniform(self):
        spec = WeightSpec(1.0, 3, 2, np.zeros(5), 2.0)
        k = Kernel.from_spec(spec)
        t = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(psi_closed_form(k, t),
                                   2 * (2 * np.sinc(2 * t)), rtol=1e-14, atol=1e-16)
        # quadrature agrees through linearity of the transform
        assert psi_quadrature(k, 0.7) == pytest.approx(
            2 * 2 * np.sinc(2 * 0.7), abs=1e-9)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_closed_form_against_quadrature_oracle(self, seed):
        spec = random_weight_spec(seed)
        k = Kernel.from_spec(spec)
        rng = np.random.default_rng(seed + 1000)
        tol = oracle_tolerance(k)
        for t in rng.uniform(-20.0, 20.0, 12):
            assert float(psi_closed_form(k, t)) == pytest.approx(
                psi_quadrature(k, t), abs=tol)

    def test_evenness(self):
        spec = random_weight_spec(41)
        k = Kernel.from_spec(spec)
        t = np.linspace(0.0, 17.0, 101)
        np.testing.assert_allclose(psi_closed_form(k, t),
                                   psi_closed_form(k, -t), rtol=1e-14)

    def test_origin_positive_for_valid_specs(self):
        for seed in range(6):
            assert Kernel.from_spec(random_weight_spec(seed)).psi0 > 0

    def test_bandwidth_mismatch_rejected(self):
        spec = random_weight_spec(4, bandwidth_B=1.0)
        with pytest.raises(ValueError):
            Kernel(bandwidth_B=2.0, spec=spec)


class TestShannonKernel:
    def test_unit_at_origin(self):
        assert shannon_kernel(0.7, 0.0) == 1.0

    def test_zero_at_nonzero_multiples(self):
        T = 0.3
        k = np.array([-4, -1, 1, 2, 7]) * T
        np.testing.assert_allclose(shannon_kernel(T, k), 0.0, atol=1e-15)

    def test_half_sample_value(self):
        # sin(pi/2) / (pi/2) = 2/pi
        assert float(shannon_kernel(1.0, 0.5)) == pytest.approx(2 / np.pi, rel=1e-15)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            shannon_kernel(0.0, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [np.nan, [0.5, -np.inf], [0.5, 1e308], 2e307])
    def test_non_finite_or_overflowing_times_rejected(self, t):
        # t / T = 1e308 / 0.3 overflows, and sinc read NaN; 2e307 / 0.3 does
        # not, but pi times it does
        with pytest.raises(ValueError, match="evaluation times must be finite"):
            shannon_kernel(0.3, t)

    def test_largest_accepted_time_is_finite(self):
        # the check leaves a factor 2 below the overflow of pi t / T
        t = sys.float_info.max / (2.0 * np.pi / 0.3)
        assert np.isfinite(shannon_kernel(0.3, t))


@settings(max_examples=25, deadline=None)
@given(st.floats(-30, 30))
def test_even_symmetry_pointwise(t):
    spec = random_weight_spec(55)
    k = Kernel.from_spec(spec)
    np.testing.assert_allclose(psi_closed_form(k, t), psi_closed_form(k, -t),
                               rtol=1e-13, atol=1e-18)


def dense_reference(spec, t):
    """The closed form summed term by term: M cosines and a float power."""
    t = np.asarray(t, dtype=float)
    A, K, M, d = spec.spacing_A, spec.degree_K, spec.half_count_M, spec.coeffs_d
    mix = np.full(t.shape, d[M])
    for m in range(1, M + 1):
        mix = mix + 2.0 * d[M + m] * np.cos(2.0 * A * m * t)
    envelope = (A / np.pi) * np.power(np.sinc(A * t / np.pi), float(K + 1))
    return envelope * mix \
        + 2.0 * spec.floor_alpha * spec.bandwidth_B * np.sinc(2.0 * spec.bandwidth_B * t)


def reference_tolerance(spec):
    return 1e-13 * ((spec.spacing_A / np.pi) * np.sum(np.abs(spec.coeffs_d))
                    + 2.0 * spec.floor_alpha * spec.bandwidth_B)


# Random specs, plus the two flat K=0, M=0 forms: the full-band spline
# rectangle, and the floor alone that Kernel.uniform and PSDModel.uniform build.
spec_strategy = st.one_of(
    st.integers(0, 10_000).map(random_weight_spec),
    st.sampled_from([0.5, 1.0, 2.0]).map(
        lambda B: WeightSpec(B, 0, 0, np.array([0.7]), 0.0)),
    st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.7, 1.0, 3.0])).map(
        lambda case: WeightSpec(case[0], 0, 0, np.zeros(1), case[1])),
)
times_strategy = arrays(float, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=30),
                        elements=st.floats(-2000.0, 2000.0))


@settings(max_examples=60, deadline=None)
@given(spec_strategy, times_strategy)
@example(random_weight_spec(7), np.array(0.0))
@example(WeightSpec(1.0, 0, 0, np.array([0.7]), 0.0), np.zeros((0, 3)))
def test_closed_form_matches_dense_reference(spec, t):
    value = np.asarray(psi_closed_form(Kernel.from_spec(spec), t))
    assert value.shape == t.shape
    np.testing.assert_allclose(value, dense_reference(spec, t), rtol=0,
                               atol=reference_tolerance(spec))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 20.0), st.floats(1e-3, 1e3), times_strategy)
@example(1.0, 1.0, np.linspace(-3.0, 3.0, 2 * _BLOCK + 5))
@example(0.8, 1.0, np.array(0.0))
def test_flat_spec_is_bitwise_the_floor_term(B, level, t):
    # no spline mass: the spline term is not evaluated, so nothing is added
    k = Kernel.uniform(B, level)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_module, "_clenshaw", _unreachable)
        value = np.asarray(psi_closed_form(k, t))
    expected = np.asarray(2.0 * level * B * np.sinc(2.0 * B * t))
    assert value.shape == t.shape and value.tobytes() == expected.tobytes()


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10_000))
def test_closed_form_across_block_boundaries(seed):
    # for a spec and a density-grid kernel, the entries either side of each
    # multiple of _BLOCK, and one in 97, match the reference, and psi of each
    # alone is its value inside the blocks, bitwise: a density grid sums over
    # its pieces row by row too
    rng = np.random.default_rng(seed)
    t = rng.uniform(-50.0, 50.0, (3, _BLOCK + 7))
    edges = np.arange(_BLOCK, t.size, _BLOCK)[:, None] + np.arange(-2, 2)
    picked = np.union1d(np.arange(0, t.size, 97), edges)
    spec = random_weight_spec(seed)
    B, grid = grid_example(1.0, -1.1, 1.1, 30, seed=seed)
    cases = [(Kernel.from_spec(spec), partial(dense_reference, spec), reference_tolerance(spec)),
             (Kernel.from_grid(B, grid), partial(tabulated_transform_reference, B, grid),
              2e-13 * tabulated_transform_scale(B, grid))]
    for kernel, reference, tol in cases:
        value = psi_closed_form(kernel, t)
        np.testing.assert_allclose(value.flat[picked], reference(t.flat[picked]), rtol=0,
                                   atol=tol)
        for j in picked:
            alone = psi_closed_form(kernel, t.flat[j])
            assert np.float64(alone).tobytes() == value.flat[j].tobytes(), j
        if kernel.grid is None:
            # every entry of the spec's, whose reference is cheap
            np.testing.assert_allclose(value, reference(t), rtol=0, atol=tol)


@st.composite
def density_grids(draw):
    """A bandwidth and a random nonuniform grid that may start above 0 and end
    below the band edge or past it."""
    B = draw(st.sampled_from([0.5, 1.0, 2.0]))
    edge = 2.0 * np.pi * B
    start = draw(st.floats(-1.2, 0.9)) * edge
    stop = draw(st.floats(start / edge + 0.05, 2.0)) * edge
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = rng.uniform(start, stop, draw(st.integers(0, 40)))
    omegas = np.unique(np.concatenate([[start, stop], inner]))
    return B, DensityGrid(omegas, rng.uniform(0.0, 5.0, omegas.size))


def grid_example(B, start, stop, count, seed=0):
    rng = np.random.default_rng(seed)
    omegas = np.linspace(start, stop, count) * 2.0 * np.pi * B
    return B, DensityGrid(omegas, rng.uniform(0.1, 3.0, count))


tiny = [s * v for v in (0.0, 1e-12, 1e-8, 1e-4) for s in (1.0, -1.0)]
grid_times = arrays(float, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=8),
                    elements=st.one_of(st.sampled_from(tiny), st.floats(-1e3, 1e3)))


class TestGridKernel:
    def test_spec_and_grid_exclusive(self):
        grid = DensityGrid([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            Kernel(bandwidth_B=1.0, spec=random_weight_spec(3, bandwidth_B=1.0), grid=grid)
        with pytest.raises(ValueError):
            Kernel(bandwidth_B=1.0)

    def test_origin_is_trapezoid_sum(self):
        B, grid = grid_example(1.0, -0.3, 0.7, 9)
        edge = 2.0 * np.pi * B
        cuts = np.concatenate([[0.0], grid.omegas[grid.omegas > 0], [edge]])
        s = np.interp(cuts, grid.omegas, grid.values)
        trapezoid = np.sum(0.5 * (s[1:] + s[:-1]) * np.diff(cuts)) / np.pi
        k = Kernel.from_grid(B, grid)
        assert float(psi_closed_form(k, 0.0)) == pytest.approx(trapezoid, rel=1e-14)
        assert k.psi0 == float(psi_closed_form(k, 0.0))

    def test_flat_density_is_scaled_uniform(self):
        k = Kernel.from_grid(2.0, DensityGrid([-20.0, 20.0], [3.0, 3.0]))
        t = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(psi_closed_form(k, t),
                                   3.0 * psi_closed_form(Kernel.uniform(2.0), t),
                                   rtol=1e-13, atol=1e-14)

    @settings(max_examples=10, deadline=None)
    @given(density_grids(), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3))
    @example(grid_example(1.0, 0.2, 0.8, 6), [0.0, 3.3])
    @example(grid_example(0.5, -1.0, 1.5, 11), [-7.1, 12.0])
    def test_closed_form_against_quadrature_oracle(self, case, times):
        B, grid = case
        k = Kernel.from_grid(B, grid)
        tol = 1e-8 * max(1.0, tabulated_transform_scale(B, grid))
        for t in times:
            assert float(psi_closed_form(k, t)) == pytest.approx(psi_quadrature(k, t), abs=tol)


@settings(max_examples=40, deadline=None)
@given(density_grids(), grid_times)
@example(grid_example(1.0, 0.3, 0.6, 4), np.array(0.0))              # starts above 0
@example(grid_example(1.0, -0.5, 0.4, 7), np.array([1e-12, -1e-4]))  # ends below the edge
@example(grid_example(2.0, -1.0, 1.7, 30), np.zeros((0, 3)))        # runs past the edge
@example(grid_example(0.5, 0.0, 1.0, 3), np.array([[1e3, -1e3], [1e-8, 0.0]]))
def test_grid_closed_form_matches_gauss_legendre(case, t):
    B, grid = case
    value = np.asarray(psi_closed_form(Kernel.from_grid(B, grid), t))
    assert value.shape == t.shape
    scale = tabulated_transform_scale(B, grid)
    np.testing.assert_allclose(value, tabulated_transform_reference(B, grid, t),
                               rtol=0, atol=2e-13 * scale)
    np.testing.assert_array_equal(value, psi_closed_form(Kernel.from_grid(B, grid), -t))


def test_grid_closed_form_across_block_boundaries():
    rng = np.random.default_rng(5)
    B = 1.0
    omegas = np.sort(rng.uniform(-0.5, 2.0 * np.pi * B + 0.5, 1000))
    grid = DensityGrid(omegas, rng.uniform(0.2, 4.0, omegas.size))
    pieces = np.count_nonzero((omegas > 0) & (omegas < 2.0 * np.pi * B)) + 1
    step = _BLOCK // pieces
    t = rng.uniform(-30.0, 30.0, 3 * step + 5)
    value = psi_closed_form(Kernel.from_grid(B, grid), t)
    expected = tabulated_transform_reference(B, grid, t)
    tol = 2e-13 * tabulated_transform_scale(B, grid)
    for edge in (step, 2 * step, 3 * step):
        np.testing.assert_allclose(value[edge - 2:edge + 2], expected[edge - 2:edge + 2],
                                   rtol=0, atol=tol)
    np.testing.assert_allclose(value, expected, rtol=0, atol=tol)


# --- psi on two CPUs -------------------------------------------------------


def _split_cases():
    """A spec and a grid kernel, each with sizes of t either side of one
    block and of the block edges, and the threads each should start on two
    CPUs. Past one block the times are halved between the two CPUs."""
    _, grid = grid_example(1.0, -1.1, 1.1, 30, seed=4)
    pieces = np.count_nonzero((grid.omegas > 0) & (grid.omegas < 2.0 * np.pi)) + 1
    for kernel, step in ((Kernel.from_spec(random_weight_spec(7)), _BLOCK),
                         (Kernel.from_grid(1.0, grid), _BLOCK // pieces)):
        sizes = [step, step + 1, 2 * step - 1, 2 * step, 2 * step + 1, 3 * step + 7,
                 4 * step + 1]
        yield kernel, {size: int(size > step) for size in sizes}


@pytest.mark.parametrize("kernel, sizes", list(_split_cases()))
def test_split_psi_is_bitwise_the_inline_one(kernel, sizes):
    rng = np.random.default_rng(11)
    for size, threads in sizes.items():
        t = rng.uniform(-40.0, 40.0, size)
        with split_cpus(1, 1) as started:
            inline = psi_closed_form(kernel, t)
        assert started == []
        with split_cpus(2, 1) as started:
            split = psi_closed_form(kernel, t)
        assert len(started) == threads, size
        assert split.tobytes() == inline.tobytes(), size
        # no block makes a BLAS call: a multi-threaded BLAS splits them too
        with split_cpus(2, 2) as started:
            other = psi_closed_form(kernel, t)
        assert len(started) == threads
        assert other.tobytes() == inline.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kernel", [Kernel.uniform(1.0), Kernel.from_spec(random_weight_spec(3)),
                                    Kernel.from_grid(*grid_example(1.0, -1.1, 1.1, 12))])
@pytest.mark.parametrize("t", [np.nan, -np.inf, [0.5, np.inf], [[0.0, 0.5], [np.nan, 1.0]],
                               np.append(np.linspace(-5.0, 5.0, 3 * _BLOCK), np.nan),
                               [0.5, 1e308], np.append(np.linspace(-5.0, 5.0, 3 * _BLOCK),
                                                       -1e308)])
def test_non_finite_times_rejected(kernel, t):
    # psi once returned NaN here, with a RuntimeWarning from sin; at 1e308 the
    # finite time overflowed in 2 B t
    with split_cpus(2, 1), pytest.raises(ValueError, match="evaluation times must be finite"):
        psi_closed_form(kernel, t)

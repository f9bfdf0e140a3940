import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoq import (
    expected_utility,
    generate_weights_uniform,
    hypervolume,
    hypervolume_monte_carlo,
    igd,
    sparsity,
)
from paretoq.metrics import SAMPLE_BLOCK, _draw_limits

from oracles import (brute_force_non_dominated, dominates, hypervolume_monte_carlo_chunked,
                     hypervolume_monte_carlo_scaled)

DST_FRONT = [(1, -1), (2, -2), (3, -3), (5, -4), (10, -5)]


class TestHypervolume:
    def test_unit_box(self):
        assert hypervolume([(1, 1)], (0, 0)) == pytest.approx(1.0)

    def test_two_point_inclusion_exclusion(self):
        assert hypervolume([(2, 1), (1, 2)], (0, 0)) == pytest.approx(3.0)

    def test_corridor_front(self):
        assert hypervolume(DST_FRONT, (0, -50)) == pytest.approx(461.0)

    def test_invalid_reference_point(self):
        with pytest.raises(ValueError, match="invalid reference point"):
            hypervolume([(1, 1), (3, 0)], (0, 0))

    def test_dominated_inputs_warn_but_compute(self):
        with pytest.warns(UserWarning, match="dominated"):
            value = hypervolume([(2, 2), (1, 1)], (0, 0))
        assert value == pytest.approx(4.0)

    @pytest.mark.filterwarnings("ignore:front contains")
    def test_exact_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pts = rng.uniform(-5, 5, size=(int(rng.integers(1, 8)), 2))
            z = pts.min(axis=0) - rng.uniform(0.5, 3.0, size=2)
            exact = hypervolume(pts, z)
            est, se = hypervolume_monte_carlo(pts, z, samples=200_000,
                                              rng=np.random.default_rng(99))
            assert abs(exact - est) <= 3.0 * se + 1e-12

    def test_monte_carlo_three_objectives(self):
        # two overlapping boxes: 2*3*1 + 1*1*2 - overlap 1*1*1 = 8
        front = [(2, 3, 1), (1, 1, 3)]
        est, se = hypervolume_monte_carlo(front, (0, 0, 0), samples=400_000,
                                          rng=np.random.default_rng(7))
        assert abs(est - 8.0) <= 3.0 * se

    def test_single_point_any_dimension_is_exact(self):
        est, se = hypervolume_monte_carlo([(1, 1, 1)], (0, 0, 0), samples=1000)
        assert est == pytest.approx(1.0)
        assert se == 0.0

    def test_adding_a_non_dominated_point_grows_volume(self):
        base = hypervolume([(2, 1)], (0, 0))
        grown = hypervolume([(2, 1), (1, 2)], (0, 0))
        assert grown > base

    def test_adding_a_dominated_point_changes_nothing(self):
        base = hypervolume([(2, 2)], (0, 0))
        with pytest.warns(UserWarning):
            same = hypervolume([(2, 2), (1, 1)], (0, 0))
        assert same == pytest.approx(base)

    def test_translation_covariance(self):
        rng = np.random.default_rng(22)
        pts = np.array([(0.0, 5.0), (1.5, 3.0), (2.5, 2.0), (4.0, 0.5)])
        shift = rng.uniform(-3, 3, size=2)
        base = hypervolume(pts, (-1, -1))
        moved = hypervolume(pts + shift, np.array([-1, -1]) + shift)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_dominated_front_warns_once_in_three_objectives(self):
        front = [(3, 3, 3), (1, 1, 1), (2, 4, 1)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = hypervolume(front, (0, 0, 0), samples=10_000,
                                rng=np.random.default_rng(3))
        assert [w.category for w in caught] == [UserWarning]
        expected, _ = hypervolume_monte_carlo_chunked(
            [(3, 3, 3), (2, 4, 1)], (0, 0, 0), 10_000, np.random.default_rng(3))
        assert value == expected


class TestMonteCarloBlocks:
    """Block-wise draws repeat the whole-chunk estimator bit for bit."""

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("samples", [1, 1000, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 100_007])
    def test_matches_chunked_draws(self, samples, m):
        rng = np.random.default_rng(samples * 10 + m)
        for size in (1, 2, 5, 10):
            pts = rng.uniform(-3, 3, size=(size, m))
            pts = pts[brute_force_non_dominated(pts)]
            z = pts.min(axis=0) - rng.uniform(0.1, 2.0, size=m)
            seed = int(rng.integers(2**32))
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = hypervolume_monte_carlo(pts, z, samples=samples, rng=got_rng)
            ref = hypervolume_monte_carlo_chunked(pts, z, samples, ref_rng)
            assert np.array(got).tobytes() == np.array(ref).tobytes()
            assert got_rng.random() == ref_rng.random()


@settings(max_examples=150, deadline=None)
@given(m=st.sampled_from([3, 4]), size=st.integers(1, 6), integral=st.booleans(),
       scale=st.sampled_from([1e-300, 1e-9, 1.0, 1e6, 1e300]),
       offset=st.sampled_from([0.0, -7.5, 1e15]), samples=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1))
def test_draw_limits_give_the_hits_of_scaled_draws(m, size, integral, scale, offset, samples,
                                                   seed):
    """Raw draws against their limits give the estimate, standard error and
    generator state of the estimator that scaled each draw first. Spans
    run from 1e-300 to 1e300; at offset 1e15 small spans are a few ulps."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 10.0, size=(size, m))
    pts = (np.round(pts) if integral else pts) * scale + offset
    pts = pts[brute_force_non_dominated(pts)]
    low = pts.min(axis=0)
    z = np.minimum(low - rng.uniform(0.1, 2.0, size=m) * scale, np.nextafter(low, -np.inf))
    got_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with np.errstate(over="ignore"):   # four spans near 1e300 overflow the volume
        got = hypervolume_monte_carlo(pts, z, samples=samples, rng=got_rng)
        ref = hypervolume_monte_carlo_scaled(pts, z, samples, ref_rng)
    assert np.array(got).tobytes() == np.array(ref).tobytes()
    assert got_rng.random() == ref_rng.random()


def test_an_overflowing_span_hits_nothing_as_scaled_draws_did():
    pts, z = np.array([(1e308, 1e308, 1e308)]), np.full(3, -1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        got = hypervolume_monte_carlo(pts, z, samples=100, rng=np.random.default_rng(2))
        ref = hypervolume_monte_carlo_scaled(pts, z, 100, np.random.default_rng(2))
    assert np.array(got).tobytes() == np.array(ref).tobytes()


FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(z=FINITE, p=FINITE, upper=FINITE)
def test_draw_limit_is_the_last_draw_at_or_below_the_point(z, p, upper):
    """``z + t * span <= p`` holds at the limit ``t`` and fails one double
    above it, unless ``t`` is the largest double below 1."""
    z, p, upper = sorted([z, p, upper])
    if not z < p:
        return
    t = _draw_limits(np.array([[p]]), np.array([z]), np.array([upper - z])).item()
    span = upper - z
    assert 0.0 <= t < 1.0
    assert z + t * span <= p
    above = np.nextafter(t, 1.0)
    assert above == 1.0 or not z + above * span <= p


class TestIgd:
    def test_identical_fronts(self):
        assert igd([(0, 1), (1, 0)], [(0, 1), (1, 0)]) == 0.0

    def test_single_euclidean_distance(self):
        assert igd([(3, 4)], [(0, 0)]) == pytest.approx(5.0)

    def test_root_outside_the_sum(self):
        assert igd([(0, 0)], [(0, 0), (1, 1)]) == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_zero_iff_reference_subset(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            front = rng.integers(0, 3, size=(4, 2)).astype(float)
            front = front[[not any(dominates(q, p) for q in front) for p in front]]
            if front.size == 0:
                continue
            ref = front[:2]
            assert igd(front, ref) == 0.0
            off = ref + np.array([0.25, 0.0])
            assert igd(front, off) > 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            igd([(1, 1)], [])


class TestSparsity:
    def test_two_points(self):
        assert sparsity([(0, 1), (1, 0)]) == pytest.approx(2.0)

    def test_coincident_points(self):
        assert sparsity([(0, 0), (0, 0)]) == 0.0

    def test_three_point_staircase(self):
        assert sparsity([(0, 2), (1, 1), (2, 0)]) == pytest.approx(2.0)

    def test_singleton_convention(self):
        assert sparsity([(5, 5)]) == 0.0

    def test_permutation_and_translation_invariance(self):
        rng = np.random.default_rng(24)
        pts = np.array([(0.0, 5.0), (1.0, 3.0), (2.5, 2.0), (4.0, 0.0)])
        base = sparsity(pts)
        perm = pts[rng.permutation(len(pts))]
        assert sparsity(perm) == pytest.approx(base)
        assert sparsity(pts + np.array([3.0, -7.0])) == pytest.approx(base)


class TestExpectedUtility:
    def test_three_uniform_weights(self):
        value = expected_utility([(1, -1), (10, -5)], generate_weights_uniform(2, 3))
        assert value == pytest.approx((-1 + 2.5 + 10) / 3, abs=1e-9)

    def test_constant_front(self):
        ws = generate_weights_uniform(2, 7)
        assert expected_utility([(3.5, 3.5)], ws) == pytest.approx(3.5)

    def test_monotone_under_supersets(self):
        ws = generate_weights_uniform(2, 9)
        small = expected_utility([(1, -1)], ws)
        large = expected_utility([(1, -1), (10, -5)], ws)
        assert large >= small

    def test_invariant_to_never_best_points(self):
        ws = generate_weights_uniform(2, 11)
        front = [(0.0, 4.0), (4.0, 0.0)]
        with_inner = front + [(1.0, 1.0)]  # never the argmax for any weight
        padded = expected_utility(with_inner, ws)
        assert padded == pytest.approx(expected_utility(front, ws))

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            expected_utility([(1, 1)], [])

import numpy as np
import pytest

from paretoq import (
    ReferencePoint,
    Scalarization,
    adapt_weights_psa,
    build_neighborhood,
    dominates,
    generate_weights_uniform,
    scalarize_tch,
    scalarize_ws,
    select_subproblem,
)
from paretoq.decomposition import lattice_divisions, nearest_objective_neighbor

DST_FRONT = [(1.0, -1.0), (2.0, -2.0), (3.0, -3.0), (5.0, -4.0), (10.0, -5.0)]


class TestWeightedSum:
    def test_direct_substitution(self):
        assert scalarize_ws((2, 4), (0.5, 0.5)) == pytest.approx(3.0)

    def test_basis_weight_selects_one_objective(self):
        assert scalarize_ws((7, -3), (1, 0)) == pytest.approx(7.0)

    def test_symmetry_under_even_weights(self):
        lam = (0.5, 0.5)
        assert scalarize_ws((1, 0), lam) == scalarize_ws((0, 1), lam) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            scalarize_ws((1, 2, 3), (0.5, 0.5))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            f, h = rng.normal(size=2), rng.normal(size=2)
            a, b = rng.normal(size=2)
            lam = rng.dirichlet(np.ones(2))
            left = scalarize_ws(a * f + b * h, lam)
            right = a * scalarize_ws(f, lam) + b * scalarize_ws(h, lam)
            assert left == pytest.approx(right, abs=1e-12)

    def test_argmax_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f, h = rng.normal(size=3), rng.normal(size=3)
            lam = rng.dirichlet(np.ones(3))
            scale = rng.uniform(0.1, 10.0)
            base = scalarize_ws(f, lam) > scalarize_ws(h, lam)
            scaled = scale * scalarize_ws(f, lam) > scale * scalarize_ws(h, lam)
            assert base == scaled


class TestTchebycheff:
    Z = (10.5, -0.5)

    def test_direct_substitution(self):
        assert scalarize_tch((2, -2), (0.5, 0.5), self.Z) == pytest.approx(4.25)

    def test_zero_at_the_reference_point(self):
        assert scalarize_tch(self.Z, (0.3, 0.7), self.Z) == 0.0

    def test_concave_point_preferred_between_two(self):
        heavy_first = (0.9, 0.1)
        v1 = scalarize_tch((1, -1), heavy_first, self.Z)
        v2 = scalarize_tch((2, -2), heavy_first, self.Z)
        assert v1 == pytest.approx(8.55)
        assert v2 == pytest.approx(7.65)
        assert v2 < v1

    def test_concave_point_wins_the_whole_front(self):
        # argmin over all five front points lands on the concave (2, -2)
        lam = (0.2, 0.8)
        best = min(DST_FRONT, key=lambda f: scalarize_tch(f, lam, self.Z))
        assert best == (2.0, -2.0)

    def test_non_negative_and_zero_only_at_reference(self):
        rng = np.random.default_rng(3)
        z = np.array([5.0, 5.0])
        for _ in range(300):
            f = rng.uniform(-5, 5, size=2)
            lam = rng.dirichlet(np.ones(2))
            val = scalarize_tch(f, lam, z)
            assert val >= 0.0
            if val == 0.0:
                assert np.all(lam * np.abs(f - z) == 0.0)

    def test_minimizer_is_never_dominated_within_a_front(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            raw = rng.uniform(0, 10, size=(12, 2))
            front = [p for p in raw if not any(dominates(q, p) for q in raw)]
            z = np.max(raw, axis=0) + 0.5
            lam = rng.dirichlet(np.ones(2)) + 0.01
            lam = lam / lam.sum()
            best = min(front, key=lambda f: scalarize_tch(f, lam, z))
            assert not any(dominates(p, best) for p in front)

    def test_scalarization_adapter_negates_tchebycheff(self):
        z = ReferencePoint(values=self.Z, mode="fixed")
        g = Scalarization("tchebycheff", z)
        assert g.score((2, -2), (0.5, 0.5)) == pytest.approx(-4.25)
        assert Scalarization("weighted-sum").score((2, 4), (0.5, 0.5)) == pytest.approx(3.0)


class TestWeightGeneration:
    def test_three_weights_two_objectives(self):
        out = [tuple(w) for w in generate_weights_uniform(2, 3)]
        assert out == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_two_weights_are_the_extremes(self):
        out = [tuple(w) for w in generate_weights_uniform(2, 2)]
        assert out == [(0.0, 1.0), (1.0, 0.0)]

    def test_three_objective_lattice(self):
        out = {tuple(w) for w in generate_weights_uniform(3, 6)}
        assert out == {(1, 0, 0), (0, 1, 0), (0, 0, 1),
                       (0.5, 0.5, 0), (0.5, 0, 0.5), (0, 0.5, 0.5)}

    def test_unsupported_lattice_count(self):
        with pytest.raises(ValueError, match="unsupported weight count"):
            generate_weights_uniform(3, 7)

    def test_lattice_divisions_size_the_weight_sets(self):
        for m, n in [(2, 2), (2, 11), (3, 6), (3, 10), (3, 91), (4, 20)]:
            h = lattice_divisions(m, n)
            assert len(generate_weights_uniform(m, n)) == n
            assert min(w for ws in generate_weights_uniform(m, n) for w in ws if w) == 1 / h
        assert lattice_divisions(2, 10**6) == 10**6 - 1   # no lattice is built
        for m, n in [(1, 2), (2, 1), (2, 0), (3, 1), (3, 7), (3, 101)]:
            assert lattice_divisions(m, n) is None
            with pytest.raises(ValueError, match="unsupported weight count"):
                generate_weights_uniform(m, n)

    def test_all_weights_on_simplex_and_distinct(self):
        for m, n in [(2, 11), (3, 10), (4, 20)]:
            ws = generate_weights_uniform(m, n)
            assert len({tuple(w) for w in ws}) == n
            for w in ws:
                assert np.all(w >= 0)
                assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_two_objective_sets_are_swap_symmetric(self):
        for n in (2, 5, 11):
            ws = {tuple(w) for w in generate_weights_uniform(2, n)}
            assert {tuple(reversed(w)) for w in ws} == ws


class TestPsaAdaptation:
    def test_direct_substitution(self):
        out = adapt_weights_psa((0.5, 0.5), (2, -2), (1, -1), 1.05)
        pre = np.array([0.5 * 1.05, 0.5 / 1.05])
        np.testing.assert_allclose(out, pre / pre.sum())
        np.testing.assert_allclose(out, [0.52437, 0.47563], atol=1e-4)

    def test_equal_evaluations_leave_weights_unchanged(self):
        out = adapt_weights_psa((0.3, 0.7), (1, 1), (1, 1), 1.05)
        np.testing.assert_allclose(out, [0.3, 0.7], atol=1e-12)

    def test_zero_component_stays_zero(self):
        out = adapt_weights_psa((1.0, 0.0), (0, 5), (1, 4), 1.05)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_delta_must_exceed_one(self):
        with pytest.raises(ValueError):
            adapt_weights_psa((0.5, 0.5), (1, 1), (0, 0), 1.0)

    def test_simplex_preserved_under_random_adaptation(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            m = int(rng.integers(2, 5))
            lam = rng.dirichlet(np.ones(m))
            lam[rng.random(m) < 0.2] = 0.0
            if lam.sum() == 0:
                continue
            lam = lam / lam.sum()
            out = adapt_weights_psa(lam, rng.normal(size=m), rng.normal(size=m),
                                    1.0 + rng.uniform(0.01, 0.5))
            assert np.all(out >= 0)
            assert out.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(out[lam == 0] == 0)


class TestReferencePoint:
    def test_first_observation_sets_max_plus_margin(self):
        z = ReferencePoint(m=2, tau=0.5)
        assert not z.initialized
        z.update([(1, -1), (10, -5)])
        np.testing.assert_allclose(z.values, [10.5, -0.5])

    def test_no_observations_change_nothing(self):
        z = ReferencePoint(m=2, tau=0.5)
        z.update([(1, -1), (10, -5)])
        before = z.values.copy()
        z.update([])
        np.testing.assert_array_equal(z.values, before)

    def test_component_wise_monotone(self):
        z = ReferencePoint(m=2, tau=0.5)
        z.update([(1, -1), (10, -5)])
        z.update([(11, -6)])
        np.testing.assert_allclose(z.values, [11.5, -0.5])

    def test_fixed_mode_rejects_updates(self):
        z = ReferencePoint(values=(1.0, 1.0), mode="fixed")
        with pytest.raises(ValueError):
            z.update([(5, 5)])


class TestNeighborhood:
    WS3 = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_nearest_neighbor(self):
        hood = build_neighborhood(self.WS3, 1)
        assert hood[0] == [1]
        assert hood[2] == [1]

    def test_zero_k_disables_cooperation(self):
        assert build_neighborhood(self.WS3, 0) == [[], [], []]

    def test_k_clamped_to_population(self):
        hood = build_neighborhood(self.WS3, 5)
        assert all(len(lst) == 2 for lst in hood)

    def test_self_excluded_and_ties_by_index(self):
        hood = build_neighborhood([(0.5, 0.5), (0.0, 1.0), (1.0, 0.0)], 2)
        assert hood[0] == [1, 2]  # equidistant, index order
        assert all(i not in hood[i] for i in range(3))


class TestSelection:
    def test_rotation(self):
        assert select_subproblem(0, 3) == 0
        assert select_subproblem(4, 3) == 1
        assert select_subproblem(3, 1) == 0

    def test_requires_positive_population(self):
        with pytest.raises(ValueError):
            select_subproblem(0, 0)


class TestNearestObjectiveNeighbor:
    def test_excludes_exact_copies(self):
        evals = [(1.0, -1.0), (2.0, -2.0), (10.0, -5.0)]
        assert nearest_objective_neighbor((1.0, -1.0), evals) == 1

    def test_none_when_everything_matches(self):
        assert nearest_objective_neighbor((1.0, 2.0), [(1.0, 2.0)]) is None

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoq import ParetoArchive, crowding_distance, prune

from oracles import (brute_force_non_dominated, crowding_distance_loop, dominates,
                     prune_by_insertion)


class TestDominates:
    def test_incomparable_pair(self):
        assert not dominates((1, 0), (0, 1))
        assert not dominates((0, 1), (1, 0))

    def test_weak_improvement_with_one_strict(self):
        assert dominates((1, 1), (1, 0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 0), (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 0, 0), (1, 0))

    def test_strict_partial_order(self):
        rng = np.random.default_rng(11)
        pts = [rng.integers(0, 4, size=3).astype(float) for _ in range(60)]
        for a in pts:
            assert not dominates(a, a)
        for _ in range(2000):
            a, b, c = (pts[i] for i in rng.integers(0, len(pts), 3))
            if dominates(a, b):
                assert not dominates(b, a)
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestPrune:
    def test_drops_the_dominated_corner(self):
        kept = prune([((1, 0), "a"), ((0, 1), "b"), ((0.5, 0.5), "c"), ((0, 0), "d")])
        assert [tuple(v) for v, _ in kept] == [(1, 0), (0, 1), (0.5, 0.5)]

    def test_singleton(self):
        kept = prune([((1, 1), "x")])
        assert [tuple(v) for v, _ in kept] == [(1, 1)]

    def test_duplicates_keep_the_earliest_payload(self):
        kept = prune([((1, 0), "first"), ((1, 0), "second")])
        assert len(kept) == 1
        assert kept[0][1] == "first"

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-10, 10, size=(50, 2))
        once = prune((p, None) for p in pts)
        twice = prune(once)
        assert [tuple(v) for v, _ in once] == [tuple(v) for v, _ in twice]

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(2, 5))
            pts = rng.uniform(-10, 10, size=(n, m))
            if rng.random() < 0.5:  # force duplicates and dominated rows
                pts = np.round(pts)
            kept = prune((p, i) for i, p in enumerate(pts))
            expected = brute_force_non_dominated(pts)
            assert [payload for _, payload in kept] == expected

    def test_late_dominator_removes_earlier_entries(self):
        kept = prune([((1, 1), 0), ((3, 0), 1), ((2, 2), 2)])
        assert [tuple(v) for v, _ in kept] == [(3, 0), (2, 2)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), n=st.integers(0, 60), real=st.booleans())
    def test_one_sort_and_sweep_keeps_what_insertion_keeps(self, data, m, n, real):
        """The same survivors, payloads and evaluation bytes, in the same order,
        as inserting the pairs one by one. Few distinct values (signed zeros
        among them) give duplicates and ties; reals give mostly distinct points."""
        value = (st.floats(-1e3, 1e3, allow_subnormal=False) if real
                 else st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]))
        pts = data.draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
        pairs = [(p if i % 2 else np.array(p), object()) for i, p in enumerate(pts)]
        kept, expected = prune(iter(pairs)), prune_by_insertion(pairs)
        assert [payload for _, payload in kept] == [payload for _, payload in expected]
        assert [v.tobytes() for v, _ in kept] == [v.tobytes() for v, _ in expected]

    def test_thousands_of_points_on_few_fronts(self):
        """Many ties, duplicates and dominated points; few survivors."""
        rng = np.random.default_rng(5)
        pts = np.round(rng.normal(size=(3000, 3)), 1)
        pairs = [(p, i) for i, p in enumerate(pts)]
        kept, expected = prune(pairs), prune_by_insertion(pairs)
        assert [i for _, i in kept] == [i for _, i in expected]

    def test_rejects_vectors_of_different_lengths(self):
        with pytest.raises(ValueError, match="mismatched lengths"):
            prune([((1.0, 2.0), "a"), ((1.0,), "b")])


class TestCrowdingDistance:
    def test_one_or_two_points_are_boundaries(self):
        assert np.all(np.isinf(crowding_distance([(1, 2)])))
        assert np.all(np.isinf(crowding_distance([(1, 2), (2, 1)])))

    def test_three_point_front(self):
        d = crowding_distance([(0, 2), (1, 1), (2, 0)])
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_degenerate_ranges_contribute_zero(self):
        d = crowding_distance([(0, 0), (0, 0), (0, 0)])
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == 0.0

    def test_matches_the_position_loop_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for trial in range(300):
            n, m = int(rng.integers(1, 25)), int(rng.integers(1, 5))
            if trial % 3 == 0:    # integer fronts: ties within a column
                pts = rng.integers(0, 4, size=(n, m))
            else:
                pts = rng.uniform(-5, 5, size=(n, m))
            if trial % 5 == 0:    # a column of span zero
                pts[:, int(rng.integers(m))] = 2
            got = crowding_distance(pts)
            assert got.tobytes() == crowding_distance_loop(pts).tobytes()


class TestParetoArchive:
    def test_accepts_incomparable(self):
        archive = ParetoArchive()
        assert archive.insert((1, -1), b"")
        assert archive.insert((10, -5), b"")
        assert sorted(tuple(e.eval) for e in archive) == [(1, -1), (10, -5)]

    def test_rejects_dominated(self):
        archive = ParetoArchive()
        archive.insert((2, 2), b"")
        assert not archive.insert((1, 1), b"")
        assert len(archive) == 1

    def test_dominating_insert_evicts(self):
        archive = ParetoArchive()
        archive.insert((1, 1), b"old")
        assert archive.insert((2, 2), b"new")
        assert [tuple(e.eval) for e in archive] == [(2, 2)]

    def test_duplicate_evals_rejected(self):
        archive = ParetoArchive()
        archive.insert((1, 2), b"keep")
        assert not archive.insert((1, 2), b"drop")
        assert archive.entries[0].payload == b"keep"

    def test_mutually_non_dominated_after_random_inserts(self):
        rng = np.random.default_rng(14)
        archive = ParetoArchive()
        for _ in range(1500):
            archive.insert(rng.uniform(-10, 10, size=2), None)
        evals = archive.evals()
        for i in range(len(evals)):
            for j in range(len(evals)):
                if i != j:
                    assert not dominates(evals[i], evals[j])

    def test_hypervolume_never_decreases_under_inserts(self):
        from paretoq import hypervolume

        rng = np.random.default_rng(15)
        archive = ParetoArchive()
        z_ref = (-11.0, -11.0)
        last = 0.0
        for _ in range(300):
            archive.insert(rng.uniform(-10, 10, size=2), None)
            hv = hypervolume(archive.evals(), z_ref)
            assert hv >= last - 1e-12
            last = hv

    def test_would_accept_matches_insert(self):
        rng = np.random.default_rng(16)
        archive = ParetoArchive()
        for _ in range(300):
            vec = rng.integers(0, 5, size=2).astype(float)
            expected = archive.would_accept(vec)
            assert archive.insert(vec, None) == expected

    @pytest.mark.parametrize("m", [2, 3])
    def test_would_accept_matches_the_pairwise_oracle(self, m):
        # a candidate is accepted iff the oracle keeps it after the entries
        rng = np.random.default_rng(17 + m)
        archive = ParetoArchive()
        for _ in range(400):
            vec = rng.integers(0, 4, size=m).astype(float)
            entries = [e.eval for e in archive]
            expected = len(entries) in brute_force_non_dominated(entries + [vec])
            assert archive.would_accept(vec) == expected
            archive.insert(vec, None)

    def test_would_accept_rejects_a_vector_of_the_wrong_length(self):
        archive = ParetoArchive()
        archive.insert((1.0, 2.0), None)
        for bad in [(1.0,), (1.0, 2.0, 3.0)]:
            with pytest.raises(ValueError, match="mismatched lengths"):
                archive.would_accept(bad)

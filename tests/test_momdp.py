import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoq import (
    TabularPolicy,
    dst_corridor,
    enumerate_deterministic_policies,
    evaluate_policy,
    make_env,
    rollout,
    tiny_tree,
)
from paretoq.momdp import POLICY_BLOCK, Momdp

from oracles import deterministic_policies, dominates, exact_policy_value, mixture_value

ADVANCE, DESCEND = 0, 1


def fixed_policy(env, actions_by_state):
    prefs = {}
    for state, action in actions_by_state.items():
        row = np.zeros(env.n_actions)
        row[action] = 1.0
        prefs[state] = row
    return TabularPolicy(preferences=prefs)


def descend_at(env, column):
    return fixed_policy(env, {s: DESCEND if s == column else ADVANCE
                              for s in range(env.n_states)})


class TestRollout:
    def test_descend_at_first_column(self):
        env = dst_corridor()
        trace, ret = rollout(env, descend_at(env, 0), 0)
        assert len(trace) == 1
        np.testing.assert_array_equal(ret, [1.0, -1.0])

    def test_advance_to_last_column(self):
        env = dst_corridor()
        trace, ret = rollout(env, descend_at(env, 4), 0)
        assert len(trace) == 5
        np.testing.assert_array_equal(ret, [10.0, -5.0])

    def test_tree_left_left(self):
        env = tiny_tree()
        _, ret = rollout(env, fixed_policy(env, {0: 0, 1: 0, 2: 0}), 0)
        np.testing.assert_array_equal(ret, [4.0, 0.0])

    def test_return_is_sum_of_trace_rewards(self):
        env = dst_corridor()
        for column in range(5):
            trace, ret = rollout(env, descend_at(env, column), 0)
            np.testing.assert_array_equal(ret, sum(e.reward for e in trace))
            assert len(trace) <= env.max_episode_steps

    def test_accrued_reward_bookkeeping(self):
        env = dst_corridor()
        trace, _ = rollout(env, descend_at(env, 3), 0)
        np.testing.assert_array_equal(trace[0].accrued, [0.0, 0.0])
        for prev, nxt in zip(trace, trace[1:]):
            np.testing.assert_array_equal(nxt.accrued, prev.accrued + prev.reward)

    def test_policy_gap_is_an_error(self):
        env = dst_corridor()
        partial = TabularPolicy(preferences={0: np.array([1.0, 0.0])})
        with pytest.raises(ValueError, match="unreachable-state policy gap"):
            rollout(env, partial, 0)


class TestEvaluatePolicy:
    def test_deterministic_average_is_exact(self):
        env = dst_corridor()
        val = evaluate_policy(env, descend_at(env, 0), episodes=5, gamma=1.0, rng_seed=3)
        np.testing.assert_array_equal(val, [1.0, -1.0])

    def test_gamma_zero_annihilates_later_rewards(self):
        env = tiny_tree()
        val = evaluate_policy(env, fixed_policy(env, {0: 1, 1: 0, 2: 1}),
                              episodes=2, gamma=0.0, rng_seed=0)
        np.testing.assert_array_equal(val, [0.0, 0.0])

    def test_second_column_treasure(self):
        env = dst_corridor()
        val = evaluate_policy(env, descend_at(env, 1), episodes=3, gamma=1.0, rng_seed=0)
        np.testing.assert_array_equal(val, [2.0, -2.0])

    def test_seed_independent_when_deterministic(self):
        env = dst_corridor()
        vals = [evaluate_policy(env, descend_at(env, 2), 4, 1.0, seed) for seed in range(5)]
        for v in vals[1:]:
            np.testing.assert_array_equal(v, vals[0])

    def test_requires_at_least_one_episode(self):
        env = tiny_tree()
        with pytest.raises(ValueError):
            evaluate_policy(env, fixed_policy(env, {0: 0, 1: 0, 2: 0}), 0, 1.0, 0)

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    def test_matches_dynamic_programming_on_both_envs(self, gamma):
        for env in (dst_corridor(), tiny_tree()):
            for policy, exact in deterministic_policies(env, gamma):
                sampled = evaluate_policy(env, policy, episodes=1, gamma=gamma, rng_seed=7)
                np.testing.assert_allclose(sampled, exact, atol=1e-12)


class TestEnumeration:
    def test_corridor_value_set(self):
        values = {tuple(v) for _, v in enumerate_deterministic_policies(dst_corridor(), 1.0)}
        assert values == {(1.0, -1.0), (2.0, -2.0), (3.0, -3.0), (5.0, -4.0), (10.0, -5.0)}

    def test_tree_has_four_distinct_returns(self):
        values = {tuple(v) for _, v in enumerate_deterministic_policies(tiny_tree(), 1.0)}
        assert values == {(4.0, 0.0), (3.0, 1.0), (1.0, 3.0), (0.0, 4.0)}

    def test_gamma_zero_with_zero_first_rewards(self):
        values = {tuple(v) for _, v in enumerate_deterministic_policies(tiny_tree(), 0.0)}
        assert values == {(0.0, 0.0)}

    def test_enumeration_bound_guard(self):
        n_states = 21  # 2^21 deterministic policies is past the guard
        transitions = [[[(1.0, s, np.zeros(1), True)] for _ in range(2)]
                       for s in range(n_states)]
        mu0 = np.zeros(n_states)
        mu0[0] = 1.0
        env = Momdp(n_states, 2, 1, transitions, mu0, max_episode_steps=2)
        with pytest.raises(ValueError, match="oracle too large"):
            enumerate_deterministic_policies(env, 1.0)

    def test_corridor_non_dominated_subset_is_the_whole_front(self):
        values = [v for _, v in enumerate_deterministic_policies(dst_corridor(), 1.0)]
        front = {tuple(v) for v in values
                 if not any(dominates(w, v) for w in values)}
        assert front == {(1.0, -1.0), (2.0, -2.0), (3.0, -3.0), (5.0, -4.0), (10.0, -5.0)}

    def test_interior_points_sit_below_the_extreme_segment(self):
        # chord from (1,-1) to (10,-5); strict concavity of the three others
        lo, hi = np.array([1.0, -1.0]), np.array([10.0, -5.0])
        slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
        for x, y in [(2.0, -2.0), (3.0, -3.0), (5.0, -4.0)]:
            chord_y = lo[1] + slope * (x - lo[0])
            assert y < chord_y


@st.composite
def random_momdps(draw):
    """Up to 4 states, 3 actions, 3 objectives and 3 outcomes per pair."""
    n_states = draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    reward = st.lists(st.floats(-10, 10, allow_subnormal=False), min_size=m, max_size=m)
    state = st.integers(0, n_states - 1)

    def distribution(size):
        weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
        return np.array(weights, dtype=float) / sum(weights)

    transitions = []
    for _ in range(n_states):
        row = []
        for _ in range(n_actions):
            probs = distribution(draw(st.integers(1, 3)))
            row.append([(p, draw(state), draw(reward), draw(st.booleans())) for p in probs])
        transitions.append(row)
    return Momdp(n_states, n_actions, m, transitions, distribution(n_states),
                 max_episode_steps=draw(st.integers(1, 6)))


class TestEnumerationAgainstPerPolicyDp:
    """The batched oracle repeats per-policy DP byte for byte, in product order."""

    @staticmethod
    def assert_matches_oracle(env, gamma):
        pairs = enumerate_deterministic_policies(env, gamma)
        assignments = list(itertools.product(range(env.n_actions), repeat=env.n_states))
        assert [tuple(row.tolist()) for row, _ in pairs] == assignments
        for (_, value), assignment in zip(pairs, assignments):
            assert value.shape == (env.n_objectives,)
            assert value.tobytes() == exact_policy_value(env, assignment, gamma).tobytes()
        for (policy, value), (_, expected), assignment in zip(
                deterministic_policies(env, gamma), pairs, assignments):
            assert [policy.action(s) for s in range(env.n_states)] == list(assignment)
            assert sorted(policy.preferences) == list(range(env.n_states))
            for s, a in enumerate(assignment):
                expected_row = np.zeros(env.n_actions)
                expected_row[a] = 1.0
                assert policy.preferences[s].tobytes() == expected_row.tobytes()
            assert value.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(env=random_momdps(), gamma=st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    def test_random_momdps(self, env, gamma):
        self.assert_matches_oracle(env, gamma)

    def test_more_policies_than_a_block(self):
        # 3^8 = 6561 policies: one full block and a partial one
        rng = np.random.default_rng(5)
        n_states = 8
        transitions = [
            [[(0.3, int(rng.integers(n_states)), rng.normal(size=2), False),
              (0.7, int(rng.integers(n_states)), rng.normal(size=2), bool(rng.random() < 0.3))]
             for _ in range(3)]
            for _ in range(n_states)]
        mu0 = np.full(n_states, 1.0 / n_states)
        env = Momdp(n_states, 3, 2, transitions, mu0, max_episode_steps=3)
        assert POLICY_BLOCK < 3**n_states < 2 * POLICY_BLOCK
        self.assert_matches_oracle(env, 0.9)

    def test_policies_do_not_share_rows(self):
        pairs = deterministic_policies(tiny_tree(), 1.0)
        pairs[0][0].preferences[0][:] = 7.0
        assert pairs[1][0].preferences[0].tolist() == [1.0, 0.0]
        assert pairs[0][0].preferences[1].tolist() == [1.0, 0.0]


class TestMixtureValue:
    def test_even_mixture(self):
        np.testing.assert_allclose(
            mixture_value([(1, -1), (10, -5)], [0.5, 0.5]), [5.5, -3.0])

    def test_identity(self):
        np.testing.assert_array_equal(mixture_value([(1, -1)], [1.0]), [1.0, -1.0])

    def test_mixture_dominates_a_concave_point(self):
        mix = mixture_value([(1, -1), (10, -5)], [0.75, 0.25])
        np.testing.assert_allclose(mix, [3.25, -2.0])
        assert dominates(mix, (2, -2))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            mixture_value([(1, 0), (0, 1)], [0.7, 0.7])
        with pytest.raises(ValueError):
            mixture_value([(1, 0), (0, 1)], [1.2, -0.2])
        with pytest.raises(ValueError):
            mixture_value([(1, 0)], [0.5, 0.5])

    def test_mixture_stays_in_convex_hull_bounds(self):
        rng = np.random.default_rng(0)
        pts = [rng.normal(size=3) for _ in range(4)]
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            mix = mixture_value(pts, p)
            stacked = np.array(pts)
            assert np.all(mix >= stacked.min(axis=0) - 1e-12)
            assert np.all(mix <= stacked.max(axis=0) + 1e-12)


def two_coin_env():
    """One decision state, stochastic second arm, random start weighting."""
    transitions = [
        [[(1.0, 0, np.array([1.0, 0.0]), True)],
         [(0.5, 0, np.array([0.0, 2.0]), True), (0.5, 0, np.array([0.0, 0.0]), True)]],
        [[(1.0, 1, np.array([5.0, 5.0]), True)],
         [(1.0, 1, np.array([5.0, 5.0]), True)]],
    ]
    return Momdp(2, 2, 2, transitions, [0.75, 0.25], max_episode_steps=2)


class TestStochasticEnvs:
    def test_flagged_non_deterministic(self):
        assert not two_coin_env().deterministic
        assert dst_corridor().deterministic

    def test_initial_states_follow_the_distribution(self):
        env = two_coin_env()
        rng = np.random.default_rng(6)
        starts = [env.initial_state(rng) for _ in range(4000)]
        assert abs(np.mean(starts) - 0.25) < 0.03

    def test_transition_sampling_follows_the_distribution(self):
        env = two_coin_env()
        rng = np.random.default_rng(7)
        rewards = [env.step(0, 1, rng)[1][1] for _ in range(4000)]
        assert abs(np.mean(rewards) - 1.0) < 0.1

    def test_evaluation_averages_over_episodes(self):
        env = two_coin_env()
        policy = fixed_policy(env, {0: 1, 1: 0})
        val = evaluate_policy(env, policy, episodes=4000, gamma=1.0, rng_seed=8)
        expected = [0.25 * 5.0, 0.75 * 1.0 + 0.25 * 5.0]
        np.testing.assert_allclose(val, expected, atol=0.15)

    def test_enumeration_handles_stochastic_outcomes_exactly(self):
        env = two_coin_env()
        values = {tuple(v) for _, v in enumerate_deterministic_policies(env, 1.0)}
        assert (0.75 * 1.0 + 1.25, 1.25) in values
        assert (1.25, 0.75 + 1.25) in values


class TestRegistry:
    def test_known_ids(self):
        assert make_env("dst-corridor").name == "dst-corridor"
        assert make_env("tiny-tree").name == "tiny-tree"

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown environment id"):
            make_env("does-not-exist")


class TestMomdpValidation:
    def test_rejects_unnormalized_transition(self):
        transitions = [[[(0.5, 0, np.zeros(1), True)]]]
        with pytest.raises(ValueError, match="sum to"):
            Momdp(1, 1, 1, transitions, [1.0], 1)

    def test_rejects_wrong_reward_length(self):
        transitions = [[[(1.0, 0, np.zeros(3), True)]]]
        with pytest.raises(ValueError, match="length"):
            Momdp(1, 1, 2, transitions, [1.0], 1)

    def test_rejects_unnormalized_initial_distribution(self):
        transitions = [[[(1.0, 0, np.zeros(1), True)]]]
        with pytest.raises(ValueError, match="initial distribution"):
            Momdp(1, 1, 1, transitions, [0.9], 1)

    @staticmethod
    def two_state_transitions(first_outcomes):
        """State 0 acts with ``first_outcomes``; state 1 terminates."""
        done = [(1.0, 1, np.zeros(2), True)]
        return [[first_outcomes, done], [done, done]]

    @pytest.mark.parametrize("next_state", [-1, 2])
    def test_rejects_next_states_outside_the_env(self, next_state):
        transitions = self.two_state_transitions([(1.0, next_state, np.zeros(2), True)])
        with pytest.raises(ValueError, match=rf"next state {next_state} for state 0, action 0"):
            Momdp(2, 2, 2, transitions, [1.0, 0.0], 2)

    @pytest.mark.parametrize("next_state", [1.7, 0.5, float("nan"), float("inf"), "1"])
    def test_rejects_a_next_state_that_is_not_an_integer(self, next_state):
        transitions = self.two_state_transitions([(1.0, next_state, np.zeros(2), True)])
        with pytest.raises(ValueError, match=rf"next state {next_state!r} for state 0, "
                                             r"action 0 is not an integer"):
            Momdp(2, 2, 2, transitions, [1.0, 0.0], 2)

    def test_fractional_next_state_is_not_truncated(self):
        with pytest.raises(ValueError, match=r"next state 1\.7 for state 0, action 0"):
            Momdp(2, 1, 1, [[[(1.0, 1.7, [0.0], True)]], [[(1.0, 1, [0.0], True)]]],
                  [1.0, 0.0], 2)

    def test_integral_next_states_of_any_type_are_kept(self):
        outcomes = [(0.5, 1.0, np.zeros(2), True), (0.5, np.int64(1), np.ones(2), True)]
        env = Momdp(2, 2, 2, self.two_state_transitions(outcomes), [1.0, 0.0], 2)
        assert [type(ns) for _, ns, *_ in env.outcomes(0, 0)] == [int, int]

    def test_rejects_a_next_state_past_a_single_state(self):
        transitions = [[[(1.0, 5, np.zeros(1), False)]]]
        with pytest.raises(ValueError, match=r"next state 5 for state 0, action 0 .*\[0, 1\)"):
            Momdp(1, 1, 1, transitions, [1.0], 3)

    @pytest.mark.parametrize("probs", [(-0.5, 1.5), (float("nan"), 1.0), (float("inf"), 0.0)])
    def test_rejects_negative_or_non_finite_probabilities(self, probs):
        outcomes = [(p, 1, np.full(2, k), True) for k, p in enumerate(probs)]
        with pytest.raises(ValueError,
                           match=rf"transition probability {probs[0]!r} for state 0, action 0"):
            Momdp(2, 2, 2, self.two_state_transitions(outcomes), [1.0, 0.0], 2)

    @pytest.mark.parametrize("mu0, message", [
        ([1.5, -0.5, 0.0], r"initial probability 1\.5 of state 0"),
        ([0.75, -0.25, 0.5], r"initial probability -0\.25 of state 1"),
        ([0.5, 0.5, float("nan")], r"initial probability nan of state 2")])
    def test_rejects_negative_or_non_finite_initial_entries(self, mu0, message):
        transitions = [[[(1.0, s, np.zeros(1), True)]] for s in range(3)]
        with pytest.raises(ValueError, match=message):
            Momdp(3, 1, 1, transitions, mu0, 2)


class FixedUniform:
    """A generator stub whose ``random()`` returns one fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestInitialState:
    @pytest.mark.parametrize("zero_tail", [0, 2])
    def test_a_draw_past_a_rounded_cdf_takes_the_last_start_state(self, zero_tail):
        n = 10 + zero_tail
        mu0 = np.r_[np.full(10, 0.1), np.zeros(zero_tail)]
        env = Momdp(n, 1, 1, [[[(1.0, s, np.zeros(1), True)]] for s in range(n)], mu0, 1)
        assert np.cumsum(mu0)[-1] < 1.0
        assert env.initial_state(FixedUniform(1.0 - 2.0**-53)) == 9

    def test_draws_below_the_cdf_end_are_unchanged(self):
        env = Momdp(3, 1, 1, [[[(1.0, s, np.zeros(1), True)]] for s in range(3)],
                    [0.25, 0.0, 0.75], 1)
        for u, start in ((0.0, 0), (0.2499, 0), (0.25, 2), (0.9999, 2)):
            assert env.initial_state(FixedUniform(u)) == start

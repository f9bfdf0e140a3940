import pickle

import numpy as np
import pytest

from paretoq import (
    ExperienceBuffer,
    QTableEnvelope,
    QTableEsr,
    QTableScalar,
    QTableVector,
    ReferencePoint,
    Scalarization,
    deserialize_table,
    dst_corridor,
    evaluate_policy,
    enumerate_deterministic_policies,
    greedy_policy,
    rollout,
    serialize_table,
    tiny_tree,
    transfer_policy,
    update_envelope_q,
    update_esr_mc,
    update_scalarized_q,
    update_vector_q,
)
from paretoq.momdp import Experience, accrued_key

from oracles import all_transition_experiences, value_iteration_scalar

WS = Scalarization("weighted-sum")


def exp(state=0, action=0, reward=(0.0, 0.0), next_state=0, terminal=True,
        accrued=(0.0, 0.0)):
    return Experience(state, action, np.array(reward, dtype=float), next_state,
                      terminal, np.array(accrued, dtype=float))


def sweep(q, env, update, passes):
    transitions = all_transition_experiences(env)
    for _ in range(passes):
        for e in transitions:
            update(q, e)


class TestBuffer:
    def test_fifo_evicts_oldest(self):
        buf = ExperienceBuffer(capacity=2)
        e1, e2, e3 = exp(action=0), exp(action=1), exp(state=1)
        for e in (e1, e2, e3):
            buf.push([e])
        assert list(buf.experiences()) == [e2, e3]

    def test_everything_fits_below_capacity(self):
        buf = ExperienceBuffer(capacity=10)
        items = [exp(state=i) for i in range(4)]
        buf.push(items)
        assert list(buf.experiences()) == items

    def test_fifo_holds_exactly_the_last_capacity_pushes(self):
        buf = ExperienceBuffer(capacity=5)
        items = [exp(state=i) for i in range(12)]
        for e in items:
            buf.push([e])
        assert list(buf.experiences()) == items[-5:]

    def test_diverse_crowding_drops_the_crowded_episode(self):
        buf = ExperienceBuffer(capacity=4, replacement="diverse-crowding")
        episodes = {
            (0.0, 2.0): [exp(state=0, reward=(0, 2))],
            (1.0, 1.0): [exp(state=1, reward=(1, 1))],
            (2.0, 0.0): [exp(state=2, reward=(2, 0))],
        }
        for ep in episodes.values():
            buf.push(ep + [exp(state=9, reward=(0, 0))])  # two steps per episode
        returns = {tuple(slot.return_vector()) for slot in buf._slots}
        assert returns == {(0.0, 2.0), (2.0, 0.0)}  # the interior return went

    def test_sample_single_element_with_replacement(self):
        buf = ExperienceBuffer(capacity=4)
        only = exp()
        buf.push([only])
        assert buf.sample(3, np.random.default_rng(0)) == [only, only, only]

    def test_sample_zero_batch(self):
        buf = ExperienceBuffer(capacity=4)
        buf.push([exp()])
        assert buf.sample(0, np.random.default_rng(0)) == []

    def test_sample_empty_buffer_is_an_error(self):
        with pytest.raises(ValueError, match="empty buffer"):
            ExperienceBuffer(capacity=4).sample(1, np.random.default_rng(0))

    def test_sampling_is_uniform(self):
        buf = ExperienceBuffer(capacity=16)
        for i in range(10):
            buf.push([exp(state=i)])
        draws = buf.sample(100_000, np.random.default_rng(33))
        counts = np.bincount([e.state for e in draws], minlength=10)
        expected = len(draws) / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.877  # chi-square critical value, 9 dof, p = 0.001

    def test_complete_episodes_exclude_trimmed_ones(self):
        buf = ExperienceBuffer(capacity=3)
        buf.push([exp(state=0, terminal=False), exp(state=1)])
        buf.push([exp(state=2), exp(state=3)])  # overflows, trims the first episode
        complete = buf.complete_episodes()
        assert len(complete) == 1
        assert [e.state for e in complete[0]] == [2, 3]


def fields(e):
    return (e.state, e.action, e.reward.tolist(), e.next_state, e.terminal, e.accrued.tolist())


def episode(first_state, length, reward):
    """``length`` steps ending in a terminal one; accrued sums the rewards."""
    steps = []
    for t in range(length):
        steps.append(exp(state=first_state + t, action=t % 2, reward=reward,
                         next_state=first_state + t + 1, terminal=t == length - 1,
                         accrued=np.multiply(reward, t)))
    return steps


class TestBufferPickle:
    def fifo_with_trimmed_slots(self):
        buf = ExperienceBuffer(capacity=7)
        buf.push(episode(0, 3, (1.0, 0.0)))
        buf.push([exp(state=10, terminal=False), exp(state=11, terminal=False)])  # fragment
        buf.push(episode(20, 4, (0.0, 1.0)))  # overflows: the first episode is trimmed
        assert [slot.trimmed for slot in buf._slots] == [True, False, False]
        return buf

    def crowding(self):
        buf = ExperienceBuffer(capacity=6, replacement="diverse-crowding")
        for k, reward in enumerate([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0), (0.5, 1.5)]):
            buf.push(episode(10 * k, 2, reward))
        assert len(buf._slots) == 3
        return buf

    def assert_same(self, a, b):
        assert len(a) == len(b)
        assert [fields(e) for e in a.experiences()] == [fields(e) for e in b.experiences()]
        assert [[fields(e) for e in ep] for ep in a.complete_episodes()] == \
               [[fields(e) for e in ep] for ep in b.complete_episodes()]
        assert [fields(e) for e in a.sample(20, np.random.default_rng(4))] == \
               [fields(e) for e in b.sample(20, np.random.default_rng(4))]
        assert [[fields(e) for e in ep] for ep in a.sample_episodes(5, np.random.default_rng(5))] == \
               [[fields(e) for e in ep] for ep in b.sample_episodes(5, np.random.default_rng(5))]

    @pytest.mark.parametrize("make", ["fifo_with_trimmed_slots", "crowding"])
    def test_round_trip_reads_and_pushes_like_the_original(self, make):
        original = getattr(self, make)()
        restored = pickle.loads(pickle.dumps(original))
        self.assert_same(original, restored)
        for buf in (original, restored):
            buf.push(episode(40, 3, (1.5, 0.5)))
        self.assert_same(original, restored)

    def test_unpickled_buffer_rebuilds_only_when_read(self):
        restored = pickle.loads(pickle.dumps(self.fifo_with_trimmed_slots()))
        assert "_flat" not in vars(restored) and len(restored) == 7
        again = pickle.loads(pickle.dumps(restored))  # re-pickles its columns as they are
        assert "_flat" not in vars(again)
        self.assert_same(again, self.fifo_with_trimmed_slots())

    def test_push_as_the_first_access(self):
        restored = pickle.loads(pickle.dumps(self.fifo_with_trimmed_slots()))
        restored.push(episode(40, 3, (1.5, 0.5)))
        self.assert_same(restored, self.fifo_with_trimmed_slots().push(episode(40, 3, (1.5, 0.5))))

    def test_empty_buffer_round_trip(self):
        restored = pickle.loads(pickle.dumps(ExperienceBuffer(capacity=3)))
        assert len(restored) == 0 and list(restored.experiences()) == []
        restored.push([exp(state=1)])
        assert [e.state for e in restored.experiences()] == [1]


class TestScalarizedUpdate:
    def test_one_step_terminal_target(self):
        q = QTableScalar(2, alpha=1.0, gamma=1.0)
        update_scalarized_q(q, exp(action=0, reward=(1, 0)), WS, (1, 0))
        assert q.row(0)[0] == 1.0

    def test_orthogonal_weight_sees_nothing(self):
        q = QTableScalar(2, alpha=1.0, gamma=1.0)
        update_scalarized_q(q, exp(action=0, reward=(1, 0)), WS, (0, 1))
        assert q.row(0)[0] == 0.0

    def test_tree_training_reaches_the_scalarized_optimum(self):
        env = tiny_tree()
        q = QTableScalar(env.n_actions, alpha=0.5, gamma=1.0)
        lam = np.array([0.5, 0.5])
        sweep(q, env, lambda q_, e: update_scalarized_q(q_, e, WS, lam), 500)
        value = evaluate_policy(env, greedy_policy(q), 1, 1.0, 0)
        best = max(float(lam @ v) for _, v in enumerate_deterministic_policies(env, 1.0))
        assert float(lam @ value) == pytest.approx(best, abs=1e-9)
        np.testing.assert_allclose(value, [4.0, 0.0])  # tie falls to action 0

    def test_matches_plain_q_learning_bit_for_bit(self):
        env = dst_corridor()
        lam = np.array([0.4, 0.6])
        rng = np.random.default_rng(41)
        stream = [all_transition_experiences(env)[int(rng.integers(0, 10))]
                  for _ in range(400)]
        q = QTableScalar(2, alpha=0.3, gamma=0.9)
        plain: dict[int, np.ndarray] = {}

        def row(s):
            r = plain.get(s)
            if r is None:
                r = plain[s] = np.zeros(2)
            return r

        for e in stream:
            update_scalarized_q(q, e, WS, lam)
            reward = float(np.dot(lam, e.reward))
            boot = 0.0 if e.terminal else float(row(e.next_state).max())
            r_ = row(e.state)
            r_[e.action] += 0.3 * (reward + 0.9 * boot - r_[e.action])
        assert set(q.table) == set(plain)
        for s in plain:
            assert np.array_equal(q.table[s], plain[s])


class TestVectorUpdate:
    def test_terminal_target_is_the_reward_vector(self):
        q = QTableVector(2, 2, alpha=1.0, gamma=1.0)
        update_vector_q(q, exp(action=0, reward=(1, -1)), (0.5, 0.5))
        np.testing.assert_array_equal(q.block(0)[0], [1.0, -1.0])

    def test_corridor_extremes_for_basis_weights(self):
        env = dst_corridor()
        for lam, expected in [((1.0, 0.0), (10.0, -5.0)), ((0.0, 1.0), (1.0, -1.0))]:
            q = QTableVector(env.n_actions, 2, alpha=1.0, gamma=1.0)
            sweep(q, env, lambda q_, e: update_vector_q(q_, e, np.array(lam)), 20)
            _, ret = rollout(env, greedy_policy(q, np.array(lam)), 0)
            np.testing.assert_allclose(ret, expected)

    def test_weighted_entries_evolve_like_the_scalar_table(self):
        env = dst_corridor()
        lam = np.array([0.7, 0.3])
        rng = np.random.default_rng(42)
        transitions = all_transition_experiences(env)
        qs = QTableScalar(2, alpha=0.2, gamma=1.0)
        qv = QTableVector(2, 2, alpha=0.2, gamma=1.0)
        for _ in range(600):
            e = transitions[int(rng.integers(0, len(transitions)))]
            update_scalarized_q(qs, e, WS, lam)
            update_vector_q(qv, e, lam)
            for s in qs.table:
                np.testing.assert_allclose(qv.block(s) @ lam, qs.row(s), atol=1e-12)


class TestEnvelopeUpdate:
    LAMBDAS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]

    def bandit_table(self, gamma=1.0):
        return QTableEnvelope(2, 2, self.LAMBDAS, alpha=1.0, gamma=gamma)

    def test_two_action_bandit_one_sweep(self):
        q = self.bandit_table()
        for lam in self.LAMBDAS:
            update_envelope_q(q, exp(action=0, reward=(1, 0)), lam)
            update_envelope_q(q, exp(action=1, reward=(0, 1)), lam)
        policy = greedy_policy(q, self.LAMBDAS[0])
        best_action = policy.action(0)
        assert best_action == 0
        np.testing.assert_array_equal(q.block(0)[0, best_action], [1.0, 0.0])

    def test_gamma_zero_degenerates_to_the_reward(self):
        q = self.bandit_table(gamma=0.0)
        e = exp(action=0, reward=(2, 3), terminal=False, next_state=0)
        update_envelope_q(q, e, self.LAMBDAS[0])
        np.testing.assert_array_equal(q.block(0)[0, 0], [2.0, 3.0])

    def test_weight_outside_the_set_is_an_error(self):
        q = self.bandit_table()
        with pytest.raises(ValueError, match="not in the envelope weight set"):
            update_envelope_q(q, exp(), np.array([0.5, 0.5]))

    def test_tree_training_reaches_every_weights_optimum(self):
        env = tiny_tree()
        from paretoq import generate_weights_uniform

        lambdas = generate_weights_uniform(2, 3)
        q = QTableEnvelope(env.n_actions, 2, lambdas, alpha=1.0, gamma=1.0)
        optima = [v for _, v in enumerate_deterministic_policies(env, 1.0)]
        for _ in range(20):
            for e in all_transition_experiences(env):
                for lam in lambdas:
                    update_envelope_q(q, e, lam)
        for lam in lambdas:
            value = evaluate_policy(env, greedy_policy(q, lam), 1, 1.0, 0)
            best = max(float(lam @ v) for v in optima)
            assert float(lam @ value) == pytest.approx(best, abs=1e-9)

    def test_bootstrap_dominates_the_single_weight_bootstrap(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            q = self.bandit_table()
            q.table[1] = rng.normal(size=(2, 2, 2))
            lam = self.LAMBDAS[int(rng.integers(0, 2))]
            l_idx = q.weight_index(lam)
            e = exp(action=0, reward=tuple(rng.normal(size=2)), terminal=False,
                    next_state=1)
            block = q.block(1)
            envelope_best = max(
                float(lam @ block[l2, a2]) for l2 in range(2) for a2 in range(2))
            plain_best = max(float(lam @ block[l_idx, a2]) for a2 in range(2))
            assert envelope_best >= plain_best - 1e-12


class TestEsrUpdate:
    Z = ReferencePoint(values=(10.5, -0.5), mode="fixed")
    TCH = Scalarization("tchebycheff", Z)

    def test_single_step_episode_negated_tchebycheff(self):
        q = QTableEsr(2, 2, alpha=1.0)
        episode = [exp(action=1, reward=(2, -2), accrued=(0, 0))]
        update_esr_mc(q, episode, self.TCH, (0.5, 0.5))
        assert q.row(0, (0.0, 0.0))[1] == pytest.approx(-4.25)
        assert q.visits[(0, (0.0, 0.0))][1] == 1

    def test_identical_episodes_are_idempotent_at_full_rate(self):
        q = QTableEsr(2, 2, alpha=1.0)
        episode = [
            exp(state=0, action=0, reward=(0, -1), next_state=1, terminal=False),
            exp(state=1, action=1, reward=(2, -1), next_state=1, accrued=(0, -1)),
        ]
        update_esr_mc(q, episode, self.TCH, (0.5, 0.5))
        snapshot = {k: v.copy() for k, v in q.table.items()}
        update_esr_mc(q, episode, self.TCH, (0.5, 0.5))
        for key, row in snapshot.items():
            np.testing.assert_array_equal(q.table[key], row)

    def test_incomplete_episode_is_an_error(self):
        q = QTableEsr(2, 2)
        with pytest.raises(ValueError, match="incomplete episode"):
            update_esr_mc(q, [exp(terminal=False)], self.TCH, (0.5, 0.5))

    def test_corridor_training_lands_on_a_concave_point(self):
        # lam = (0.2, 0.8) makes (2, -2) the Tchebycheff winner of the front
        env = dst_corridor()
        lam = np.array([0.2, 0.8])
        q = QTableEsr(env.n_actions, 2, alpha=0.2, gamma=1.0)
        explore = np.random.default_rng(44)
        for episode_idx in range(4000):
            eps = max(0.05, 1.0 - episode_idx / 2000)
            policy = greedy_policy(q)
            policy.kind = "epsilon-greedy"
            policy.epsilon = eps
            trace, _ = rollout(env, policy, explore)
            update_esr_mc(q, trace, self.TCH, lam)
        _, ret = rollout(env, greedy_policy(q), 0)
        np.testing.assert_allclose(ret, [2.0, -2.0])


class TestGreedyPolicy:
    def test_scalar_row_argmax(self):
        q = QTableScalar(2)
        q.row(0)[:] = [0.1, 0.9]
        assert greedy_policy(q).action(0) == 1

    def test_tie_breaks_to_the_lowest_index(self):
        q = QTableScalar(2)
        q.row(0)[:] = [0.5, 0.5]
        assert greedy_policy(q).action(0) == 0

    def test_vector_rows_scalarized_by_the_weight(self):
        q = QTableVector(2, 2)
        q.block(0)[:] = [(1, 0), (0, 1)]
        assert greedy_policy(q, (0, 1)).action(0) == 1

    def test_esr_policy_consults_the_accrued_reward(self):
        q = QTableEsr(2, 2)
        q.row(0, (0.0, 0.0))[:] = [1.0, 0.0]
        q.row(0, (1.0, 0.0))[:] = [0.0, 1.0]
        policy = greedy_policy(q)
        assert policy.action(0, (0.0, 0.0)) == 0
        assert policy.action(0, (1.0, 0.0)) == 1

    def test_scalar_and_esr_policies_are_live_views(self):
        q = QTableScalar(2)
        q.row(0)[:] = [1.0, 0.0]
        policy = greedy_policy(q)
        assert policy.action(0) == 0
        q.row(0)[1] = 2.0
        assert policy.action(0) == 1
        q.row(1)[1] = 1.0  # a row created after the policy is seen too
        assert policy.action(1) == 1

        esr = QTableEsr(2, 2)
        esr_policy = greedy_policy(esr)
        assert esr_policy.action(0, np.array([1.0, -1.0])) == 0
        esr.row(0, (1.0, -1.0))[1] = 1.0
        assert esr_policy.action(0, np.array([1.0, -1.0])) == 1

    def test_policy_reads_do_not_grow_the_table(self):
        esr = QTableEsr(2, 2)
        greedy_policy(esr).action(3, np.array([0.0, 0.0]))
        assert esr.table == {} and esr.visits == {}


class TestTransfer:
    def test_copy_then_update_leaves_the_source_alone(self):
        src = QTableScalar(2, alpha=1.0)
        update_scalarized_q(src, exp(action=0, reward=(1, 0)), WS, (1, 0))
        dst = transfer_policy(src, QTableScalar(2, alpha=1.0))
        update_scalarized_q(dst, exp(action=1, reward=(0, 1)), WS, (1, 0))
        assert src.row(0)[1] == 0.0
        assert dst.row(0)[0] == 1.0

    def test_copy_of_a_zero_table_is_zero(self):
        src = QTableVector(2, 2)
        src.block(0)
        dst = transfer_policy(src, QTableVector(2, 2))
        np.testing.assert_array_equal(dst.block(0), np.zeros((2, 2)))

    def test_transfer_preserves_the_greedy_policy(self):
        env = tiny_tree()
        src = QTableScalar(2, alpha=0.5)
        sweep(src, env, lambda q_, e: update_scalarized_q(q_, e, WS, (0.3, 0.7)), 100)
        dst = transfer_policy(src, QTableScalar(2, alpha=0.5))
        for s in range(env.n_states):
            assert greedy_policy(src).action(s) == greedy_policy(dst).action(s)

    def test_kind_mismatch(self):
        with pytest.raises(TypeError, match="kind mismatch"):
            transfer_policy(QTableScalar(2), QTableVector(2, 2))


class TestSerialization:
    def test_roundtrip_every_kind(self):
        env = tiny_tree()
        lam = np.array([0.5, 0.5])
        scalar = QTableScalar(2, alpha=0.25, gamma=0.9)
        sweep(scalar, env, lambda q_, e: update_scalarized_q(q_, e, WS, lam), 3)
        vector = QTableVector(2, 2, alpha=0.25, gamma=0.9)
        sweep(vector, env, lambda q_, e: update_vector_q(q_, e, lam), 3)
        envelope = QTableEnvelope(2, 2, [np.array([1.0, 0.0]), lam], alpha=1.0)
        sweep(envelope, env, lambda q_, e: update_envelope_q(q_, e, lam), 2)
        esr = QTableEsr(2, 2, alpha=1.0)
        trace, _ = rollout(env, greedy_policy(scalar), 0)
        update_esr_mc(esr, trace, WS, lam)

        for table in (scalar, vector, envelope, esr):
            text = serialize_table(table)
            back = deserialize_table(text)
            assert serialize_table(back) == text
            assert set(back.table) == set(table.table)
            for key in table.table:
                np.testing.assert_array_equal(back.table[key], table.table[key])

    def test_esr_roundtrip_keeps_accrued_keys_and_visits(self):
        q = QTableEsr(2, 2, alpha=0.5)
        # 0.1 + 0.2 needs all 17 significant digits to round-trip
        episode = [
            exp(state=0, action=1, reward=(0.1, -1), next_state=1, terminal=False),
            exp(state=1, action=0, reward=(0.2, -0.0), next_state=2, terminal=False,
                accrued=(0.1, -1)),
            exp(state=2, action=1, reward=(3, 0), accrued=(0.1 + 0.2, -1)),
        ]
        update_esr_mc(q, episode, WS, (0.5, 0.5))
        update_esr_mc(q, episode, WS, (0.5, 0.5))
        text = serialize_table(q)
        back = deserialize_table(text)
        assert serialize_table(back) == text
        expected_keys = {accrued_key(e.state, e.accrued) for e in episode}
        assert set(back.table) == set(q.table) == expected_keys
        for key in q.table:
            np.testing.assert_array_equal(back.table[key], q.table[key])
            np.testing.assert_array_equal(back.visits[key], q.visits[key])
            assert back.visits[key].dtype == np.int64
        # the deserialized table answers lookups by array, as training does
        accrued = np.array([0.1, -1.0]) + [0.2, 0.0]
        assert back.row(2, accrued)[1] == q.table[(2, (0.1 + 0.2, -1.0))][1]

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    update_envelope_q,
    update_esr_mc,
    update_scalarized_q,
    update_vector_q,
)
from paretoq.momdp import Experience, _EsrRow, _Episode, accrued_key, greedy_action

from oracles import (NaiveEpisodeBuffer, NumpyRowEsr, NumpyRowScalar, all_transition_experiences,
                     envelope_row_step, envelope_scores_per_weight, envelope_step_per_weight,
                     esr_mc_step, scalarized_q_step, value_iteration_scalar)

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
        assert list(buf) == [e2, e3]

    def test_everything_fits_below_capacity(self):
        buf = ExperienceBuffer(capacity=10)
        items = [exp(state=i) for i in range(4)]
        buf.push(items)
        assert list(buf) == items

    def test_fifo_holds_exactly_the_last_capacity_pushes(self):
        buf = ExperienceBuffer(capacity=5)
        items = [exp(state=i) for i in range(12)]
        for e in items:
            buf.push([e])
        assert list(buf) == items[-5:]

    def test_diverse_crowding_drops_the_crowded_episode(self):
        buf = ExperienceBuffer(capacity=4, replacement="diverse-crowding")
        episodes = {
            (0.0, 2.0): [exp(state=0, reward=(0, 2))],
            (1.0, 1.0): [exp(state=1, reward=(1, 1))],
            (2.0, 0.0): [exp(state=2, reward=(2, 0))],
        }
        for ep in episodes.values():
            buf.push(ep + [exp(state=9, reward=(0, 0))])  # two steps per episode
        returns = {tuple(sum(e.reward for e in ep)) for ep in buf.complete_episodes()}
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

    def test_push_keeps_an_interned_episode_and_its_plan(self):
        interned = _Episode([exp(action=1, reward=(2, -2))])
        update_esr_mc(QTableEsr(2, 2), interned, WS, (0.5, 0.5))
        plan = interned.replay
        buf = ExperienceBuffer(capacity=4).push(interned).push(interned)
        assert [type(ep) for ep in buf._episodes] == [_Episode, _Episode]
        assert all(ep is interned for ep in buf.complete_episodes())
        assert interned.replay is plan is not None and len(buf) == 2

    def test_push_copies_a_plain_list_into_a_new_one(self):
        steps = [exp(state=0), exp(state=1)]
        buf = ExperienceBuffer(capacity=4).push(steps)
        stored = buf.complete_episodes()[0]
        assert type(stored) is list and stored is not steps
        assert all(a is b for a, b in zip(stored, steps))   # steps by reference
        steps.append(exp(state=2))
        assert len(stored) == len(buf) == 2

    def test_complete_episodes_exclude_trimmed_ones(self):
        buf = ExperienceBuffer(capacity=3)
        buf.push([exp(state=0, terminal=False), exp(state=1)])
        buf.push([exp(state=2), exp(state=3)])  # overflows, trims the first episode
        complete = buf.complete_episodes()
        assert len(complete) == 1
        assert [e.state for e in complete[0]] == [2, 3]


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 12),
       replacement=st.sampled_from(["fifo", "diverse-crowding"]),
       pushes=st.lists(st.tuples(st.integers(0, 6), st.booleans(),
                                 st.integers(0, 3), st.integers(0, 3),
                                 st.sampled_from(["plain", "interned", "again"])), max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_buffer_matches_a_naive_model(capacity, replacement, pushes, seed):
    """Views and seeded draws equal the naive model's after every push.

    Each push is ``(length, fragment, r0, r1, how)``: ``length`` steps of
    reward ``(r0, r1)``, the last one terminal unless the push is a fragment,
    pushed as a plain list, as a new :class:`_Episode`, or (``again``) as
    the last interned object once more, as runs share one object per
    episode. So one object may be cut at the head while later copies of it
    stay complete, which eviction's identity checks must tell apart.
    """
    buf = ExperienceBuffer(capacity, replacement)
    naive = NaiveEpisodeBuffer(capacity, replacement)
    first, interned = 0, []
    for length, fragment, r0, r1, how in pushes:
        steps = [exp(state=first + t, reward=(r0, r1), terminal=t == length - 1 and not fragment)
                 for t in range(length)]
        first += length
        if how == "again" and interned:
            steps = interned[-1]
        elif how != "plain":
            steps = _Episode(steps)
            interned.append(steps)
        buf.push(steps)
        naive.push(steps)
        assert len(buf) == len(naive.flat)
        assert list(buf) == naive.flat
        assert buf.complete_episodes() == naive.complete
        assert all(type(ep) is list or any(ep is obj for obj in interned)
                   for ep in buf._episodes)
        rng, model_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if naive.flat:
            assert buf.sample(5, rng) == naive.sample(5, model_rng)
        else:
            with pytest.raises(ValueError, match="empty buffer"):
                buf.sample(5, rng)
        assert rng.random() == model_rng.random()


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
        assert [e.state for e in buf] == [2, 10, 11, 20, 21, 22, 23]
        assert [[e.state for e in ep] for ep in buf.complete_episodes()] == [[20, 21, 22, 23]]
        return buf

    def crowding(self):
        buf = ExperienceBuffer(capacity=6, replacement="diverse-crowding")
        for k, reward in enumerate([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0), (0.5, 1.5)]):
            buf.push(episode(10 * k, 2, reward))
        assert len(buf) == 6 and len(buf.complete_episodes()) == 3
        return buf

    def assert_same(self, a, b):
        assert len(a) == len(b)
        assert [fields(e) for e in a] == [fields(e) for e in b]
        assert [[fields(e) for e in ep] for ep in a.complete_episodes()] == \
               [[fields(e) for e in ep] for ep in b.complete_episodes()]
        assert [fields(e) for e in a.sample(20, np.random.default_rng(4))] == \
               [fields(e) for e in b.sample(20, np.random.default_rng(4))]

    @pytest.mark.parametrize("make", ["fifo_with_trimmed_slots", "crowding"])
    def test_round_trip_reads_and_pushes_like_the_original(self, make):
        original = getattr(self, make)()
        restored = pickle.loads(pickle.dumps(original))
        self.assert_same(original, restored)
        for buf in (original, restored):
            buf.push(episode(40, 3, (1.5, 0.5)))
        self.assert_same(original, restored)

    def test_push_as_the_first_access(self):
        restored = pickle.loads(pickle.dumps(self.fifo_with_trimmed_slots()))
        restored.push(episode(40, 3, (1.5, 0.5)))
        self.assert_same(restored, self.fifo_with_trimmed_slots().push(episode(40, 3, (1.5, 0.5))))

    def test_empty_buffer_round_trip(self):
        restored = pickle.loads(pickle.dumps(ExperienceBuffer(capacity=3)))
        assert len(restored) == 0 and list(restored) == []
        restored.push([exp(state=1)])
        assert [e.state for e in restored] == [1]


class TestScalarizedUpdate:
    def test_one_step_terminal_target(self):
        q = QTableScalar(2, alpha=1.0, gamma=1.0)
        update_scalarized_q(q, [exp(action=0, reward=(1, 0))], WS, (1, 0))
        assert q.row(0)[0] == 1.0

    def test_orthogonal_weight_sees_nothing(self):
        q = QTableScalar(2, alpha=1.0, gamma=1.0)
        update_scalarized_q(q, [exp(action=0, reward=(1, 0))], WS, (0, 1))
        assert q.row(0)[0] == 0.0

    def test_tree_training_reaches_the_scalarized_optimum(self):
        env = tiny_tree()
        q = QTableScalar(env.n_actions, alpha=0.5, gamma=1.0)
        lam = np.array([0.5, 0.5])
        sweep(q, env, lambda q_, e: update_scalarized_q(q_, [e], WS, lam), 500)
        value = evaluate_policy(env, greedy_policy(q), 1, 1.0, 0)
        best = max(float(lam @ v) for _, v in enumerate_deterministic_policies(env, 1.0))
        assert float(lam @ value) == pytest.approx(best, abs=1e-9)
        np.testing.assert_allclose(value, [4.0, 0.0])  # tie falls to action 0

    def test_memo_rescores_a_reward_it_does_not_hold(self):
        q, g = QTableScalar(2, alpha=1.0), CountingScalarization()
        e = exp(action=0, reward=(1, 0))
        scores = {id(e.reward): (np.array([9.0, 9.0]), 9.0)}  # a dead reward's id, reused
        update_scalarized_q(q, [e], g, (1, 0), scores)
        update_scalarized_q(q, [e], g, (1, 0), scores)
        assert g.calls == 1 and q.row(0)[0] == 1.0
        assert scores[id(e.reward)][0] is e.reward

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
            update_scalarized_q(q, [e], WS, lam)
            reward = float(np.dot(lam, e.reward))
            boot = 0.0 if e.terminal else float(row(e.next_state).max())
            r_ = row(e.state)
            r_[e.action] += 0.3 * (reward + 0.9 * boot - r_[e.action])
        assert set(q.table) == set(plain)
        for s in plain:
            assert np.array_equal(q.table[s], plain[s])


TABLE_VALUES = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 2.5]
SHARED_REWARDS = [(1.0, -1.0), (0.0, -0.0), (2.5, 1e-300)]


class CountingScalarization(Scalarization):
    calls = 0

    def score(self, f, lam):
        self.calls += 1
        return super().score(f, lam)


def row_bits(q):
    """Rows in creation order, each as its exact bytes."""
    return [(s, np.asarray(row, dtype=float).tobytes()) for s, row in q.table.items()]


@settings(max_examples=300, deadline=None)
@given(n_actions=st.integers(1, 3),
       rows=st.dictionaries(st.integers(0, 3),
                            st.lists(st.sampled_from(TABLE_VALUES), min_size=3, max_size=3)),
       steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(-3, 2),
                                st.integers(0, 3), st.booleans()), max_size=30),
       kind=st.sampled_from(["weighted-sum", "tchebycheff"]),
       lam=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.3, 0.7)]),
       reference=st.sampled_from([(2.0, 2.0), (0.0, -0.0)]),
       alpha=st.sampled_from([0.1, 0.2, 1.0]), gamma=st.sampled_from([0.0, 0.5, 1.0]))
def test_memoised_scalar_step_matches_the_oracle(n_actions, rows, steps, kind, lam, reference,
                                                 alpha, gamma):
    """One call on a whole batch, sharing one memo, leaves the same bits as
    one call per experience without a memo and as the oracle step on numpy
    rows, which scores every experience. Each step is ``(state, action,
    reward, next state, terminal)``; a reward ``k >= 0`` is the shared array
    ``SHARED_REWARDS[k]`` (an env's own outcome), ``k < 0`` a fresh array
    equal to ``SHARED_REWARDS[-k - 1]``."""
    shared = [np.array(r) for r in SHARED_REWARDS]
    batch = [Experience(s, a % n_actions, shared[r] if r >= 0 else np.array(SHARED_REWARDS[-r - 1]),
                        nxt, terminal, np.zeros(2))
             for s, a, r, nxt, terminal in steps]
    ref = ReferencePoint(values=reference)
    g, oracle_g = CountingScalarization(kind, ref), Scalarization(kind, ref)
    tables = []
    for cls in (QTableScalar, QTableScalar, NumpyRowScalar):
        q = cls(n_actions, alpha=alpha, gamma=gamma)
        for s, values in rows.items():
            q.row(s)[:] = values[:n_actions]
        tables.append(q)
    memo_q, plain_q, oracle_q = tables
    by_hand = QTableScalar(n_actions, alpha=alpha, gamma=gamma)   # numpy rows still work
    by_hand.table = {s: np.array(values[:n_actions]) for s, values in rows.items()}
    update_scalarized_q(memo_q, batch, g, lam, {})
    update_scalarized_q(by_hand, batch, Scalarization(kind, ref), lam)
    for e in batch:
        update_scalarized_q(plain_q, [e], Scalarization(kind, ref), lam)
        scalarized_q_step(oracle_q, e, oracle_g, lam)
    assert row_bits(memo_q) == row_bits(plain_q) == row_bits(oracle_q) == row_bits(by_hand)
    assert serialize_table(memo_q) == serialize_table(plain_q) == serialize_table(oracle_q) == \
        serialize_table(by_hand)
    assert all(type(v) is float for q in (memo_q, plain_q) for row in q.table.values() for v in row)
    assert g.calls == len({id(e.reward) for e in batch})


GREEDY_VALUES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf]


def assert_greedy_and_bootstrap_follow_numpy(row):
    """``greedy_action`` is ``ndarray.argmax`` on the list and on the array;
    the scalar step's bootstrap is ``np.max``, read through a step at rate 1
    whose target is the bootstrap itself (a zero's sign never reaches a row)."""
    expected = int(np.asarray(row, dtype=float).argmax())
    assert greedy_action(row) == greedy_action(np.array(row)) == expected
    q = QTableScalar(len(row), alpha=1.0, gamma=1.0)
    q.row(1)[:] = row
    update_scalarized_q(q, [exp(state=0, next_state=1, terminal=False)], WS, (1.0, 0.0))
    got, want = q.row(0)[0], float(np.max(row))
    assert got == want
    assert type(got) is float


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_greedy_action_and_bootstrap_on_every_special_row(n):
    """Every row of ``n`` entries from ±0, ±1 and ±inf: ties at every position."""
    for row in itertools.product(GREEDY_VALUES, repeat=n):
        assert_greedy_and_bootstrap_follow_numpy(list(row))


@settings(max_examples=200, deadline=None)
@given(row=st.lists(st.one_of(st.sampled_from(GREEDY_VALUES), st.floats(allow_nan=False)),
                    min_size=1, max_size=4))
def test_greedy_action_and_bootstrap_on_any_row(row):
    assert_greedy_and_bootstrap_follow_numpy(row)


class TestNonFiniteInputIsRejected:
    """Every table value, score and weight is finite: each way a NaN or an
    infinity could enter a table raises where it enters (serialized text is
    checked in :class:`TestSerialization`)."""

    @pytest.mark.parametrize("gamma", [7.0, -0.5, np.nan, np.inf])
    def test_gamma_outside_the_unit_interval(self, gamma):
        for make in (lambda: QTableScalar(2, 0.5, gamma), lambda: QTableVector(2, 2, 0.5, gamma),
                     lambda: QTableEnvelope(2, 2, [(1.0, 0.0)], 0.5, gamma),
                     lambda: QTableEsr(2, 2, 0.5, gamma)):
            with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\]"):
                make()

    @pytest.mark.parametrize("bad", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0)])
    def test_an_envelope_weight_set_with_a_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="have non-finite entries"):
            QTableEnvelope(2, 2, [(1.0, 0.0), bad])
        q = QTableEnvelope(2, 2, [(1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="have non-finite entries"):
            q.weights = [bad, (1.0, 0.0)]
        assert q.stacked.tolist() == [[1.0, 0.0], [0.0, 1.0]] and q.rows == [0, 1]

    @pytest.mark.parametrize("lam", [(np.nan, 1.0), (np.inf, 0.0)])
    def test_a_vector_greedy_policy_weight_with_a_non_finite_entry(self, lam):
        q = QTableVector(2, 2)
        q.block(0)[:] = [(1, 0), (0, 1)]
        with pytest.raises(ValueError, match="has non-finite entries"):
            greedy_policy(q, lam)

    def test_a_tchebycheff_score_at_the_sentinel_reaches_no_row(self):
        """The scalar and ESR updates score through the scalarizer, which raises."""
        g = Scalarization("tchebycheff", ReferencePoint(m=2))
        q = QTableScalar(2)
        with pytest.raises(ValueError, match="not all finite"):
            update_scalarized_q(q, [exp(action=1, reward=(1.0, 2.0))], g, (0.5, 0.5))
        esr = QTableEsr(2, 2)
        with pytest.raises(ValueError, match="not all finite"):
            update_esr_mc(esr, [exp(action=1, reward=(1.0, 2.0))], g, (0.0, 1.0))
        assert q.table == esr.table == {}

    @pytest.mark.parametrize("reward", [(np.nan, 1.0), (1.0, -np.inf)])
    def test_a_hand_built_experience_with_a_non_finite_reward(self, reward):
        for kind in ("weighted-sum", "tchebycheff"):
            g = Scalarization(kind, ReferencePoint(values=(2.0, 2.0)))
            with pytest.raises(ValueError, match="not (all )?finite"):
                update_scalarized_q(QTableScalar(2), [exp(reward=reward)], g, (0.5, 0.5))
            with pytest.raises(ValueError, match="not (all )?finite"):
                update_esr_mc(QTableEsr(2, 2), [exp(reward=reward)], g, (0.5, 0.5))


class TestVectorUpdate:
    def test_terminal_target_is_the_reward_vector(self):
        q = QTableVector(2, 2, alpha=1.0, gamma=1.0)
        update_vector_q(q, [exp(action=0, reward=(1, -1))], (0.5, 0.5))
        np.testing.assert_array_equal(q.block(0)[0], [1.0, -1.0])

    def test_corridor_extremes_for_basis_weights(self):
        env = dst_corridor()
        for lam, expected in [((1.0, 0.0), (10.0, -5.0)), ((0.0, 1.0), (1.0, -1.0))]:
            q = QTableVector(env.n_actions, 2, alpha=1.0, gamma=1.0)
            sweep(q, env, lambda q_, e: update_vector_q(q_, [e], np.array(lam)), 20)
            _, ret = rollout(env, greedy_policy(q, np.array(lam)), 0)
            np.testing.assert_allclose(ret, expected)

    def test_one_batch_call_equals_one_call_per_experience(self):
        env = dst_corridor()
        rng = np.random.default_rng(45)
        transitions = all_transition_experiences(env)
        batch = [transitions[int(rng.integers(0, len(transitions)))] for _ in range(200)]
        whole, folded = QTableVector(2, 2, alpha=0.3, gamma=0.9), QTableVector(2, 2, alpha=0.3,
                                                                               gamma=0.9)
        update_vector_q(whole, batch, (0.4, 0.6))
        for e in batch:
            update_vector_q(folded, [e], (0.4, 0.6))
        assert list(whole.table) == list(folded.table)
        assert [b.tobytes() for b in whole.table.values()] == \
            [b.tobytes() for b in folded.table.values()]

    def test_weighted_entries_evolve_like_the_scalar_table(self):
        env = dst_corridor()
        lam = np.array([0.7, 0.3])
        rng = np.random.default_rng(42)
        transitions = all_transition_experiences(env)
        qs = QTableScalar(2, alpha=0.2, gamma=1.0)
        qv = QTableVector(2, 2, alpha=0.2, gamma=1.0)
        for _ in range(600):
            e = transitions[int(rng.integers(0, len(transitions)))]
            update_scalarized_q(qs, [e], WS, lam)
            update_vector_q(qv, [e], lam)
            for s in qs.table:
                np.testing.assert_allclose(qv.block(s) @ lam, qs.row(s), atol=1e-12)


class TestEnvelopeUpdate:
    LAMBDAS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]

    def bandit_table(self, gamma=1.0):
        return QTableEnvelope(2, 2, self.LAMBDAS, alpha=1.0, gamma=gamma)

    def test_two_action_bandit_one_sweep(self):
        q = self.bandit_table()
        update_envelope_q(q, [exp(action=0, reward=(1, 0)), exp(action=1, reward=(0, 1))])
        policy = greedy_policy(q, self.LAMBDAS[0])
        best_action = policy.action(0)
        assert best_action == 0
        np.testing.assert_array_equal(q.block(0)[0, best_action], [1.0, 0.0])

    def test_gamma_zero_degenerates_to_the_reward(self):
        q = self.bandit_table(gamma=0.0)
        e = exp(action=0, reward=(2, 3), terminal=False, next_state=0)
        update_envelope_q(q, [e])
        np.testing.assert_array_equal(q.block(0)[:, 0], [[2.0, 3.0], [2.0, 3.0]])

    def test_weight_outside_the_set_is_an_error(self):
        q = self.bandit_table()
        with pytest.raises(ValueError, match="not in the envelope weight set"):
            greedy_policy(q, np.array([0.5, 0.5]))

    def test_tree_training_reaches_every_weights_optimum(self):
        env = tiny_tree()
        from paretoq import generate_weights_uniform

        lambdas = generate_weights_uniform(2, 3)
        q = QTableEnvelope(env.n_actions, 2, lambdas, alpha=1.0, gamma=1.0)
        optima = [v for _, v in enumerate_deterministic_policies(env, 1.0)]
        for _ in range(20):
            update_envelope_q(q, all_transition_experiences(env))
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


class TestEnvelopeWeights:
    def test_a_set_that_outgrows_the_blocks_is_rejected(self):
        q = QTableEnvelope(2, 2, [(1.0, 0.0)])
        q.block(0)
        with pytest.raises(AttributeError):
            q.weights.append(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="2 weights do not fit 1-row blocks"):
            q.weights = [(1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(ValueError, match="not in the envelope weight set"):
            greedy_policy(q, [0.0, 1.0])
        assert q.rows == [0]
        assert serialize_table(q).endswith("0|w0\t0\t0,0\n0|w0\t1\t0,0\n")

    def test_a_set_of_the_same_length_replaces_a_copy(self):
        w = np.array([0.0, 1.0])
        q = QTableEnvelope(2, 2, [(1.0, 0.0)])
        q.block(0)
        q.weights = [w]
        w[0] = 5.0
        assert type(q.weights) is tuple and q.weights[0].tolist() == [0.0, 1.0]

    def test_an_in_place_edit_raises_in_copies_too(self):
        """Else a table's ``rows`` would disagree with its weights once written and read."""
        q = QTableEnvelope(2, 2, [(1.0, 0.0), (0.0, 1.0)])
        for table in (q, copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            for array in (*table.weights, table.stacked):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
            assert table.rows == [0, 1] and table.stacked.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_before_any_block_the_set_may_change_length(self):
        q = QTableEnvelope(2, 2, [(1.0, 0.0)])
        q.weights = [(1.0, 0.0), (0.0, 1.0)]
        assert q.block(0).shape == (2, 2, 2)
        with pytest.raises(ValueError, match="non-empty weight set"):
            QTableEnvelope(2, 2, [])

    def test_rows_name_each_weights_first_match(self):
        q = QTableEnvelope(2, 2, [(1.0, 0.0)])
        q.weights = [(0.0, 1.0), (1.0, 0.0), (-0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]
        first = [0, 1, 0, 1, 4]
        assert q.rows == first
        q.block(0)
        for other in (deserialize_table(serialize_table(q)), copy.deepcopy(q)):
            assert other.rows == first == [other.weight_index(w) for w in other.weights]


class TestWeightIndex:
    def test_first_match_and_signed_zeros(self):
        q = QTableEnvelope(2, 2, [(1.0, 0.0), (-0.0, 1.0), (0.0, 1.0)])
        assert q.weight_index([0.0, 1.0]) == 1
        assert q.weight_index(np.array([1.0, -0.0])) == 0

    @pytest.mark.parametrize("lam", [[0.5, 0.5], [1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]], 1.0,
                                     [np.nan, 1.0]])
    def test_a_weight_not_in_the_set_is_an_error(self, lam):
        q = QTableEnvelope(2, 2, [(1.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="not in the envelope weight set"):
            q.weight_index(lam)


# weights per objective count; each pool holds a pair equal up to the sign of a zero
ENVELOPE_WEIGHTS = {
    2: [(1.0, 0.0), (0.0, 1.0), (0.3, 0.7), (-0.0, 1.0)],
    3: [(1.0, 0.0, 0.0), (0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3), (1.0, -0.0, 0.0)],
    4: [(0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 1.0, 0.0),
        (0.0, -0.0, 1.0, 0.0)],
}


@settings(max_examples=300, deadline=None)
@given(m=st.sampled_from([2, 3, 4]), n_actions=st.integers(1, 3),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=5),
       steps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                                st.booleans()), max_size=12),
       integral=st.booleans(), seed=st.integers(0, 2**32 - 1),
       alpha=st.sampled_from([0.1, 0.5, 1.0]), gamma=st.sampled_from([0.0, 0.9, 1.0]))
# two weights, two actions and one bootstrapped step: a score index decoded as
# (weight, action) instead of (action, weight) picks another bootstrap row
@example(m=2, n_actions=2, picks=[0, 1], steps=[(1, 0, 0, False)], integral=False, seed=0,
         alpha=0.1, gamma=0.9)
# a self-loop: the first weight's write reaches the second weight's bootstrap
@example(m=2, n_actions=2, picks=[0, 1], steps=[(0, 0, 0, False)], integral=False, seed=0,
         alpha=0.5, gamma=0.9)
def test_envelope_round_matches_one_step_per_weight(m, n_actions, picks, steps, integral, seed,
                                                    alpha, gamma):
    """The run's envelope update (every weight's row in one step) leaves the
    bytes of one step per weight in set order. Each step is ``(state,
    action, next state, terminal)`` over three states, so a third are
    self-loops; ``picks`` may repeat a weight or name a signed-zero twin.
    Blocks and rewards are integers in -2..2 (many ties) or reals at 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** int(rng.integers(-3, 4))

    def values(*shape):
        return rng.integers(-2, 3, size=shape).astype(float) if integral else (
            rng.normal(size=shape) * scale)

    weights = [np.array(ENVELOPE_WEIGHTS[m][i]) for i in picks]
    q = QTableEnvelope(n_actions, m, weights, alpha=alpha, gamma=gamma)
    for s in range(3):
        if rng.random() < 0.7:
            q.table[s] = values(len(weights), n_actions, m)
    oracle, whole = copy.deepcopy(q), copy.deepcopy(q)
    batch = [Experience(s, a % n_actions, values(m), ns, terminal, np.zeros(m))
             for s, a, ns, terminal in steps]
    for e in batch:
        update_envelope_q(q, [e])
        envelope_step_per_weight(oracle, e)
    update_envelope_q(whole, batch)
    for other in (oracle, whole):
        assert list(q.table) == list(other.table)   # rows made in the same order
        assert [b.tobytes() for b in q.table.values()] == \
            [b.tobytes() for b in other.table.values()]
        assert serialize_table(q) == serialize_table(other)


@settings(max_examples=300, deadline=None)
@given(n_rows=st.integers(1, 8), n_actions=st.integers(1, 4), m=st.integers(1, 6),
       n_weights=st.integers(1, 8), integral=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batched_envelope_scores_have_the_per_weight_bits(n_rows, n_actions, m, n_weights,
                                                          integral, seed):
    """Every entry of the batched ``einsum("lam,km->kal")`` has the bits of the
    per-weight ``einsum("lam,m->al")``, on which the split between the batched
    and the in-order envelope steps rests. Blocks are integers in -2..2 or
    reals at 1e-3 to 1e3; weights are simplex points, some with zero entries."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** int(rng.integers(-3, 4))
    shape = (n_rows, n_actions, m)
    nxt = (rng.integers(-2, 3, size=shape).astype(float) if integral
           else rng.normal(size=shape) * scale)
    weights = rng.dirichlet(np.ones(m), size=n_weights)
    weights[rng.random(size=weights.shape) < 0.2] = 0.0
    q = QTableEnvelope(n_actions, m, weights)
    for stacked in (weights, q.stacked):
        batched = np.einsum("lam,km->kal", nxt, stacked)
        assert batched.tobytes() == envelope_scores_per_weight(nxt, stacked).tobytes()


class TestEsrUpdate:
    Z = ReferencePoint(values=(10.5, -0.5))
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
            trace, _ = rollout(env, greedy_policy(q), explore, lambda t: eps)
            update_esr_mc(q, trace, self.TCH, lam)
        _, ret = rollout(env, greedy_policy(q), 0)
        np.testing.assert_allclose(ret, [2.0, -2.0])

    def test_only_an_interned_episode_keeps_its_plan(self):
        """Only an interned episode keeps a plan; a pushed list is stored as
        a plain copy, planned on every call like any other sequence."""
        q, g = QTableEsr(2, 2, alpha=1.0), CountingScalarization("weighted-sum")
        buf = ExperienceBuffer(capacity=10).push([exp(action=0, reward=(2, -2))])
        stored = buf.complete_episodes()[0]
        update_esr_mc(q, stored, g, (0.5, 0.5))
        stored[0].action = 1                    # not interned: planned on every call
        update_esr_mc(q, stored, g, (0.5, 0.5))
        assert type(stored) is list and q.visits[(0, (0.0, 0.0))] == [1, 1]
        interned = _Episode([exp(action=1, reward=(2, -2))])
        assert buf.push(interned).complete_episodes()[-1] is interned
        assert interned.replay is None
        update_esr_mc(q, interned, g, (0.5, 0.5))
        plan = interned.replay
        assert plan is not None
        interned[0].action = 0                  # the kept plan replays, not the steps
        update_esr_mc(q, interned, g, (0.5, 0.5))
        assert interned.replay is plan and q.visits[(0, (0.0, 0.0))] == [1, 3]
        assert g.calls == 4                     # no memo: every call scores

    def test_fifo_cuts_leave_plain_fragments_outside_complete_episodes(self):
        buf = ExperienceBuffer(capacity=3).push(episode(0, 2, (1.0, 0.0)))
        buf.push(episode(10, 2, (0.0, 1.0)))
        head = buf._episodes[0]
        assert [e.state for e in head] == [1] and type(head) is list
        assert all(ep is not head for ep in buf.complete_episodes())

    def test_each_interned_episode_plans_from_its_own_bytes(self):
        """Each interned episode plans once from its own bytes: equal episodes
        build equal plans, and a -0.0 keeps its sign in the key and return."""
        q = QTableEsr(2, 2, alpha=1.0)
        episodes = [_Episode([exp(action=1, reward=(-0.0, -2), accrued=(z, 0.0))])
                    for z in (0.0, 0.0, -0.0)]
        for ep in episodes:
            update_esr_mc(q, ep, WS, (0.5, 0.5), {})
        first, same, negative = (ep.replay for ep in episodes)
        assert same == first and same is not first
        assert negative[1] == np.array([-0.0, -2.0]).tobytes() != first[1]
        assert math.copysign(1.0, negative[0][0][0][1][0]) == -1.0
        assert serialize_table(q).count("\t") == 6   # one key row: 0.0 == -0.0 as a key


ESR_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5]          # accrued and reward components
ESR_REWARDS = ESR_VALUES + [1e-300]


def visit_counts(q):
    """Visit counts per key, in creation order, as Python ints."""
    return [(key, [int(c) for c in counts]) for key, counts in q.visits.items()]


@settings(max_examples=300, deadline=None)
@given(n_actions=st.integers(1, 3),
       pool=st.lists(st.tuples(
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.sampled_from(ESR_VALUES), st.sampled_from(ESR_VALUES)),
                    min_size=1, max_size=3),
           st.sampled_from(ESR_REWARDS), st.sampled_from(ESR_REWARDS), st.booleans()),
           min_size=1, max_size=4),
       replays=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 11)), max_size=16),
       rows=st.dictionaries(st.tuples(st.integers(0, 2), st.sampled_from(ESR_VALUES),
                                      st.sampled_from(ESR_VALUES)),
                            st.lists(st.sampled_from(TABLE_VALUES), min_size=3, max_size=3),
                            max_size=4),
       kind=st.sampled_from(["weighted-sum", "tchebycheff"]),
       lam=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.3, 0.7)]),
       reference=st.sampled_from([(2.0, 2.0), (0.0, -0.0)]),
       alpha=st.sampled_from([0.1, 0.2, 1.0]))
def test_planned_esr_update_matches_the_oracle(n_actions, pool, replays, rows, kind, lam,
                                               reference, alpha):
    """Plans, interning and one score memo per table over a whole replay
    sequence leave the bits the oracle step leaves. Each replay is ``(table,
    episode)``; two tables share the plans of interned episodes, as
    subproblems do. Each pool entry is ``(steps, r0, r1, interned)``: steps
    ``(state, action, accrued0, accrued1)``, the last step's reward ``(r0,
    r1)``, and whether a buffer stores the episode as interned. A
    fresh copy of every entry joins the pool, and one with the sign of every
    accrued zero flipped, so equal episodes and equal keys of unequal bytes
    meet."""
    def build(steps, r0, r1, flip):
        return [Experience(s, a % n_actions, np.array((r0, r1) if t == len(steps) - 1
                                                      else (0.0, 0.0)),
                           s, t == len(steps) - 1,
                           np.array([-c if flip and c == 0 else c for c in (c0, c1)]))
                for t, (s, a, c0, c1) in enumerate(steps)]

    buf = ExperienceBuffer(capacity=1000)
    episodes = []
    for flip, (steps, r0, r1, interned) in [(flip, entry) for flip in (False, False, True)
                                            for entry in pool]:
        if interned:
            buf.push(_Episode(build(steps, r0, r1, flip)))
            episodes.append(buf.complete_episodes()[-1])
        else:
            episodes.append(build(steps, r0, r1, flip))
    ref = ReferencePoint(values=reference)
    g = CountingScalarization(kind, ref)
    tables = []
    for cls in [QTableEsr] * 4 + [NumpyRowEsr] * 2:
        q = cls(n_actions, 2, alpha=alpha)
        for (s, c0, c1), values in rows.items():
            q.row(s, (c0, c1))[:] = values[:n_actions]
            q.visits[accrued_key(s, (c0, c1))][:] = [1] * n_actions
        tables.append(q)
    planned, bare, oracle = tables[:2], tables[2:4], tables[4:]
    scores = ({}, {})
    for k, i in replays:
        ep = episodes[i % len(episodes)]
        update_esr_mc(planned[k], ep, g, lam, scores[k])
        update_esr_mc(bare[k], ep, Scalarization(kind, ref), lam)
        esr_mc_step(oracle[k], ep, Scalarization(kind, ref), lam)
    for q in zip(planned, bare, oracle):
        assert row_bits(q[0]) == row_bits(q[1]) == row_bits(q[2])
        assert visit_counts(q[0]) == visit_counts(q[1]) == visit_counts(q[2])
        assert serialize_table(q[0]) == serialize_table(q[1]) == serialize_table(q[2])
        assert all(type(v) is float for row in q[0].table.values() for v in row)
        assert all(type(c) is int for row in q[0].table.values() for c in row.visits)
    returns = {(k, (ep[-1].accrued + ep[-1].reward).tobytes())
               for k, ep in ((k, episodes[i % len(episodes)]) for k, i in replays)}
    assert g.calls == len(returns)


ESR_OPS = st.one_of(
    st.tuples(st.just("update"),
              st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.sampled_from([0.0, 1.0])),
                       min_size=1, max_size=3),
              st.sampled_from(ESR_REWARDS), st.sampled_from(ESR_REWARDS)),
    st.tuples(st.just("hand-out"), st.integers(0, 1), st.sampled_from([0.0, 1.0]),
              st.lists(st.sampled_from(TABLE_VALUES), min_size=3, max_size=3)),
    st.tuples(st.just("deserialize")), st.tuples(st.just("copy")))


@settings(max_examples=300, deadline=None)
@given(n_actions=st.integers(1, 3), ops=st.lists(ESR_OPS, max_size=20),
       kind=st.sampled_from(["weighted-sum", "tchebycheff"]),
       lam=st.sampled_from([(0.5, 0.5), (0.0, 1.0), (0.3, 0.7)]),
       reference=st.sampled_from([(2.0, 2.0), (-3.0, 0.5)]),
       alpha=st.sampled_from([0.1, 1.0]))
def test_esr_rows_keep_their_greedy_action_and_count_its_changes(n_actions, ops, kind, lam,
                                                                  reference, alpha):
    """After every update, row hand-out, deserialization and deep copy, each
    row's kept action is unknown or the greedy action of its values; an update
    leaves every row it wrote known, and whenever an update or a hand-out
    changes some row's greedy action (a new row's from 0), ``flips`` moves.
    An update op is an episode of ``(state, action, accrued0)`` steps and its
    last reward; a hand-out op writes values to the row of ``(state, (c, 0))``.
    Ties occur, and so do rows whose values fall."""
    g = Scalarization(kind, ReferencePoint(values=reference))
    q = QTableEsr(n_actions, 2, alpha=alpha)

    def actions(q):
        return {key: greedy_action(list(row)) for key, row in q.table.items()}

    for op, *args in ops:
        before, flips = actions(q), q.flips
        if op == "update":
            steps, r0, r1 = args
            last = len(steps) - 1
            episode = [Experience(s, a % n_actions, np.array((r0, r1) if t == last else (0.0, 0.0)),
                                  s, t == last, np.array([c, 0.0]))
                       for t, (s, a, c) in enumerate(steps)]
            update_esr_mc(q, episode, g, lam)
            assert all(q.table[accrued_key(e.state, e.accrued)].greedy is not None
                       for e in episode)
        elif op == "hand-out":
            s, c, values = args
            q.row(s, (c, 0.0))[:] = values[:n_actions]
        elif op == "deserialize":
            q = deserialize_table(serialize_table(q))
            assert all(row.greedy is None for row in q.table.values())
        else:
            copied = copy.deepcopy(q)
            assert copied.flips == q.flips
            assert [row.greedy for row in copied.table.values()] == \
                   [row.greedy for row in q.table.values()]
            q = copied
        for row in q.table.values():
            assert type(row) is _EsrRow
            assert row.greedy is None or row.greedy == greedy_action(list(row))
        after = actions(q)
        if op in ("update", "hand-out") and any(a != before.get(k, 0) for k, a in after.items()):
            assert q.flips > flips


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
        update_scalarized_q(src, [exp(action=0, reward=(1, 0))], WS, (1, 0))
        dst = copy.deepcopy(src)
        update_scalarized_q(dst, [exp(action=1, reward=(0, 1))], WS, (1, 0))
        assert src.row(0)[1] == 0.0
        assert dst.row(0)[0] == 1.0

    def test_copy_of_a_zero_table_is_zero(self):
        src = QTableVector(2, 2)
        src.block(0)
        dst = copy.deepcopy(src)
        np.testing.assert_array_equal(dst.block(0), np.zeros((2, 2)))

    def test_transfer_preserves_the_greedy_policy(self):
        env = tiny_tree()
        src = QTableScalar(2, alpha=0.5)
        sweep(src, env, lambda q_, e: update_scalarized_q(q_, [e], WS, (0.3, 0.7)), 100)
        dst = copy.deepcopy(src)
        for s in range(env.n_states):
            assert greedy_policy(src).action(s) == greedy_policy(dst).action(s)

    def test_envelope_copy_is_independent(self):
        env = tiny_tree()
        lambdas = [np.array([1.0, 0.0]), np.array([0.3, 0.7])]
        src = QTableEnvelope(2, 2, lambdas, alpha=0.5)
        sweep(src, env, lambda q_, e: update_envelope_q(q_, [e]), 10)
        before = serialize_table(src)
        dst = copy.deepcopy(src)
        for lam in lambdas:
            for s in range(env.n_states):
                assert greedy_policy(dst, lam).action(s) == greedy_policy(src, lam).action(s)
        sweep(dst, env, lambda q_, e: envelope_row_step(q_, e, lambdas[0], 0), 10)
        dst.weights = [(0.5, 0.5), lambdas[1]]
        assert serialize_table(dst) != before
        assert serialize_table(src) == before
        np.testing.assert_array_equal(src.weights[0], [1.0, 0.0])

    def test_esr_copy_is_independent(self):
        env = dst_corridor()
        lam = np.array([0.2, 0.8])
        src = QTableEsr(env.n_actions, 2, alpha=0.5)
        for seed in range(20):
            trace, _ = rollout(env, greedy_policy(src), np.random.default_rng(seed), lambda t: 0.5)
            update_esr_mc(src, trace, WS, lam)
        before = serialize_table(src)
        dst = copy.deepcopy(src)
        for key in src.table:
            state, accrued = key
            assert greedy_policy(dst).action(state, accrued) == \
                greedy_policy(src).action(state, accrued)
        trace, _ = rollout(env, greedy_policy(dst), 0)
        update_esr_mc(dst, trace, WS, (0.9, 0.1))
        assert serialize_table(dst) != before
        assert serialize_table(src) == before


def v1_scalar():
    q = QTableScalar(2, alpha=0.25, gamma=0.9)
    q.row(3)[:] = [1.0, 0.0]
    q.row(0)[:] = [0.1, -2.5]
    return q


def v1_vector():
    q = QTableVector(2, 2, alpha=0.5)
    q.block(1)[:] = [[1.0, -1.0], [0.5, 0.25]]
    return q


def v1_envelope():
    q = QTableEnvelope(2, 2, [np.array([1.0, 0.0]), np.array([0.3, 0.7])],
                       alpha=1.0, gamma=0.95)
    q.block(0)[1, 0] = [2.0, -3.0]
    return q


def v1_esr():
    q = QTableEsr(2, 2, alpha=0.5)
    accrued = (0.1 + 0.2, -1.0)  # needs all 17 significant digits
    q.row(2, accrued)[:] = [0.75, -1.5]
    q.visits[accrued_key(2, accrued)][:] = [3, 0]
    q.row(0, (0.0, 0.0))[1] = 2.0
    q.visits[accrued_key(0, (0.0, 0.0))][1] = 1
    return q


V1_TEXT = {
    v1_scalar: (
        "paretoq-qtable-v1 kind=scalar\n"
        "actions=2 alpha=0.25 gamma=0.90000000000000002\n"
        "0\t0\t0.10000000000000001\n"
        "0\t1\t-2.5\n"
        "3\t0\t1\n"
        "3\t1\t0\n"),
    v1_vector: (
        "paretoq-qtable-v1 kind=vector\n"
        "actions=2 alpha=0.5 gamma=1\n"
        "objectives=2\n"
        "1\t0\t1,-1\n"
        "1\t1\t0.5,0.25\n"),
    v1_envelope: (
        "paretoq-qtable-v1 kind=envelope\n"
        "actions=2 alpha=1 gamma=0.94999999999999996\n"
        "objectives=2\n"
        "weights=1,0;0.29999999999999999,0.69999999999999996\n"
        "0|w0\t0\t0,0\n"
        "0|w0\t1\t0,0\n"
        "0|w1\t0\t2,-3\n"
        "0|w1\t1\t0,0\n"),
    v1_esr: (
        "paretoq-qtable-v1 kind=esr\n"
        "actions=2 alpha=0.5 gamma=1\n"
        "objectives=2\n"
        "0|c0,0\t0\t0\t0\n"
        "0|c0,0\t1\t2\t1\n"
        "2|c0.30000000000000004,-1\t0\t0.75\t3\n"
        "2|c0.30000000000000004,-1\t1\t-1.5\t0\n"),
}


class TestSerialization:
    @pytest.mark.parametrize("make", list(V1_TEXT), ids=lambda make: make.__name__)
    def test_v1_text_is_pinned(self, make):
        expected = V1_TEXT[make]
        assert serialize_table(make()) == expected
        back = deserialize_table(expected)
        assert type(back) is type(make())
        assert serialize_table(back) == expected

    @pytest.mark.parametrize("make, old, new, match", [
        pytest.param(v1_scalar, V1_TEXT[v1_scalar], "",
                     r"^line 1: expected a 'paretoq-qtable-v1' header, got ''", id="empty-text"),
        pytest.param(v1_scalar, "paretoq-qtable-v1 kind=scalar\n", "",
                     r"^line 1: expected a 'paretoq-qtable-v1' header", id="no-header"),
        pytest.param(v1_scalar, "-v1", "-v2",
                     r"^line 1: expected a 'paretoq-qtable-v1' header, got '.*-v2", id="v2-header"),
        pytest.param(v1_scalar, " kind=scalar", "",
                     r"^lines 1-2: the table header has no kind= field", id="no-kind"),
        pytest.param(v1_scalar, "actions=2 ", "",
                     r"^lines 1-2: the table header has no actions= field", id="no-actions"),
        pytest.param(v1_scalar, "alpha=0.25 ", "",
                     r"^lines 1-2: the table header has no alpha= field", id="no-alpha"),
        pytest.param(v1_scalar, " gamma=0.90000000000000002", "",
                     r"^lines 1-2: the table header has no gamma= field", id="no-gamma"),
        pytest.param(v1_scalar, "kind=scalar", "kind=dense",
                     r"^lines 1-2: unknown table kind 'dense'", id="unknown-kind"),
        pytest.param(v1_vector, "objectives=2\n", "",
                     r"^lines 1-2: the table header has no objectives= field", id="no-objectives"),
        pytest.param(v1_scalar, "0\t1\t-2.5", "0\t-1\t-2.5",
                     r"^line 4: action -1 outside \[0, 2\)", id="action-minus-one"),
        pytest.param(v1_scalar, "3\t1\t0", "3\t2\t0",
                     r"^line 6: action 2 outside \[0, 2\)", id="action-too-large"),
        pytest.param(v1_scalar, "0\t1\t-2.5", "0\t1",
                     r"^line 4: not enough values to unpack \(expected 3, got 2\)",
                     id="two-fields"),
        pytest.param(v1_scalar, "0\t1\t-2.5", "0\t1\t-2.5,1",
                     r"^line 4: expected 1 values, got 2", id="scalar-two-values"),
        pytest.param(v1_vector, "1\t1\t0.5,0.25", "1\t1\t0.5,0.25,3",
                     r"^line 5: expected 2 values, got 3", id="vector-three-values"),
        pytest.param(v1_envelope, "0,0\n0|w1\t0", "0\n0|w1\t0",
                     r"^line 6: expected 2 values, got 1", id="envelope-one-value"),
        pytest.param(v1_envelope, "0|w1\t1", "0|w2\t1",
                     r"^line 8: weight row 2 outside \[0, 2\)", id="envelope-weight-row"),
        pytest.param(v1_esr, "2\t1\n", "2\n",
                     r"^line 5: not enough values to unpack \(expected 4, got 3\)",
                     id="esr-no-visits"),
        pytest.param(v1_esr, "0|c0,0\t0", "0|c5\t0",
                     r"^line 4: expected 2 accrued values, got 1 in '0\|c5\\t0", id="esr-accrued-width"),
        pytest.param(v1_envelope, "weights=1,0;0.29999999999999999,0.69999999999999996",
                     "weights=1,0,0;0.5",
                     r"^lines 1-4: weight 1,0,0 has 3 values, expected 2", id="envelope-weight-width"),
        pytest.param(v1_scalar, "0\t0\t0.10000000000000001", "0\t0\tnan",
                     r"^line 3: non-finite value in 'nan'", id="scalar-nan"),
        pytest.param(v1_scalar, "0\t1\t-2.5", "0\t1\t-inf",
                     r"^line 4: non-finite value in '-inf'", id="scalar-minus-inf"),
        pytest.param(v1_vector, "1\t1\t0.5,0.25", "1\t1\t0.5,inf",
                     r"^line 5: non-finite value in '0.5,inf'", id="vector-inf"),
        pytest.param(v1_esr, "0|c0,0\t1\t2\t1", "0|c0,0\t1\tnan\t1",
                     r"^line 5: non-finite value in 'nan'", id="esr-nan"),
        pytest.param(v1_esr, "0|c0,0\t0", "0|cnan,0\t0",
                     r"^line 4: non-finite value in 'nan,0'", id="esr-accrued-nan"),
        pytest.param(v1_scalar, "gamma=0.90000000000000002", "gamma=nan",
                     r"^lines 1-2: gamma must be in \[0, 1\], got nan", id="gamma-nan"),
        pytest.param(v1_scalar, "gamma=0.90000000000000002", "gamma=7",
                     r"^lines 1-2: gamma must be in \[0, 1\], got 7.0", id="gamma-seven"),
        pytest.param(v1_envelope, "weights=1,0;", "weights=inf,0;",
                     r"^lines 1-4: envelope weights \[\[inf, 0.0\], .* have non-finite entries",
                     id="envelope-weight-inf"),
    ])
    def test_text_it_cannot_honour_is_rejected(self, make, old, new, match):
        text = V1_TEXT[make]
        assert old in text
        with pytest.raises(ValueError, match=match):
            deserialize_table(text.replace(old, new, 1))

    def test_roundtrip_every_kind(self):
        env = tiny_tree()
        lam = np.array([0.5, 0.5])
        scalar = QTableScalar(2, alpha=0.25, gamma=0.9)
        sweep(scalar, env, lambda q_, e: update_scalarized_q(q_, [e], WS, lam), 3)
        vector = QTableVector(2, 2, alpha=0.25, gamma=0.9)
        sweep(vector, env, lambda q_, e: update_vector_q(q_, [e], lam), 3)
        envelope = QTableEnvelope(2, 2, [np.array([1.0, 0.0]), lam], alpha=1.0)
        sweep(envelope, env, lambda q_, e: update_envelope_q(q_, [e]), 2)
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

    @pytest.mark.parametrize("make", [v1_scalar, v1_esr])
    def test_read_back_rows_are_floats_and_train_alike(self, make):
        q = make()
        back = deserialize_table(serialize_table(q))
        assert serialize_table(back) == serialize_table(q)
        for row in back.table.values():
            assert type(row) is type(q.table[next(iter(q.table))])
            assert all(type(v) is float for v in row)
            assert all(type(c) is int for c in getattr(row, "visits", []))
        episode = [exp(state=0, action=1, reward=(0.5, -1), next_state=3, terminal=False),
                   exp(state=3, action=0, reward=(2.0, 0), accrued=(0.5, -1))]
        for table in (q, back):
            if table.kind == "esr":
                update_esr_mc(table, episode, WS, (0.3, 0.7))
            else:
                update_scalarized_q(table, episode, WS, (0.3, 0.7))
        assert sorted(row_bits(back)) == sorted(row_bits(q))   # read back in key order
        assert serialize_table(back) == serialize_table(q)

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
            assert back.visits[key] == q.visits[key]
            assert all(type(c) is int for c in back.visits[key])
        # the deserialized table answers lookups by array, as training does
        accrued = np.array([0.1, -1.0]) + [0.2, 0.0]
        assert back.row(2, accrued)[1] == q.table[(2, (0.1 + 0.2, -1.0))][1]

"""Greedy-policy evaluation and the Tchebycheff score against their oracles.

``evaluate_policy`` averages the discounted returns of greedy rollouts; here
it must reproduce the mean over recorded rollouts exactly, consume the same
random draws, and on deterministic envs agree with exact dynamic programming.
``scalarize_tch`` computes Tchebycheff in Python floats and must repeat the
numpy formula bit for bit, and raise on a term that is not finite. The worst
return that bounds every evaluation (and so the hypervolume reference) must
equal the minimum over enumerated trajectories. ``evaluate_population``
reads a step tree's terminal-node values, and reuses an ESR table's value on
the tree it was walked on; under any table edit, and on a run state under
adaptation, transfer and replay, its result must be a fresh walk's, bit for
bit. ``rollout``
explores for the run, the demos and the tests; its draws must repeat, bit
for bit, the episode loop and the epsilon-greedy policy it replaced.
"""

import copy
import struct

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from paretoq import (
    Momdp,
    QTableEnvelope,
    QTableEsr,
    QTableScalar,
    QTableVector,
    ReferencePoint,
    Scalarization,
    TabularPolicy,
    evaluate_policy,
    evaluate_population,
    greedy_policy,
    rollout,
    scalarize_tch,
    update_esr_mc,
)

from paretoq import momdp, orchestrator
from paretoq.decomposition import lattice_divisions
from paretoq.momdp import StepTree, accrued_key, register_env, tiny_tree
from paretoq.orchestrator import (RunConfig, Subproblem, _adapt, _archive_population,
                                  _improve_all, _worst_return, cooperate, initialize)
from paretoq.rng import DrawStream

from oracles import (EpsilonGreedyPolicy, deterministic_policies, evaluate_policy_on_arrays,
                     rollout_discounted_mean, rollout_with_policy_draws, sample_episode,
                     tchebycheff_numpy, worst_return_by_enumeration)

WS = Scalarization("weighted-sum")


@st.composite
def small_momdps(draw, deterministic=None, real=False):
    """A random MOMDP with up to 4 states, 3 actions, 3 objectives; rewards are
    integers in -3..3, or reals (``real``) of magnitude up to 1e3."""
    if deterministic is None:
        deterministic = draw(st.booleans())
    n_states = draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 5))
    entry = st.floats(-1e3, 1e3, allow_subnormal=False) if real else st.integers(-3, 3)
    reward = st.lists(entry, min_size=m, max_size=m).map(lambda r: np.array(r, dtype=float))
    state = st.integers(0, n_states - 1)
    transitions = []
    for _ in range(n_states):
        row = []
        for _ in range(n_actions):
            outcomes = 1 if deterministic else draw(st.integers(1, 2))
            if outcomes == 1:
                row.append([(1.0, draw(state), draw(reward), draw(st.booleans()))])
            else:
                row.append([(0.25, draw(state), draw(reward), draw(st.booleans())),
                            (0.75, draw(state), draw(reward), draw(st.booleans()))])
        transitions.append(row)
    mu0 = np.zeros(n_states)
    if deterministic or n_states == 1:
        mu0[draw(state)] = 1.0
    else:
        mu0[0], mu0[-1] = 0.5, 0.5
    return Momdp(n_states, n_actions, m, transitions, mu0, max_episode_steps=horizon)


def _scalar_policy(env, seed):
    """Random preferences for some states; the rest fall back to action 0."""
    rng = np.random.default_rng(seed)
    q = QTableScalar(env.n_actions)
    for s in range(env.n_states):
        if rng.random() < 0.7:
            q.row(s)[:] = rng.integers(-2, 3, size=env.n_actions)
    return greedy_policy(q)


def _esr_policy(env, seed):
    """Greedy view of an accrued-reward table trained on a few episodes."""
    rng = np.random.default_rng(seed)
    q = QTableEsr(env.n_actions, env.n_objectives, alpha=0.5)
    lam = np.full(env.n_objectives, 1.0 / env.n_objectives)
    explore = greedy_policy(q)
    for _ in range(5):
        trace, _ = rollout(env, explore, rng, lambda t: 0.5)
        update_esr_mc(q, trace, WS, lam)
    policy = greedy_policy(q)
    assert policy.augmented
    return policy


def _policy(env, seed, augmented):
    return (_esr_policy if augmented else _scalar_policy)(env, seed)


@settings(max_examples=60, deadline=None)
@given(env=small_momdps(), policy_seed=st.integers(0, 2**16), augmented=st.booleans(),
       episodes=st.integers(1, 4), gamma=st.sampled_from([1.0, 0.9, 0.5]),
       rng_seed=st.integers(0, 2**16))
def test_evaluation_repeats_recorded_rollouts_and_their_draws(env, policy_seed, augmented,
                                                               episodes, gamma, rng_seed):
    policy = _policy(env, policy_seed, augmented)
    rng = np.random.default_rng(rng_seed)
    oracle_rng = np.random.default_rng(rng_seed)
    value = evaluate_policy(env, policy, episodes, gamma, rng)
    expected = rollout_discounted_mean(env, policy, episodes, gamma, oracle_rng)
    np.testing.assert_array_equal(value, expected)
    # the draw pattern is frozen: the walk leaves the stream where rollouts do
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(env=small_momdps(deterministic=False, real=True), policy_seed=st.integers(0, 2**16),
       augmented=st.booleans(), episodes=st.integers(1, 5),
       gamma=st.sampled_from([0.99, 0.9, 0.5, 0.1]), rng_seed=st.integers(0, 2**16))
def test_evaluation_has_the_bytes_of_the_array_loop(env, policy_seed, augmented, episodes,
                                                    gamma, rng_seed):
    """Summing on Python floats returns the bytes of summing into numpy arrays
    and leaves the generator where it did."""
    policy = _policy(env, policy_seed, augmented)
    rng, oracle_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    value = evaluate_policy(env, policy, episodes, gamma, rng)
    expected = evaluate_policy_on_arrays(env, policy, episodes, gamma, oracle_rng)
    assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_evaluation_repeats_recorded_rollouts_on_a_fixed_stochastic_env():
    # two start states, one branching action per state, rewards that make
    # the accrued reward (and so the ESR policy's keys) differ by branch
    r = lambda *v: np.array(v, dtype=float)  # noqa: E731
    transitions = [
        [[(0.25, 1, r(1, 0), False), (0.75, 2, r(0, 2), False)], [(1.0, 2, r(-1, 1), False)]],
        [[(1.0, 2, r(2, -1), False)], [(0.5, 0, r(0, 1), False), (0.5, 2, r(1, 1), True)]],
        [[(1.0, 2, r(0, 0), True)], [(0.6, 1, r(3, 0), False), (0.4, 2, r(0, 3), True)]],
    ]
    env = Momdp(3, 2, 2, transitions, [0.5, 0.0, 0.5], max_episode_steps=6)
    assert not env.deterministic
    policy = _esr_policy(env, 11)
    rng, oracle_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    value = evaluate_policy(env, policy, 25, 0.9, rng)
    expected = rollout_discounted_mean(env, policy, 25, 0.9, oracle_rng)
    np.testing.assert_array_equal(value, expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# --- exploring rollouts ----------------------------------------------------------

SCHEDULES = {"0": lambda t: 0.0, "0.3": lambda t: 0.3, "1": lambda t: 1.0,
             "decaying": lambda t: max(0.05, 1.0 - t / 4)}


def _trace_bits(trace):
    return [(e.state, e.action, e.reward.tobytes(), e.next_state, e.terminal, e.accrued.tobytes())
            for e in trace]


@settings(max_examples=80, deadline=None)
@given(env=small_momdps(), policy_seed=st.integers(0, 2**16), augmented=st.booleans(),
       schedule=st.sampled_from(sorted(SCHEDULES)), step0=st.integers(0, 6),
       two_generators=st.booleans(), seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
def test_exploring_rollout_repeats_the_run_episode_loop(env, policy_seed, augmented, schedule,
                                                        step0, two_generators, seeds):
    policy, epsilon = _policy(env, policy_seed, augmented), SCHEDULES[schedule]

    def generators():
        rng_env = np.random.default_rng(seeds[0])
        return rng_env, np.random.default_rng(seeds[1]) if two_generators else rng_env

    (rng_env, rng_explore), (oracle_env, oracle_explore) = generators(), generators()
    for _ in range(3):
        trace, ret = rollout(env, policy, rng_env, lambda t: epsilon(step0 + t),
                             rng_explore if two_generators else None)
        expected = sample_episode(env, policy, epsilon, step0, oracle_env, oracle_explore)
        assert _trace_bits(trace) == _trace_bits(expected)
        assert ret.tobytes() == (expected[-1].accrued + expected[-1].reward).tobytes()
    assert rng_env.bit_generator.state == oracle_env.bit_generator.state
    assert rng_explore.bit_generator.state == oracle_explore.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(env=small_momdps(), policy_seed=st.integers(0, 2**16), augmented=st.booleans(),
       epsilon=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16))
def test_exploring_rollout_repeats_the_epsilon_greedy_policy(env, policy_seed, augmented,
                                                             epsilon, seed):
    policy = _policy(env, policy_seed, augmented)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        trace, ret = rollout(env, policy, rng, lambda t: epsilon)
        expected, expected_ret = rollout_with_policy_draws(
            env, EpsilonGreedyPolicy(policy, epsilon), oracle_rng)
        assert _trace_bits(trace) == _trace_bits(expected)
        assert ret.tobytes() == expected_ret.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(env=small_momdps(), policy_seed=st.integers(0, 2**16), augmented=st.booleans(),
       seed=st.integers(0, 2**16))
def test_greedy_rollout_draws_no_coin(env, policy_seed, augmented, seed):
    policy = _policy(env, policy_seed, augmented)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    explore = np.random.default_rng(seed + 1)
    untouched = explore.bit_generator.state
    trace, _ = rollout(env, policy, rng, explore=explore)
    # a coin that never explores, drawn from a generator of its own
    expected = sample_episode(env, policy, SCHEDULES["0"], 0, oracle_rng, np.random.default_rng(0))
    assert _trace_bits(trace) == _trace_bits(expected)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert explore.bit_generator.state == untouched


@settings(max_examples=60, deadline=None)
@given(env=small_momdps(), policy_seed=st.integers(0, 2**16), augmented=st.booleans(),
       schedule=st.sampled_from(sorted(SCHEDULES)), episodes=st.integers(1, 4),
       seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
def test_draw_streams_are_drawn_from_as_given(env, policy_seed, augmented, schedule, episodes,
                                              seeds):
    """``rollout`` and ``evaluate_policy`` draw from a given :class:`DrawStream`
    itself, with the bytes and draws of a numpy ``Generator`` on the same PCG64."""
    policy, epsilon = _policy(env, policy_seed, augmented), SCHEDULES[schedule]
    streams = [DrawStream(np.random.PCG64(seed)) for seed in seeds]
    generators = [np.random.default_rng(seed) for seed in seeds]
    for _ in range(2):
        trace, ret = rollout(env, policy, streams[0], epsilon, streams[1])
        expected, expected_ret = rollout(env, policy, generators[0], epsilon, generators[1])
        assert _trace_bits(trace) == _trace_bits(expected)
        assert ret.tobytes() == expected_ret.tobytes()
    value = evaluate_policy(env, policy, episodes, 0.9, streams[0])
    assert value.tobytes() == evaluate_policy(env, policy, episodes, 0.9, generators[0]).tobytes()
    assert [s.random() for s in streams] == [g.random() for g in generators]


def test_policies_have_no_exploration_settings():
    policy = greedy_policy(QTableScalar(2))
    for name, value in (("kind", "epsilon-greedy"), ("epsilon", 0.5)):
        with pytest.raises(AttributeError):
            setattr(policy, name, value)


@settings(max_examples=40, deadline=None)
@given(env=small_momdps(deterministic=True), gamma=st.sampled_from([1.0, 0.9, 0.0]))
def test_evaluation_matches_dynamic_programming_on_deterministic_envs(env, gamma):
    for policy, exact in deterministic_policies(env, gamma):
        value = evaluate_policy(env, policy, 3, gamma, 0)
        np.testing.assert_allclose(value, exact, rtol=0, atol=1e-12)


def test_a_deterministic_env_walks_one_episode_for_any_count(monkeypatch):
    """All episodes coincide, so one is walked: its return, with no mean that
    could round (three returns of 0.1 average to 0.10000000000000002)."""
    r = lambda *v: np.array(v, dtype=float)  # noqa: E731
    env = Momdp(1, 1, 2, [[[(1.0, 0, r(0.1, 0.7), True)]]], [1.0], max_episode_steps=1)
    walked, walk = [], momdp.rollout
    monkeypatch.setattr(momdp, "rollout", lambda *a, **k: walked.append(1) or walk(*a, **k))
    value = evaluate_policy(env, greedy_policy(QTableScalar(1)), 3, 1.0, 0)
    assert walked == [1] and value.tolist() == [0.1, 0.7]


@settings(max_examples=60, deadline=None)
@given(env=small_momdps(), gamma=st.sampled_from([1.0, 0.5]), policy_seed=st.integers(0, 2**16))
def test_worst_return_is_the_least_over_all_trajectories(env, gamma, policy_seed):
    worst = _worst_return(env, gamma)
    assert worst == worst_return_by_enumeration(env, gamma).tolist()  # exact: halves of integers
    value = evaluate_policy(env, _scalar_policy(env, policy_seed), 3, gamma, 0)
    assert np.all(value >= worst)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("lam", [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.25, 0.75)])
def test_a_tchebycheff_score_at_the_sentinel_raises_and_after_an_update_is_bitwise(lam):
    # against the -inf sentinel a zero weight makes a NaN product, any other an inf
    z = ReferencePoint(m=2)
    g = Scalarization("tchebycheff", z)
    f = np.array([3.0, -2.0])
    for score in (lambda: scalarize_tch(f, lam, z), lambda: g.score(f, lam)):
        with pytest.raises(ValueError, match="not all finite"):
            score()
    z.update([f])
    expected = tchebycheff_numpy(f, lam, z.values)
    assert _bits(scalarize_tch(f, lam, z)) == _bits(expected)
    assert _bits(g.score(f, lam)) == _bits(-expected)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 4))
def test_scalarize_tch_is_bitwise_the_numpy_formula(data, m):
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    f = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
    z = np.array(data.draw(st.lists(finite, min_size=m, max_size=m)))
    raw = np.array(data.draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)))
    lam = raw / raw.sum() if raw.sum() > 0 else np.full(m, 1.0 / m)
    assert _bits(scalarize_tch(f, lam, z)) == _bits(tchebycheff_numpy(f, lam, z))


def test_scalarize_tch_rejects_vectors_that_are_not_1d():
    with pytest.raises(ValueError, match="1-D"):
        scalarize_tch([[1.0, 2.0]], [[0.5, 0.5]], [[3.0, 3.0]])


def test_tchebycheff_score_keeps_its_length_check():
    g = Scalarization("tchebycheff", ReferencePoint(values=(1.0, 1.0)))
    with pytest.raises(ValueError, match="length mismatch"):
        g.score((1.0, 2.0, 3.0), (0.5, 0.5))


def test_policy_without_a_default_row_still_reports_the_gap():
    policy = TabularPolicy(preferences={0: np.array([1.0, 0.0])})
    env = Momdp(2, 2, 1, [[[(1.0, 1, np.zeros(1), False)]] * 2,
                          [[(1.0, 1, np.zeros(1), True)]] * 2], [1.0, 0.0], 3)
    with pytest.raises(ValueError, match="policy gap"):
        evaluate_policy(env, policy, 1, 1.0, 0)


# --- cached population evaluation ----------------------------------------------

KINDS = ("scalar", "vector", "envelope", "esr")


def _simplex_weight(data, m):
    raw = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), dtype=float)
    raw[0] += raw.sum() == 0
    return raw / raw.sum()


def _new_table(kind, env, weights):
    """A zero table of ``kind`` (the table classes' ``kind`` names)."""
    if kind == "scalar":
        return QTableScalar(env.n_actions)
    if kind == "vector":
        return QTableVector(env.n_actions, env.n_objectives)
    if kind == "envelope":
        return QTableEnvelope(env.n_actions, env.n_objectives, [w.copy() for w in weights])
    return QTableEsr(env.n_actions, env.n_objectives)


def _keys(q, env):
    """Keys worth editing: every state, or for ESR tables those already stored
    and the greedy walk's (where a default row may have stood in)."""
    if isinstance(q, QTableEsr):
        trace, _ = rollout(env, greedy_policy(q), 0)
        return sorted(set(q.table) | {accrued_key(e.state, e.accrued) for e in trace})
    return list(range(env.n_states))


def _fresh_value(sp, env, episodes, gamma):
    """A fresh walk of ``sp``'s greedy policy, on plain lists: it reads no
    action an ESR row keeps."""
    q = sp.learner
    rows = {key: list(row) for key, row in q._preferences(sp.weight).items()}
    policy = TabularPolicy(rows, augmented=q._augmented, default_row=[0.0] * q.n_actions)
    return evaluate_policy(env, policy, episodes, gamma, 0)


def _edit(data, sps, env):
    """One random edit: a row set (possibly where the default row stood in),
    a row reversed (an argmax flip), a PSA-style weight change, a transfer,
    or on an ESR table a few replays of one sampled episode (weighted sum, or
    Tchebycheff from a reference at, above or below the returns)."""
    sp = data.draw(st.sampled_from(sps))
    q = sp.learner
    esr = isinstance(q, QTableEsr)
    what = data.draw(st.sampled_from(["set", "flip", "weight", "transfer"] + ["replay"] * esr))
    if what in ("set", "flip"):
        key = data.draw(st.sampled_from(_keys(q, env)))
        row = q.row(*key) if esr else q._get(key)
        if isinstance(row, list):   # scalar and ESR rows are float lists
            if what == "flip":
                row.reverse()
            else:
                values = st.lists(st.integers(-2, 2), min_size=len(row), max_size=len(row))
                row[:] = [float(v) for v in data.draw(values)]
        elif what == "flip":
            row[:] = np.flip(row, axis=-2 if row.ndim > 1 else 0).copy()
        else:
            row[:] = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=row.size,
                                                 max_size=row.size))).reshape(row.shape)
    elif what == "replay":
        episode, _ = rollout(env, greedy_policy(q), data.draw(st.integers(0, 2**16)), lambda t: 0.5)
        z = data.draw(st.sampled_from([None, -5.0, 0.0, 5.0]))
        g = WS if z is None else Scalarization(
            "tchebycheff", ReferencePoint(values=[z] * env.n_objectives))
        for _ in range(data.draw(st.integers(1, 4))):
            update_esr_mc(q, episode, g, sp.weight)
    elif what == "weight":
        sp.weight = _simplex_weight(data, env.n_objectives)
        weights = [other.weight for other in sps]
        for other in sps:
            if isinstance(other.learner, QTableEnvelope):
                other.learner.weights = [w.copy() for w in weights]
    else:
        # from another subproblem, or from a fresh table, whose rows are gone
        fresh = _new_table(type(q).kind, env, [other.weight for other in sps])
        sp.learner = copy.deepcopy(data.draw(st.sampled_from([fresh] + [o.learner for o in sps])))


@settings(max_examples=300, deadline=None)
@given(env=small_momdps(deterministic=True), kind=st.sampled_from(KINDS),
       n=st.integers(1, 3), gamma=st.sampled_from([1.0, 0.9, 0.5]),
       capacity=st.sampled_from([None, 1, 4, 10**6]), data=st.data())
def test_cached_population_evaluation_is_a_fresh_walk(env, kind, n, gamma, capacity, data):
    """With or without a step tree (a small one restarts): on a tree, an unedited
    ESR table's value is reused, and so is a node's until the tree restarts;
    without one, nothing is kept and every value is a fresh evaluation."""
    weights = [_simplex_weight(data, env.n_objectives) for _ in range(n)]
    sps = [Subproblem(i, w, _new_table(kind, env, weights)) for i, w in enumerate(weights)]
    tree = None if capacity is None else StepTree(env, capacity, gamma)
    rng = np.random.default_rng(0)
    previous = root = None
    for _ in range(data.draw(st.integers(1, 6))):
        edits = data.draw(st.integers(0, 3)) if previous is not None else 0
        for _ in range(edits):
            _edit(data, sps, env)
        evals = evaluate_population(sps, env, 3, gamma, rng, tree)
        for sp, value in zip(sps, evals):
            assert value.tobytes() == _fresh_value(sp, env, 3, gamma).tobytes()
            assert sp.last_eval is value
        if edits == 0 and previous is not None and tree is not None and (
                kind == "esr" or tree.root is root):
            # nothing changed, so no value is recomputed
            assert all(a is b for a, b in zip(evals, previous))
        assert all(bool(sp.walk) == (tree is not None) for sp in sps)
        previous, root = evals, tree and tree.root
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_an_esr_walk_is_reused_on_its_own_tree_only():
    """A fresh tree at each gamma, so only ``Subproblem.walk`` could repeat a
    value across them; a second evaluation on one tree reuses it."""
    env = tiny_tree()
    sp = Subproblem(0, np.array([0.5, 0.5]), QTableEsr(2, 2))
    for gamma in (1.0, 0.5, 0.5, 1.0):   # the first leaf, (4, 0), one step down
        tree = StepTree(env, 100, gamma)
        value = evaluate_population([sp], env, 1, gamma, None, tree)[0]
        assert value.tobytes() == _fresh_value(sp, env, 1, gamma).tobytes()
        assert value.tolist() == [4 * gamma, 0]
        assert sp.walk[0] is value and sp.walk[1:] == (sp.learner, 0, tree)
        assert evaluate_population([sp], env, 1, gamma, None, tree)[0] is value


def test_without_a_tree_a_deterministic_env_keeps_no_walk(monkeypatch):
    """Each evaluation without a tree is a fresh ``evaluate_policy`` run."""
    env = tiny_tree()
    sp = Subproblem(0, np.array([0.5, 0.5]), QTableEsr(2, 2))
    calls, evaluate = [], orchestrator.evaluate_policy
    monkeypatch.setattr(orchestrator, "evaluate_policy",
                        lambda *args: calls.append(args) or evaluate(*args))
    values = [evaluate_population([sp], env, 1, 0.5, None)[0] for _ in range(2)]
    assert len(calls) == 2 and values[0] is not values[1] and sp.walk == ()
    for value in values:
        assert value.tobytes() == _fresh_value(sp, env, 1, 0.5).tobytes()


def test_a_tree_values_its_terminal_nodes_for_its_own_env_and_gamma(monkeypatch):
    """A terminal node is valued when it is made, so evaluation runs no
    ``evaluate_policy``; a tree of another env or gamma is rejected."""
    env = tiny_tree()
    tree = StepTree(env, 100, 0.5)
    monkeypatch.setattr(orchestrator, "evaluate_policy", None)   # never called
    sps = [Subproblem(i, np.array([0.5, 0.5]), QTableScalar(2)) for i in range(2)]
    values = evaluate_population(sps, env, 1, 0.5, None, tree)
    assert values[0] is values[1] is tree.root.children[0].children[0].value
    assert values[0].tobytes() == _fresh_value(sps[0], env, 1, 0.5).tobytes()
    assert values[0].tolist() == [2.0, 0.0] and tree.size == 2
    with pytest.raises(ValueError, match="step tree of 'tiny-tree' cannot walk 'dst-corridor'"):
        evaluate_population(sps, orchestrator.make_env("dst-corridor"), 1, 0.5, None, tree)
    with pytest.raises(ValueError, match="step tree at gamma 0.5 cannot evaluate at gamma 1.0"):
        evaluate_population(sps, env, 1, 1.0, None, tree)


@pytest.mark.parametrize("kind", KINDS)
def test_population_evaluation_builds_preferences_and_walks_at_most_once(kind, monkeypatch):
    """A first evaluation, a second and one after an argmax flip each build
    every subproblem's greedy preferences once (vector and envelope tables
    build them by one matmul per state) and walk the tree once. An ESR table
    whose flip count stayed put does neither, so after the flip only the
    flipped table does."""
    env = tiny_tree()
    weights = [np.array([0.5, 0.5]), np.array([1.0, 0.0])]
    sps = [Subproblem(i, w, _new_table(kind, env, weights)) for i, w in enumerate(weights)]
    cls, calls, walks = type(sps[0].learner), [], []
    preferences = cls._preferences
    monkeypatch.setattr(cls, "_preferences",
                        lambda self, lam: calls.append(1) or preferences(self, lam))
    tree = StepTree(env, 100, 1.0)
    monkeypatch.setattr(tree, "walk", lambda policy: walks.append(1) or StepTree.walk(tree, policy))
    rng = np.random.default_rng(0)
    for flip in (False, False, True):
        if flip:   # action 1 at the root
            q = sps[0].learner
            row = q.row(0, (0.0, 0.0)) if isinstance(q, QTableEsr) else q._get(0)
            row[1 if isinstance(row, list) else (..., 1, slice(None))] = 1.0
        before, calls[:], walks[:] = sps[0].walk, [], []
        evaluate_population(sps, env, 3, 1.0, rng, tree)
        assert len(calls) == len(walks) == (int(flip) if kind == "esr" and before else len(sps))
        assert (sps[0].walk is before) == (kind == "esr" and bool(before) and not flip)
    assert sps[0].last_eval.tolist() == [1.0, 3.0]


def test_a_transferred_esr_table_with_an_equal_flip_count_is_walked_again():
    """A deep copy is another table: it is walked even when its flip count
    equals the count cached with the replaced table's value on the same tree."""
    env = tiny_tree()
    sps = [Subproblem(i, np.array(w), QTableEsr(2, 2)) for i, w in enumerate([(0.5, 0.5), (1, 0)])]
    for sp, values in zip(sps, ([1.0, 0.0], [0.0, 1.0])):
        sp.learner.row(0, (0.0, 0.0))[:] = values   # one flip each: left, right
    tree = StepTree(env, 100, 1.0)
    assert [v.tolist() for v in evaluate_population(sps, env, 1, 1.0, None, tree)] == \
           [[4.0, 0.0], [1.0, 3.0]]
    sps[0].learner = copy.deepcopy(sps[1].learner)
    assert sps[0].learner.flips == sps[0].walk[2] and sps[0].walk[3] is tree
    value = evaluate_population(sps, env, 1, 1.0, None, tree)[0]
    assert value.tobytes() == _fresh_value(sps[0], env, 1, 1.0).tobytes()
    assert value.tolist() == [1.0, 3.0]


PROPERTY_ENV = "evaluation-property-test-env"


@settings(max_examples=150, deadline=None)
@given(env=small_momdps(deterministic=True), learner=st.sampled_from(orchestrator.LEARNERS),
       gamma=st.sampled_from([1.0, 0.9, 0.5]), capacity=st.integers(1, 12),
       scalarization=st.sampled_from(["weighted-sum", "tchebycheff"]),
       seed=st.integers(0, 2**16), data=st.data())
def test_run_state_evaluation_is_a_fresh_walk_under_adaptation_transfer_and_replay(
        env, learner, gamma, capacity, scalarization, seed, data):
    """On a real run state whose step tree (``capacity`` steps) restarts: after
    each sampled episode, ``_adapt`` (with PSA), transfer or ``_improve_all``,
    every evaluation is that of a deep copy of the table, bit for bit, and an
    untouched table gets the identical array back (ESR always, others while
    the tree keeps its node: its root is the one from before the previous
    evaluation, which may itself restart the tree between two subproblems).
    ``esr-mc`` runs at gamma 1, as validation asks."""
    gamma = 1.0 if learner == "esr-mc" else gamma
    m = env.n_objectives
    assume(m > 1)   # no weight set of one objective has more than its center
    register_env(PROPERTY_ENV, lambda: env)
    sizes = [n for n in (1, 2, 3, 4) if n == 1 or lattice_divisions(m, n) is not None]
    config = RunConfig(
        env=PROPERTY_ENV, population_size=data.draw(st.sampled_from(sizes)), learner=learner,
        gamma=gamma, scalarization=scalarization, psa_enabled=True, cooperation="transfer",
        buffer_capacity=capacity, update_passes=2, batch_size=4, eval_episodes=2, eum_weights=3,
        hv_reference=tuple(w - 1.0 for w in _worst_return(env, gamma)), seed=seed)
    state = initialize(config)
    assert state.tree is not None and state.tree.capacity == capacity
    root = state.tree.root   # the root before the latest evaluation
    evaluate_population(state.subproblems, env, config.eval_episodes, gamma,
                        state.streams.eval, state.tree)
    for _ in range(data.draw(st.integers(1, 8))):
        before = [(sp.learner, orchestrator.serialize_table(sp.learner), sp.weight.tobytes(),
                   sp.last_eval) for sp in state.subproblems]
        op = data.draw(st.sampled_from(["sample", "adapt", "transfer", "improve"]))
        if op == "sample":
            sp = data.draw(st.sampled_from(state.subproblems))
            episode, _ = rollout(env, greedy_policy(sp.learner, sp.weight), state.streams.env,
                                 lambda t: 0.5, state.streams.explore, tree=state.tree)
            state.buffers[sp.index].push(episode)
            sp.trained = True
        elif op == "adapt":
            _adapt(state)
        elif op == "transfer":
            cooperate(state)
        else:
            _improve_all(state)
        eval_root = state.tree.root
        evals = evaluate_population(state.subproblems, env, config.eval_episodes, gamma,
                                    state.streams.eval, state.tree)
        for sp, value, (learner_before, text, weight, last) in zip(state.subproblems, evals,
                                                                   before):
            fresh = evaluate_policy(env, greedy_policy(copy.deepcopy(sp.learner), sp.weight),
                                    1, gamma)
            assert value.tobytes() == fresh.tobytes()
            untouched = (sp.learner is learner_before and weight == sp.weight.tobytes()
                         and text == orchestrator.serialize_table(sp.learner))
            if untouched and (learner == "esr-mc" or state.tree.root is root):
                assert value is last
        _archive_population(state.archive, state.subproblems, 0)
        root = eval_root


@settings(max_examples=50, deadline=None)
@given(env=small_momdps(deterministic=False), kind=st.sampled_from(KINDS),
       n=st.integers(1, 3), episodes=st.integers(1, 4), seed=st.integers(0, 2**16),
       data=st.data())
def test_stochastic_population_evaluation_keeps_the_eval_stream(env, kind, n, episodes,
                                                                 seed, data):
    assume(not env.deterministic)
    weights = [_simplex_weight(data, env.n_objectives) for _ in range(n)]
    sps = [Subproblem(i, w, _new_table(kind, env, weights)) for i, w in enumerate(weights)]
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        for _ in range(data.draw(st.integers(0, 2))):
            _edit(data, sps, env)
        evals = evaluate_population(sps, env, episodes, 0.9, rng)
        for sp, value in zip(sps, evals):
            expected = rollout_discounted_mean(env, greedy_policy(sp.learner, sp.weight),
                                               episodes, 0.9, oracle_rng)
            assert value.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert all(sp.walk == () for sp in sps)   # stochastic envs cache no walk


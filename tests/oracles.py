"""Independent oracle implementations used to cross-check the package.

Everything here recomputes expected results through a different route than
the code under test: plain O(n^2) dominance loops, synchronous value
iteration over the full transition table, per-policy dynamic programming,
per-point loops for crowding distance and Monte-Carlo hypervolume (and
the Monte-Carlo loop that scaled every draw before comparing it), an
episode buffer that re-derives its views after every push, trajectory
enumeration for the worst return, an archive step that checks every
offer, pruning by inserting into an archive one point at a time, the
scalarized TD step without its score memo, the envelope improvement as one
step per weight and its scores as one ``einsum`` per weight, policy
evaluation summing into numpy arrays (and the discounted return of an
action sequence, replayed on a deterministic env), multi-buffer sampling
through a chained view of the buffers, the ESR update and
its improvement round without plans, memos or a one-call pick draw (the
scalar and ESR steps on tables of numpy rows, as the learners kept them
before their rows became float lists), the
two episode loops (and the epsilon-greedy policy) that ``rollout`` replaced,
and a hand-rolled single-objective Q-learning loop that mirrors the
training schedule step for step. It also holds two helpers that the tests
use and the package does not: Pareto dominance and a mixture's value.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from paretoq.archive import ParetoArchive
from paretoq.learning import ExperienceBuffer, QTableEsr, QTableScalar
from paretoq.momdp import Experience, Momdp, accrued_key, ensure_objective, make_env
from paretoq.orchestrator import RunConfig
from paretoq.rng import RunStreams


def dominates(a, b) -> bool:
    """True iff ``a`` is at least as good everywhere and better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors have mismatched shapes {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def mixture_value(values, probabilities) -> np.ndarray:
    """Convex combination of objective vectors: ``sum(p_i * v_i)``, the value of
    the stochastic mixture that plays policy ``i`` for a whole episode with
    probability ``p_i``."""
    if len(values) != len(probabilities):
        raise ValueError("values and probabilities must have equal length")
    probs = np.asarray(probabilities, dtype=float)
    if np.any(probs < 0):
        raise ValueError("mixture probabilities must be non-negative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture probabilities sum to {probs.sum()!r}, expected 1")
    vecs = [ensure_objective(v) for v in values]
    if len({v.shape[0] for v in vecs}) > 1:
        raise ValueError("mixture components have mismatched lengths")
    return sum(p * v for p, v in zip(probs, vecs))


def brute_force_non_dominated(points):
    """Indices of survivors per pairwise dominance and duplicate checks."""
    pts = [np.asarray(p, dtype=float) for p in points]
    survivors = []
    for i, a in enumerate(pts):
        dominated = False
        for j, b in enumerate(pts):
            if i == j:
                continue
            if bool(np.all(b >= a) and np.any(b > a)):
                dominated = True
                break
        if dominated:
            continue
        if any(np.array_equal(pts[k], a) for k in survivors):
            continue
        survivors.append(i)
    return survivors


def prune_by_insertion(candidates):
    """``archive.prune`` as it read before it sorted once: each ``(eval, payload)``
    pair inserted in turn into a fresh :class:`ParetoArchive`."""
    archive = ParetoArchive()
    for eval_, payload in candidates:
        archive.insert(eval_, payload)
    return [(e.eval, e.payload) for e in archive]


def brute_force_non_dominated_matrix(points):
    """Same filter through full pairwise comparison matrices."""
    pts = np.asarray(points, dtype=float)
    ge = np.all(pts[:, None, :] >= pts[None, :, :], axis=2)
    gt = np.any(pts[:, None, :] > pts[None, :, :], axis=2)
    dominated = np.any(ge & gt, axis=0)
    equal = ge & ~gt
    keep = []
    for j in range(len(pts)):
        if dominated[j]:
            continue
        if np.any(equal[:j, j]):
            continue
        keep.append(j)
    return keep


def exact_policy_value(env: Momdp, assignment, gamma: float) -> np.ndarray:
    """Finite-horizon value of one deterministic policy, one state at a time.

    ``assignment[s]`` is the action taken in state ``s``; truncation at
    ``env.max_episode_steps`` counts as termination.
    """
    horizon = env.max_episode_steps
    # u[s] holds the value-to-go with t steps remaining, built backwards
    u = np.zeros((env.n_states, env.n_objectives))
    for _ in range(horizon):
        nxt = np.zeros_like(u)
        for s in range(env.n_states):
            for p, ns, r, term in env.outcomes(s, assignment[s]):
                nxt[s] += p * (r if term else r + gamma * u[ns])
        u = nxt
    value = np.zeros(env.n_objectives)
    for s in range(env.n_states):   # the start average, states in order from +0.0
        value += env.initial_dist[s] * u[s]
    return value


def deterministic_policies(env: Momdp, gamma: float) -> list:
    """``enumerate_deterministic_policies`` with each action row made a
    :class:`TabularPolicy` of one-hot preference rows, one array per state."""
    from paretoq.momdp import TabularPolicy, enumerate_deterministic_policies

    one_hot = np.eye(env.n_actions)
    return [(TabularPolicy(dict(enumerate(one_hot[row]))), value)
            for row, value in enumerate_deterministic_policies(env, gamma)]


def crowding_distance_loop(front) -> np.ndarray:
    """NSGA-II crowding distance with a Python loop over sorted positions."""
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    n, m = pts.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(pts[:, j], kind="stable")
        span = pts[order[-1], j] - pts[order[0], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span == 0:
            continue
        for pos in range(1, n - 1):
            dist[order[pos]] += (pts[order[pos + 1], j] - pts[order[pos - 1], j]) / span
    return dist


def hypervolume_monte_carlo_chunked(pts, z, samples: int, rng):
    """``(estimate, std_error)`` from draws made as whole ``(take, m)`` chunks.

    ``pts`` is a non-dominated front strictly above ``z``. Each chunk draws
    ``z + u * (upper - z)`` and tests all points against it through one
    ``(take, len(pts))`` mask.
    """
    pts, z = np.asarray(pts, dtype=float), np.asarray(z, dtype=float)
    upper = pts.max(axis=0)
    volume = float(np.prod(upper - z))
    hits = 0
    chunk = max(1, min(samples, 10**8 // max(1, len(pts))))
    remaining = samples
    while remaining > 0:
        take = min(chunk, remaining)
        draws = z + rng.random((take, pts.shape[1])) * (upper - z)
        inside = np.ones((take, len(pts)), dtype=bool)
        for j in range(pts.shape[1]):
            inside &= draws[:, j, None] <= pts[None, :, j]
        hits += int(np.any(inside, axis=1).sum())
        remaining -= take
    frac = hits / samples
    estimate = volume * frac
    std_error = volume * float(np.sqrt(frac * (1.0 - frac) / samples))
    return estimate, std_error


def hypervolume_monte_carlo_scaled(front, z_ref, samples: int, rng):
    """``(estimate, std_error)`` as the estimator read before it compared raw
    draws with limits: each ``(2**15, m)`` block of draws is scaled in
    place to ``z + u * span`` and compared column by column with each point.
    ``front`` is a non-dominated front strictly above ``z_ref``."""
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    z = np.asarray(z_ref, dtype=float)
    upper = pts.max(axis=0)
    volume = float(np.prod(upper - z))
    if volume == 0.0:
        return 0.0, 0.0
    samples = int(samples)
    span = upper - z
    block = np.empty((max(1, min(samples, 2**15)), pts.shape[1]))
    hits = 0
    for start in range(0, samples, len(block)):
        draws = block[:samples - start]
        # the draws of one (samples, m) call, in order: z + u * (upper - z)
        rng.random(out=draws)
        draws *= span
        draws += z
        # a draw is a hit when it lies below some point in every objective
        hit = np.zeros(len(draws), dtype=bool)
        for point in pts:
            inside = draws[:, 0] <= point[0]
            for j in range(1, len(point)):
                inside &= draws[:, j] <= point[j]
            hit |= inside
        hits += int(np.count_nonzero(hit))
    frac = hits / samples
    estimate = volume * frac
    std_error = volume * float(np.sqrt(frac * (1.0 - frac) / samples))
    return estimate, std_error


class NaiveEpisodeBuffer:
    """The experience-buffer contract, re-derived in full after every push.

    Holds a list of ``[steps, cut]`` pairs, oldest first. ``fifo`` takes
    the oldest step one at a time and marks its episode as cut;
    ``diverse-crowding`` drops whole episodes, least crowded return last
    (crowding from :func:`crowding_distance_loop`). ``flat`` and
    ``complete`` are rebuilt from the pairs each time, and draws index
    them with the same ``rng.integers`` call the buffer makes.
    """

    def __init__(self, capacity: int, replacement: str = "fifo"):
        self.capacity = capacity
        self.replacement = replacement
        self.episodes = []
        self.flat, self.complete = [], []

    def push(self, steps):
        steps = list(steps)
        if steps:
            self.episodes.append([steps, False])
        size = sum(len(ep) for ep, _ in self.episodes)
        while size > self.capacity:
            if self.replacement == "fifo":
                self.episodes[0] = [self.episodes[0][0][1:], True]
                size -= 1
                if not self.episodes[0][0]:
                    self.episodes.pop(0)
            else:
                returns = [sum(e.reward for e in ep) for ep, _ in self.episodes]
                victim = int(np.argmin(crowding_distance_loop(returns)))
                size -= len(self.episodes.pop(victim)[0])
        self.flat = [e for ep, _ in self.episodes for e in ep]
        self.complete = [ep for ep, cut in self.episodes if not cut and ep[-1].terminal]

    def sample(self, batch: int, rng):
        return [self.flat[i] for i in rng.integers(0, len(self.flat), size=batch)]


def worst_return_by_enumeration(env: Momdp, gamma: float) -> np.ndarray:
    """Per objective, the least discounted return over every trajectory.

    Walks each start state, action and positive-probability outcome up to
    the horizon, adding ``gamma**t * r`` forward along the trajectory.
    """
    worst = np.full(env.n_objectives, np.inf)

    def walk(state, t, discount, total):
        for a in range(env.n_actions):
            for p, ns, r, term in env.outcomes(state, a):
                if p <= 0:
                    continue
                ret = total + discount * r
                if term or t + 1 == env.max_episode_steps:
                    np.minimum(worst, ret, out=worst)
                else:
                    walk(ns, t + 1, discount * gamma, ret)

    for s in np.flatnonzero(env.initial_dist):
        walk(int(s), 0, 1.0, np.zeros(env.n_objectives))
    return worst


def rollout_discounted_mean(env: Momdp, policy, episodes: int, gamma: float, rng):
    """Mean discounted return of recorded rollouts, summed over each trace.

    Walks as many episodes as ``evaluate_policy`` does (one on a
    deterministic env) and draws from ``rng`` through ``rollout``, whose
    draw pattern ``evaluate_policy`` must repeat.
    """
    from paretoq.momdp import rollout

    runs = 1 if env.deterministic else episodes
    total = np.zeros(env.n_objectives)
    for _ in range(runs):
        trace, _ = rollout(env, policy, rng)
        value = np.zeros(env.n_objectives)
        discount = 1.0
        for exp in trace:
            value += discount * exp.reward
            discount *= gamma
        total += value
    return total / runs


def evaluate_policy_on_arrays(env: Momdp, policy, episodes: int, gamma: float,
                              rng_seed=0) -> np.ndarray:
    """``evaluate_policy`` as it read while it summed each return, and the mean,
    into numpy arrays: the same draws and actions, step for step."""
    rng = np.random.default_rng(rng_seed)
    runs = 1 if env.deterministic else episodes
    total = np.zeros(env.n_objectives)
    for _ in range(runs):
        state = env.initial_state(rng)
        accrued = np.zeros(env.n_objectives) if policy.augmented else None
        value = np.zeros(env.n_objectives)
        discount = 1.0
        for _ in range(env.max_episode_steps):
            action = policy.action(state, accrued)
            state, reward, terminal = env.step(state, action, rng)
            value += discount * reward
            if terminal:
                break
            discount *= gamma
            if accrued is not None:
                accrued = accrued + reward
        total += value
    return total / runs


def discounted_return_of_actions(env: Momdp, actions, gamma: float) -> np.ndarray:
    """The discounted vector return of playing ``actions`` from the start state of
    a deterministic env, stepped afresh and summed into a float64 array."""
    state = env.initial_state()
    value = np.zeros(env.n_objectives)
    discount = 1.0
    for action in actions:
        state, reward, _ = env.step(state, action)
        value += discount * reward
        discount *= gamma
    return value


class EpsilonGreedyPolicy:
    """A greedy policy's rows under the epsilon-greedy ``action`` that
    policies had before ``rollout`` drew exploration itself (verbatim)."""

    def __init__(self, greedy, epsilon: float):
        self.greedy, self.epsilon = greedy, epsilon

    def row(self, state, accrued=None):
        greedy = self.greedy
        key = accrued_key(state, accrued) if greedy.augmented else state
        return greedy.preferences.get(key, greedy.default_row)

    def action(self, state, accrued=None, rng=None) -> int:
        prefs = self.row(state, accrued)
        if rng.random() < self.epsilon:
            return int(rng.integers(len(prefs)))
        return int(np.asarray(prefs).argmax())


def rollout_with_policy_draws(env: Momdp, policy, rng_seed=0):
    """``rollout`` as it read when the policy drew its own exploration from
    the one generator (verbatim)."""
    rng = np.random.default_rng(rng_seed)
    state = env.initial_state(rng)
    accrued = np.zeros(env.n_objectives)
    trace: list[Experience] = []
    while True:
        action = policy.action(state, accrued, rng)
        next_state, reward, terminal = env.step(state, action, rng)
        done = terminal or len(trace) + 1 >= env.max_episode_steps
        trace.append(Experience(state, action, reward, next_state, done, accrued))
        accrued = accrued + reward   # a new array: each step keeps its own
        state = next_state
        if done:
            return trace, accrued


def sample_episode(env: Momdp, policy, epsilon_fn, step0: int, rng_env, rng_explore):
    """The training run's episode loop before it became ``rollout`` (verbatim).

    Exactly one exploration coin is drawn per step, plus one action draw
    when the coin explores; this fixed pattern is what keeps runs with equal
    seeds identical.
    """
    state = env.initial_state(rng_env)
    accrued = np.zeros(env.n_objectives)
    trace: list[Experience] = []
    while True:
        if rng_explore.random() < epsilon_fn(step0 + len(trace)):
            action = int(rng_explore.integers(env.n_actions))
        else:
            action = policy.action(state, accrued)
        next_state, reward, terminal = env.step(state, action, rng_env)
        done = terminal or len(trace) + 1 >= env.max_episode_steps
        trace.append(Experience(state, action, reward, next_state, done, accrued))
        accrued = accrued + reward   # a new array: each step keeps its own
        state = next_state
        if done:
            return trace


def offer_every_evaluation(archive, subproblems, step):
    """Archive step that checks every subproblem's evaluation each time, as
    the orchestrator did before it skipped repeated offers."""
    from paretoq.learning import serialize_table

    for sp in subproblems:
        if archive.would_accept(sp.last_eval):
            archive.insert(sp.last_eval, serialize_table(sp.learner).encode(),
                           subproblem=sp.index, step=step)


class NumpyRowScalar(QTableScalar):
    """A scalar table whose rows are numpy arrays, for :func:`scalarized_q_step`."""

    def _zeros(self) -> np.ndarray:
        return np.zeros(self.n_actions)


class NumpyRowEsr(QTableEsr):
    """An ESR table of numpy rows, with int64 visit counts in a dict beside
    them, for :func:`esr_mc_step`; its text rows are written out here. It keeps
    no greedy actions and counts no flips, so a cached greedy walk of it is
    always checked row by row, as before ESR tables counted flips."""

    flips = None

    def __init__(self, n_actions: int, n_objectives: int, alpha: float = 0.1,
                 gamma: float = 1.0):
        super().__init__(n_actions, n_objectives, alpha, gamma)
        self.counts = {}

    @property
    def visits(self) -> dict:
        return self.counts

    def _get(self, key):
        return self._entry(key)[0]

    def row(self, state, accrued):
        return self._get(accrued_key(state, accrued))

    def _entry(self, key):
        row = self.table.get(key)
        if row is None:
            row = self.table[key] = np.zeros(self.n_actions)
            self.counts[key] = np.zeros(self.n_actions, dtype=np.int64)
        return row, self.counts[key]

    def _row_lines(self, key) -> list:
        state, accrued = key
        prefix = f"{state}|c" + ",".join("%.17g" % c for c in accrued)
        row, visits = self.table[key], self.counts[key]
        return [f"{prefix}\t{a}\t{'%.17g' % row[a]}\t{visits[a]}" for a in range(self.n_actions)]


def scalarized_q_step(q, e, g, lam, scores=None):
    """The scalarized TD step as it read before replay shared a score memo
    and read rows directly: one full ``g.score`` per experience and a
    ``float(max())`` bootstrap (``scores`` is ignored)."""
    reward = g.score(e.reward, lam)
    bootstrap = 0.0 if e.terminal else float(q.row(e.next_state).max())
    row = q.row(e.state)
    row[e.action] += q.alpha * (reward + q.gamma * bootstrap - row[e.action])
    return q


def scalarized_q_batch(q, batch, g, lam, scores=None):
    """:func:`scalarized_q_step` once per experience of ``batch``, in order."""
    for e in batch:
        scalarized_q_step(q, e, g, lam)
    return q


def envelope_row_step(q, e, lam, l_idx: int):
    """The envelope TD step of one weight row as it read before every row
    took one batched step: the bootstrap maximizes ``lam @ q`` over next
    actions and the whole weight set, ties to the lowest (action, weight)."""
    lam = np.asarray(lam, dtype=float)
    if e.terminal:
        target = e.reward
    else:
        nxt = q.block(e.next_state)                     # (L, A, m)
        scores = np.einsum("lam,m->al", nxt, lam)       # action-major for ties
        flat_best = int(scores.argmax())
        a_best, l_best = divmod(flat_best, len(q.weights))
        target = e.reward + q.gamma * nxt[l_best, a_best]
    block = q.block(e.state)
    block[l_idx, e.action] += q.alpha * (target - block[l_idx, e.action])
    return q


def envelope_scores_per_weight(nxt, weights) -> np.ndarray:
    """The (weight, action, row) scores of one block, one ``einsum`` per weight."""
    return np.array([np.einsum("lam,m->al", nxt, w) for w in weights])


def envelope_step_per_weight(q, e):
    """The update of every weight's row from one replayed experience, one
    weight after another in set order, each row its weight's first match."""
    rows = []
    for w in q.weights:
        rows.append(next(i for i, v in enumerate(q.weights) if np.array_equal(v, w)))
    for w, l_idx in zip(q.weights, rows):
        envelope_row_step(q, e, w, l_idx)
    return q


def esr_mc_step(q, episode, g, lam, scores=None):
    """The ESR Monte-Carlo update as it read before replay plans and score
    memos: keys built and the return scored on every call, numpy-scalar row
    steps on a :class:`NumpyRowEsr` (``scores`` is ignored)."""
    episode = list(episode)
    if not episode or not episode[-1].terminal:
        raise ValueError("incomplete episode: ESR updates need a finished episode")
    total = episode[-1].accrued + episode[-1].reward
    target = g.score(total, lam)
    for e in episode:
        row, visits = q._entry(accrued_key(e.state, e.accrued))
        row[e.action] += q.alpha * (target - row[e.action])
        visits[e.action] += 1
    return q


def improve_esr_pick_by_pick(state):
    """The ESR improvement round as it read before a round's picks came
    from one draw: one scalar ``integers`` call per pick, and the step above."""
    for sp, visible in zip(state.subproblems, state.visible):
        episodes = [episode for buf in visible for episode in buf.complete_episodes()]
        if not episodes:
            continue
        for _ in range(state.config.update_passes):
            pick = int(state.streams.buffer.integers(0, len(episodes)))
            esr_mc_step(sp.learner, episodes[pick], state.scalarization, sp.weight)


class Chain:
    """Read-only view of several sequences end to end, built without copying:
    index ``i`` reads what the concatenated list would hold at ``i``."""

    def __init__(self, parts):
        self.parts = parts
        self.ends = list(itertools.accumulate(len(part) for part in parts))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, index: int):
        k = bisect.bisect_right(self.ends, index)
        return self.parts[k][index - self.ends[k] + len(self.parts[k])]


def sample_through_chain(visible, batch: int, rng) -> list:
    """Multi-buffer sampling as it read while the buffers were indexed through
    a view: one ``integers`` call over a :class:`Chain` of the buffers."""
    flat = Chain(visible)
    if not len(flat):
        return []
    return [flat[i] for i in rng.integers(0, len(flat), size=int(batch)).tolist()]


def tchebycheff_numpy(f, lam, z) -> float:
    """``max_i lam_i * |f_i - z_i|`` as one numpy expression."""
    f, lam, z = (np.asarray(v, dtype=float) for v in (f, lam, z))
    return float(np.max(lam * np.abs(f - z)))


def all_transition_experiences(env: Momdp):
    """One Experience per (state, action) pair of a deterministic env."""

    sweep = []
    zero = np.zeros(env.n_objectives)
    for s in range(env.n_states):
        for a in range(env.n_actions):
            outcomes = env.outcomes(s, a)
            assert len(outcomes) == 1, "sweep training expects a deterministic env"
            _, ns, r, term = outcomes[0]
            sweep.append(Experience(s, a, r, ns, term, zero.copy()))
    return sweep


def value_iteration_scalar(env: Momdp, lam, gamma: float, sweeps: int | None = None):
    """Synchronous fixed point of scalarized Q-learning."""
    lam = np.asarray(lam, dtype=float)
    sweeps = sweeps if sweeps is not None else env.max_episode_steps + 2
    q = np.zeros((env.n_states, env.n_actions))
    for _ in range(sweeps):
        nxt = np.zeros_like(q)
        for s in range(env.n_states):
            for a in range(env.n_actions):
                for p, ns, r, term in env.outcomes(s, a):
                    boot = 0.0 if term else q[ns].max()
                    nxt[s, a] += p * (float(lam @ r) + gamma * boot)
        q = nxt
    return q


def value_iteration_vector(env: Momdp, lam, gamma: float, sweeps: int | None = None):
    """Synchronous fixed point of the vector-valued update."""
    lam = np.asarray(lam, dtype=float)
    sweeps = sweeps if sweeps is not None else env.max_episode_steps + 2
    q = np.zeros((env.n_states, env.n_actions, env.n_objectives))
    for _ in range(sweeps):
        nxt = np.zeros_like(q)
        for s in range(env.n_states):
            for a in range(env.n_actions):
                for p, ns, r, term in env.outcomes(s, a):
                    if term:
                        nxt[s, a] += p * r
                    else:
                        best = int(np.argmax(q[ns] @ lam))
                        nxt[s, a] += p * (r + gamma * q[ns, best])
        q = nxt
    return q


def value_iteration_envelope(env: Momdp, weights, gamma: float,
                             sweeps: int | None = None):
    """Synchronous fixed point of the envelope update over a weight set.

    The bootstrap scans next actions and all weight rows, keeping the vector
    with the largest scalarization under the row being updated; ties resolve
    to the lowest action, then the lowest weight index.
    """
    ws = [np.asarray(w, dtype=float) for w in weights]
    sweeps = sweeps if sweeps is not None else env.max_episode_steps + 2
    q = np.zeros((env.n_states, len(ws), env.n_actions, env.n_objectives))
    for _ in range(sweeps):
        nxt = np.zeros_like(q)
        for s in range(env.n_states):
            for l, lam in enumerate(ws):
                for a in range(env.n_actions):
                    for p, ns, r, term in env.outcomes(s, a):
                        if term:
                            nxt[s, l, a] += p * r
                            continue
                        best_vec, best_score = None, -np.inf
                        for a2 in range(env.n_actions):
                            for l2 in range(len(ws)):
                                score = float(lam @ q[ns, l2, a2])
                                if score > best_score:
                                    best_score, best_vec = score, q[ns, l2, a2]
                        nxt[s, l, a] += p * (r + gamma * best_vec)
        q = nxt
    return q


def standalone_scalar_q_learning(config: RunConfig, lam):
    """Plain single-objective Q-learning on the pre-scalarized reward.

    Reproduces the exact sampling and replay schedule of a one-subproblem
    run so the learned table can be compared bit for bit: same derived
    random streams, same one-coin-per-step exploration, same buffer draws,
    and the textbook temporal-difference update on the scalar reward.
    """
    env = make_env(config.env)
    lam = np.asarray(lam, dtype=float)
    streams = RunStreams(config.seed)
    buffer = ExperienceBuffer(config.buffer_capacity, config.buffer_replacement)
    q: dict[int, np.ndarray] = {}

    span = config.epsilon_decay_fraction * config.total_steps

    def epsilon(step):
        if span <= 0:
            return config.epsilon_min
        return config.epsilon_start + min(1.0, step / span) * (
            config.epsilon_min - config.epsilon_start)

    def row(state):
        r = q.get(state)
        if r is None:
            r = q[state] = np.zeros(env.n_actions)
        return r

    steps = 0
    iterations = math.ceil(config.total_steps / config.steps_per_iteration) \
        if config.total_steps else 0
    for iteration in range(iterations):
        target = min(config.total_steps, (iteration + 1) * config.steps_per_iteration)
        while steps < target:
            state = env.initial_state(streams.env)
            accrued = np.zeros(env.n_objectives)
            trace = []
            while True:
                if streams.explore.random() < epsilon(steps + len(trace)):
                    action = int(streams.explore.integers(env.n_actions))
                else:
                    action = int(np.argmax(q.get(state, np.zeros(env.n_actions))))
                ns, r, term = env.step(state, action, streams.env)
                done = term or len(trace) + 1 >= env.max_episode_steps
                trace.append(Experience(state, action, r, ns, done, accrued.copy()))
                accrued = accrued + r
                state = ns
                if done:
                    break
            buffer.push(trace)
            steps += len(trace)
        for _ in range(config.update_passes):
            if len(buffer) == 0:
                break
            batch = buffer.sample(config.batch_size, streams.buffer)
            for e in batch:
                reward = float(np.dot(lam, e.reward))
                boot = 0.0 if e.terminal else float(row(e.next_state).max())
                r_ = row(e.state)
                r_[e.action] += config.alpha * (reward + config.gamma * boot - r_[e.action])
    return q

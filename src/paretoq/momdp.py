"""Multi-objective MDPs, episode rollouts, and brute-force value oracles.

A :class:`Momdp` is a finite MDP whose reward is a length-``m`` float vector,
one entry per objective. Objective vectors are plain 1-D numpy arrays
throughout the package; :func:`ensure_objective` validates them at the
boundaries (fixed length, finite entries).

Two benchmark environments ship with the package:

* ``dst-corridor`` -- a five-column seabed corridor. The agent either
  advances along the surface (reward ``(0, -1)``) or dives to collect the
  treasure under the current column (reward ``(treasure, -1)``, terminal).
  Treasures are ``[1, 2, 3, 5, 10]``, so the Pareto front has exactly five
  points of which only the two extremes ``(1, -1)`` and ``(10, -5)`` lie on
  the convex hull. The corridor ends at the last column: advancing there
  collects the deepest treasure.
* ``tiny-tree`` -- a depth-2 deterministic binary tree with four leaves
  valued ``(4,0), (3,1), (1,3), (0,4)``; the smallest environment on which
  every learner can be checked against exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

ENUMERATION_LIMIT = 10**6
# policies evaluated together by the enumeration oracle; bounds its memory
POLICY_BLOCK = 4096


def ensure_objective(values, m: int | None = None) -> np.ndarray:
    """Validate and return an objective vector as a 1-D float array."""
    vec = np.asarray(values, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"objective vector must be 1-D, got shape {vec.shape}")
    if m is not None and vec.shape[0] != m:
        raise ValueError(f"objective vector has length {vec.shape[0]}, expected {m}")
    if not np.isfinite(vec).all():
        raise ValueError(f"objective vector contains non-finite entries: {vec}")
    return vec


def accrued_key(state, accrued) -> tuple:
    """Hashable key ``(state, accrued)`` of an accrued-reward-augmented state.

    ``accrued`` becomes a tuple of Python floats, so an array and a sequence
    of equal values give equal keys. Every table and policy keyed on the
    accrued reward builds its keys here.
    """
    if not isinstance(accrued, np.ndarray) or accrued.dtype.kind != "f":
        accrued = np.asarray(accrued, dtype=float)
    return (state, tuple(accrued.tolist()))


@dataclass(eq=False, slots=True)
class Experience:
    """One environment step.

    ``accrued`` is the undiscounted vector reward accumulated strictly before
    this step (the zero vector on the first step of an episode), so the total
    episodic return of a finished episode is ``accrued + reward`` of its last
    step. ``terminal`` is True for genuine termination and for horizon
    truncation alike; learners bootstrap with zero in both cases.
    """

    state: int
    action: int
    reward: np.ndarray
    next_state: int
    terminal: bool
    accrued: np.ndarray


def _state_index(ns, s: int, a: int) -> int:
    """``ns``, the next state of ``(s, a)``, as an int; a value no int equals is an error."""
    try:
        index = int(ns)
    except (TypeError, ValueError, OverflowError):
        index = None
    if index is None or index != ns:
        raise ValueError(f"next state {ns!r} for state {s}, action {a} is not an integer")
    return index


class Momdp:
    """Finite multi-objective MDP with an explicit transition table.

    ``transitions[s][a]`` is a list of outcomes ``(prob, next_state, reward,
    terminal)``. Probabilities of each outcome list must sum to 1 within
    1e-12 and every reward must be a finite length-``m`` vector. Instances
    are immutable descriptions; all rollout state lives in the caller.
    """

    def __init__(self, n_states, n_actions, n_objectives, transitions,
                 initial_dist, max_episode_steps, name="momdp",
                 hv_reference_default=None):
        if n_states < 1 or n_actions < 1 or n_objectives < 1:
            raise ValueError("state, action and objective counts must be positive")
        if max_episode_steps < 1:
            raise ValueError("max_episode_steps must be positive")
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.n_objectives = int(n_objectives)
        self.max_episode_steps = int(max_episode_steps)
        self.name = name

        self._transitions = []
        for s in range(self.n_states):
            row = []
            for a in range(self.n_actions):
                outcomes = [
                    (float(p), _state_index(ns, s, a), ensure_objective(r, self.n_objectives),
                     bool(term))
                    for p, ns, r, term in transitions[s][a]
                ]
                for p, ns, *_ in outcomes:
                    if not 0.0 <= p <= 1.0:
                        raise ValueError(f"transition probability {p!r} for state {s}, "
                                         f"action {a} is outside [0, 1]")
                    if not 0 <= ns < self.n_states:
                        raise ValueError(f"next state {ns} for state {s}, action {a} is "
                                         f"outside [0, {self.n_states})")
                total = sum(p for p, *_ in outcomes)
                if abs(total - 1.0) > 1e-12:
                    raise ValueError(
                        f"transition probabilities for state {s}, action {a} "
                        f"sum to {total!r}, expected 1")
                row.append(outcomes)
            self._transitions.append(row)

        self.initial_dist = np.asarray(initial_dist, dtype=float)
        if self.initial_dist.shape != (self.n_states,):
            raise ValueError("initial distribution must have one entry per state")
        for s, p in enumerate(self.initial_dist.tolist()):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"initial probability {p!r} of state {s} is outside [0, 1]")
        if abs(self.initial_dist.sum() - 1.0) > 1e-12:
            raise ValueError(f"initial distribution sums to {self.initial_dist.sum()!r}")

        self.hv_reference_default = (
            None if hv_reference_default is None
            else ensure_objective(hv_reference_default, self.n_objectives))
        self._support = np.flatnonzero(self.initial_dist)
        self._cdf = np.cumsum(self.initial_dist)
        self.deterministic = self._support.size == 1 and all(
            len(outcomes) == 1 for row in self._transitions for outcomes in row)

    def outcomes(self, state: int, action: int):
        """Outcome list ``[(prob, next_state, reward, terminal), ...]``."""
        return self._transitions[state][action]

    def initial_state(self, rng: np.random.Generator | None = None) -> int:
        if self._support.size == 1:
            return int(self._support[0])
        # inverse-CDF draw; a single uniform keeps stream usage predictable. A draw
        # past a CDF end that rounding left below 1 takes the last start state
        u = rng.random()
        return min(int(np.searchsorted(self._cdf, u, side="right")), int(self._support[-1]))

    def step(self, state: int, action: int, rng: np.random.Generator | None = None):
        """Sample one transition; returns ``(next_state, reward, terminal)``.

        Deterministic transitions consume no randomness.
        """
        outcomes = self._transitions[state][action]
        if len(outcomes) == 1:
            p, ns, r, term = outcomes[0]
            return ns, r, term
        u = rng.random()
        acc = 0.0
        for p, ns, r, term in outcomes:
            acc += p
            if u < acc:
                return ns, r, term
        return outcomes[-1][1:]


class _EsrRow(list):
    """An ESR row: one Python float per action, ``visits``, one int count per action,
    and ``greedy``, its :func:`greedy_action` kept by its writer, or None if unknown."""

    __slots__ = ("visits", "greedy")


def greedy_action(row) -> int:
    """The first maximum of ``row`` (Python's ``max``); an ESR row's kept action when
    known (see :mod:`paretoq.learning`). On the finite values of every table this is
    ``ndarray.argmax``; a hand-built row holding a NaN still gets one fixed answer."""
    if type(row) is _EsrRow and row.greedy is not None:
        return row.greedy
    if not isinstance(row, list):
        row = list(row)
    return row.index(max(row))


@dataclass(slots=True)
class TabularPolicy:
    """Greedy action preferences per (augmented) state.

    ``preferences`` maps a state key (for augmented policies
    :func:`accrued_key` of ``(state, accrued)``) to a row of one real per
    action: a list of floats as learners hand them out, or an array.
    :meth:`action` is :func:`greedy_action` of the row, so ties go to the
    lowest action. ``default_row`` backs states absent from the table;
    without it, visiting an unknown state is an error. The policy reads
    ``preferences`` on every call and never writes to it, so it may be a
    learner's live table. Exploration belongs to :func:`rollout`.
    """

    preferences: dict = field(default_factory=dict)
    augmented: bool = False
    default_row: list | np.ndarray | None = None

    def action(self, state, accrued=None) -> int:
        return self.action_at(accrued_key(state, accrued) if self.augmented else state)

    def action_at(self, key) -> int:
        """:meth:`action` at the table key ``key``: the state, or if augmented its
        :func:`accrued_key`."""
        prefs = self.preferences.get(key, self.default_row)
        if prefs is None:
            raise ValueError(f"unreachable-state policy gap: no preferences for state {key!r}")
        return greedy_action(prefs)


def rollout(env: Momdp, policy: TabularPolicy, rng_seed=0, epsilon=None, explore=None, tree=None):
    """Run one episode; returns ``(trace, episodic_return)``.

    The trace is a list of :class:`Experience`, which the learners' update
    functions take as one batch; the return is the component-wise
    (undiscounted) sum of its rewards. Episodes stop on a terminal
    transition or after ``env.max_episode_steps`` steps; truncation is
    recorded as terminal. ``epsilon``, when given, maps a step's index in
    the episode to an exploration probability: each step draws exactly one
    coin from ``explore`` (by default the env generator,
    ``default_rng(rng_seed)``), plus one uniform action when the coin
    explores; other steps take ``policy.action``. This fixed pattern keeps
    runs with equal seeds identical. Without ``epsilon`` no coin is drawn.

    Given a :class:`StepTree` of ``env``, the episode walks it with equal draws
    and actions; a prefix walked before costs no env step. The trace is then
    the one :class:`_Episode` of its action sequence and the return its last
    node's accrued array: both are shared with later walks, so read-only.
    """
    rng = np.random.default_rng(rng_seed)
    explore = rng if explore is None else explore
    if tree is not None:
        if tree.env is not env:
            raise ValueError(f"a step tree of {tree.env.name!r} cannot walk {env.name!r}")
        node = tree.walk(policy, epsilon, explore)
        return node.episode, node.accrued
    state = env.initial_state(rng)
    accrued = np.zeros(env.n_objectives)
    trace: list[Experience] = []
    while True:
        if epsilon is not None and explore.random() < epsilon(len(trace)):
            action = int(explore.integers(env.n_actions))
        else:
            action = policy.action(state, accrued)
        next_state, reward, terminal = env.step(state, action, rng)
        done = terminal or len(trace) + 1 >= env.max_episode_steps
        trace.append(Experience(state, action, reward, next_state, done, accrued))
        accrued = accrued + reward   # a new array: each step keeps its own
        state = next_state
        if done:
            return trace, accrued


class _Episode(list):
    """An interned episode, the one read-only copy that every buffer holding it
    shares; ``replay`` keeps its :func:`update_esr_mc` plan once built."""

    replay = None


class _Node:
    """An action prefix: the state it reaches, the reward accrued on the way and its
    key, its last step and parent, its children by action, and once terminal its
    episode and ``value``, the episode's discounted return at the tree's gamma."""

    __slots__ = ("state", "accrued", "key", "step", "parent", "children", "episode", "value")

    def __init__(self, state, accrued, step=None, parent=None):
        self.state, self.accrued, self.key = state, accrued, accrued_key(state, accrued)
        self.step, self.parent, self.children = step, parent, {}
        self.episode = self.value = None


class StepTree:
    """The sampled action prefixes of a deterministic env, each stepped once (the actions
    fix every field of every step there); past ``capacity`` steps, a walk restarts it.
    A terminal node is valued at ``gamma`` once, when it is made, so a tree serves
    one ``(env, gamma)``."""

    def __init__(self, env: Momdp, capacity: int, gamma: float):
        if not env.deterministic:
            raise ValueError(f"environment {env.name!r} is not deterministic")
        self.env, self.capacity, self.gamma, self.root, self.size = env, capacity, gamma, None, 0

    def walk(self, policy: TabularPolicy, epsilon=None, explore=None) -> _Node:
        """The terminal node of :func:`rollout`'s draws and actions (greedy without
        ``epsilon``); the policy acts at each node's key."""
        env, action_at, augmented = self.env, policy.action_at, policy.augmented
        if self.root is None or self.size > self.capacity:   # a fresh root
            self.root, self.size = _Node(env.initial_state(), np.zeros(env.n_objectives)), 0
        node, depth = self.root, 0
        while node.episode is None:
            if epsilon is not None and explore.random() < epsilon(depth):
                action = int(explore.integers(env.n_actions))
            else:
                action = action_at(node.key if augmented else node.state)
            node = node.children.get(action) or self._grow(node, action, depth)
            depth += 1
        return node

    def _grow(self, node: _Node, action: int, depth: int) -> _Node:
        next_state, reward, terminal = self.env.step(node.state, action)
        done = terminal or depth + 1 >= self.env.max_episode_steps
        step = Experience(node.state, action, reward, next_state, done, node.accrued)
        child = node.children[action] = _Node(next_state, node.accrued + reward, step, node)
        self.size += 1
        if done:
            steps, at = [], child
            while at.step is not None:
                steps.append(at.step)
                at = at.parent
            child.episode = _Episode(reversed(steps))
            child.value = np.array(_discounted_sum(child.episode, self.gamma))
        return child


def evaluate_policy(env: Momdp, policy: TabularPolicy, episodes: int,
                    gamma: float, rng_seed=0) -> np.ndarray:
    """Average discounted vector return over ``episodes`` greedy :func:`rollout`
    episodes, all drawn from one generator, ``default_rng(rng_seed)``.

    Exact (zero variance) for a deterministic environment, in which case a
    single episode is walked since all episodes coincide.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(rng_seed)
    runs = 1 if env.deterministic else episodes
    total = [0.0] * env.n_objectives
    for _ in range(runs):
        trace, _ = rollout(env, policy, rng)
        total = [t + v for t, v in zip(total, _discounted_sum(trace, gamma))]
    return np.array(total) / runs


def _discounted_sum(episode, gamma: float) -> list:
    """An episode's discounted vector return, as Python floats summed over its steps
    in order from ``+0.0``, so never ``-0.0``."""
    value, discount = [0.0] * len(episode[0].reward), 1.0
    for step in episode:
        value = [v + discount * r for v, r in zip(value, step.reward.tolist())]
        discount *= gamma
    return value


def enumerate_deterministic_policies(env: Momdp, gamma: float) -> list:
    """Exhaustive ``(actions, exact value)`` pairs for every deterministic
    policy, ``actions[s]`` the action it takes in state ``s``.

    Values come from exact finite-horizon dynamic programming over the
    horizon ``env.max_episode_steps`` with truncation treated as
    termination, not from sampling. Policies come in ``itertools.product``
    order and are evaluated together, :data:`POLICY_BLOCK` at a time, which
    bounds memory. The start average sums ``initial_dist[s] * value[s]`` over
    the states in order from ``+0.0``, so no BLAS kernel picks its order;
    for a one-hot start it is the start state's value, bit for bit. Value
    rows are read-only. Guarded against combinatorial blowup:
    ``n_actions ** n_states`` may not exceed 10**6.
    """
    count = env.n_actions ** env.n_states
    if count > ENUMERATION_LIMIT:
        raise ValueError(
            f"oracle too large: {env.n_actions}^{env.n_states} = {count} "
            f"deterministic policies exceeds the {ENUMERATION_LIMIT} bound")
    table = _OutcomeTable(env)
    assignments = itertools.product(range(env.n_actions), repeat=env.n_states)
    results = []
    while block := list(itertools.islice(assignments, POLICY_BLOCK)):
        actions = np.array(block, dtype=np.intp)
        u = table.policy_values(actions, gamma)
        values = np.zeros((len(actions), env.n_objectives))
        for s in range(env.n_states):   # every policy of the block at once
            values += env.initial_dist[s] * u[:, s]
        values.flags.writeable = False
        results += zip(actions, values)
    return results


class _OutcomeTable:
    """Outcome lists of an env as ``(outcome, [objective,] state, action)`` arrays.

    Each ``(s, a)`` list is padded to the longest one with probability-0
    terminal outcomes of zero reward. Adding their ``0.0`` changes no sum,
    because a sum that starts from ``+0.0`` never reads ``-0.0``.
    """

    def __init__(self, env: Momdp):
        self.horizon = env.max_episode_steps
        shape = (max(len(env.outcomes(s, a)) for s in range(env.n_states)
                     for a in range(env.n_actions)), env.n_states, env.n_actions)
        self.prob = np.zeros(shape)
        self.next_state = np.zeros(shape, dtype=np.intp)
        self.reward = np.zeros((shape[0], env.n_objectives) + shape[1:])
        self.terminal = np.ones(shape, dtype=bool)
        for s in range(env.n_states):
            for a in range(env.n_actions):
                for k, (p, ns, r, term) in enumerate(env.outcomes(s, a)):
                    self.prob[k, s, a], self.next_state[k, s, a] = p, ns
                    self.reward[k, :, s, a], self.terminal[k, s, a] = r, term

    def policy_values(self, actions: np.ndarray, gamma: float) -> np.ndarray:
        """Value-to-go ``(policy, state, objective)`` of each row of actions.

        Every entry is summed over outcomes in list order from zero, the
        float sequence of a per-state loop, so each policy's values are
        bit-identical to evaluating it alone.
        """
        n_policies, n_states = actions.shape
        m = self.reward.shape[1]
        states = np.arange(n_states)
        n_outcomes = len(self.prob)
        # one column per (policy, state) pair, objectives along the rows
        prob = self.prob[:, states, actions].reshape(n_outcomes, 1, -1)
        reward = self.reward[:, :, states, actions].reshape(n_outcomes, m, -1)
        terminal = self.terminal[:, states, actions].reshape(n_outcomes, 1, -1)
        # the column of u that each outcome bootstraps from
        source = (self.next_state[:, states, actions]
                  + n_states * np.arange(n_policies)[:, None]).reshape(n_outcomes, -1)
        u = np.zeros((m, n_policies * n_states))
        for _ in range(self.horizon):
            nxt = np.zeros_like(u)
            for k in range(n_outcomes):
                # nxt += p * (r if terminal else r + gamma * u[next_state]);
                # boot + r has the bits of r + boot, as IEEE addition commutes
                boot = gamma * np.take(u, source[k], axis=1)
                boot += reward[k]
                nxt += prob[k] * np.where(terminal[k], reward[k], boot)
            u = nxt
        return np.ascontiguousarray(u.T).reshape(n_policies, n_states, m)


def dst_corridor() -> Momdp:
    """Five-column treasure corridor; see the module docstring."""
    treasures = [1.0, 2.0, 3.0, 5.0, 10.0]
    depth = len(treasures)
    transitions = []
    for col in range(depth):
        descend = [(1.0, col, np.array([treasures[col], -1.0]), True)]
        if col + 1 < depth:
            advance = [(1.0, col + 1, np.array([0.0, -1.0]), False)]
        else:
            # the corridor ends here: the wall forces the dive
            advance = [(1.0, col, np.array([treasures[col], -1.0]), True)]
        transitions.append([advance, descend])
    mu0 = np.zeros(depth)
    mu0[0] = 1.0
    return Momdp(depth, 2, 2, transitions, mu0, max_episode_steps=depth + 1,
                 name="dst-corridor", hv_reference_default=(0.0, -50.0))


def tiny_tree() -> Momdp:
    """Depth-2 binary tree with four distinctly valued leaves."""
    leaves = {(1, 0): (4.0, 0.0), (1, 1): (3.0, 1.0),
              (2, 0): (1.0, 3.0), (2, 1): (0.0, 4.0)}
    transitions = [
        [[(1.0, 1, np.zeros(2), False)], [(1.0, 2, np.zeros(2), False)]],
        [[(1.0, 1, np.array(leaves[(1, 0)]), True)],
         [(1.0, 1, np.array(leaves[(1, 1)]), True)]],
        [[(1.0, 2, np.array(leaves[(2, 0)]), True)],
         [(1.0, 2, np.array(leaves[(2, 1)]), True)]],
    ]
    mu0 = np.array([1.0, 0.0, 0.0])
    return Momdp(3, 2, 2, transitions, mu0, max_episode_steps=3,
                 name="tiny-tree", hv_reference_default=(-1.0, -1.0))


_REGISTRY = {
    "dst-corridor": dst_corridor,
    "tiny-tree": tiny_tree,
}


def register_env(env_id: str, factory) -> None:
    """Register a factory under a string id for :func:`make_env`."""
    _REGISTRY[env_id] = factory


def make_env(env_id: str) -> Momdp:
    try:
        factory = _REGISTRY[env_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown environment id {env_id!r} (known: {known})") from None
    return factory()

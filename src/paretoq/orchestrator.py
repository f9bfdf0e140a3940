"""Decomposed multi-policy training loop.

One run maintains ``n`` subproblems, each a weight vector, a learner table
and its caches (see :class:`Subproblem`); ``_UPDATES`` maps each table kind
to its update. The run state holds the experience buffers (one per
subproblem, or one shared by all) and the buffers each subproblem replays
from, so a report carries no buffer. On a deterministic env it also holds a
step tree, which the sampled episodes walk (see ``momdp.rollout``).
Every iteration rotates the sampling role through the population, gathers
whole episodes with that subproblem's epsilon-greedy policy, improves *all*
subproblems from their visible buffers, evaluates every greedy policy, and
folds the evaluations into the external Pareto archive. Weight and
reference-point adaptation fire on a fixed environment-step period;
cooperation (buffer sharing or one-shot table transfer) runs at the end of
each iteration.

Runs are deterministic functions of their config (seed included): all
randomness flows through the named streams in :mod:`paretoq.rng`, so two
runs with equal configs produce identical reports on any platform.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .archive import ParetoArchive, prune
from .decomposition import (
    Scalarization,
    ReferencePoint,
    TCHEBYCHEFF,
    WEIGHTED_SUM,
    adapt_weights_psa,
    build_neighborhood,
    generate_weights_uniform,
    lattice_divisions,
    nearest_objective_neighbor,
    select_subproblem,
)
from .learning import (
    DIVERSE_CROWDING,
    FIFO,
    ExperienceBuffer,
    QTableEnvelope,
    QTableEsr,
    QTableScalar,
    QTableVector,
    _item,
    greedy_policy,
    serialize_table,
    update_envelope_q,
    update_esr_mc,
    update_scalarized_q,
    update_vector_q,
)
from .momdp import (ENUMERATION_LIMIT, Momdp, StepTree, enumerate_deterministic_policies,
                    evaluate_policy, make_env, rollout)
from .rng import RunStreams

LEARNERS = ("scalarized-q", "vector-q", "envelope-q", "esr-mc")
COOPERATION_MODES = ("none", "shared-buffer", "shared-buffer-neighborhood", "transfer")


@dataclass
class RunConfig:
    """Every knob of one training run. See README for the key glossary."""

    env: str = "dst-corridor"
    population_size: int = 10
    total_steps: int = 50_000
    steps_per_iteration: int = 10
    update_passes: int = 10
    batch_size: int = 32
    gamma: float = 1.0
    alpha: float = 0.1
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay_fraction: float = 0.5
    scalarization: str = WEIGHTED_SUM
    delta: float = 1.05
    tau: float = 0.5
    psa_enabled: bool = False
    psa_period_steps: int = 1000
    cooperation: str = "none"
    neighborhood_k: int = 2
    eval_episodes: int = 5
    buffer_capacity: int = 100_000
    buffer_replacement: str = FIFO
    learner: str = "scalarized-q"
    seed: int = 0
    hv_reference: tuple | None = None
    eum_weights: int = 101
    checkpoint_stride: int = 10

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            is_bool = isinstance(value, (bool, np.bool_))
            if kind is bool and not is_bool:
                raise ValueError(f"{f.name} must be a bool, got {value!r}")
            if kind is int and type(value) is not int and not isinstance(value, np.integer):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if kind is float and (is_bool or not isinstance(value, numbers.Real)):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if kind is float and isinstance(value, np.floating) and value.dtype != np.float64:
                raise ValueError(f"{f.name} must be a float64 (a snapshot cannot repeat "
                                 f"{value.dtype} arithmetic), got {value!r}")
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        checks = [
            (self.population_size >= 1, "population_size must be >= 1"),
            (self.total_steps >= 0, "total_steps must be >= 0"),
            (self.steps_per_iteration >= 1, "steps_per_iteration must be >= 1"),
            (self.update_passes >= 1, "update_passes must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (0.0 <= self.gamma <= 1.0, "gamma must be in [0, 1]"),
            (0.0 < self.alpha <= 1.0, "alpha must be in (0, 1]"),
            (0.0 <= self.epsilon_min <= self.epsilon_start <= 1.0,
             "epsilon_start and epsilon_min must satisfy 0 <= epsilon_min <= epsilon_start <= 1"),
            (0.0 <= self.epsilon_decay_fraction <= 1.0,
             "epsilon_decay_fraction must be in [0, 1]"),
            (self.scalarization in (WEIGHTED_SUM, TCHEBYCHEFF),
             f"scalarization must be one of {WEIGHTED_SUM!r}, {TCHEBYCHEFF!r}"),
            (self.delta > 1.0, "delta must be > 1"),
            (self.tau >= 0.0, "tau must be >= 0"),
            (self.psa_period_steps >= 1, "psa_period_steps must be >= 1"),
            (self.cooperation in COOPERATION_MODES,
             f"cooperation must be one of {COOPERATION_MODES}"),
            (self.neighborhood_k >= 0, "neighborhood_k must be >= 0"),
            (self.eval_episodes >= 1, "eval_episodes must be >= 1"),
            (self.buffer_capacity >= 1, "buffer_capacity must be >= 1"),
            (self.buffer_replacement in (FIFO, DIVERSE_CROWDING),
             f"buffer_replacement must be one of {FIFO!r}, {DIVERSE_CROWDING!r}"),
            (self.learner in LEARNERS, f"learner must be one of {LEARNERS}"),
            # the Monte-Carlo target is the undiscounted episodic return, while
            # the archive scores discounted evaluations
            (self.learner != "esr-mc" or self.gamma == 1.0,
             "learner 'esr-mc' requires gamma = 1 (its target is the undiscounted "
             "episodic return)"),
            (self.eum_weights >= 2, "eum_weights must be >= 2"),
            (self.checkpoint_stride >= 1, "checkpoint_stride must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)
        env = make_env(self.env)  # raises a descriptive error for unknown ids
        for key in ("population_size", "eum_weights"):   # one subproblem sits at the center
            n = getattr(self, key)
            if n > 1 and lattice_divisions(env.n_objectives, n) is None:
                raise ValueError(f"{key} = {n} fits no weight set of {env.n_objectives} objectives")
        ref = _hv_reference(self, env)
        if ref.shape != (env.n_objectives,):
            raise ValueError(f"hv_reference has {ref.size} entries; environment {self.env!r} "
                             f"has {env.n_objectives} objectives")
        if not np.isfinite(ref).all():
            raise ValueError(f"hv_reference entries must be finite, got {ref.tolist()}")
        worst = _worst_return(env, self.gamma)
        if not all(z < w for z, w in zip(ref.tolist(), worst)):
            raise ValueError(f"hv_reference {ref.tolist()} must lie strictly below the worst "
                             f"return of any episode, {worst}, in every objective")
        return self


@dataclass(eq=False)
class Subproblem:
    """One scalar subproblem of the decomposition: a weight, a learner table and
    three caches, each with one reuse rule. Pickles and copies, so the subproblems
    of a report too, leave the caches out.

    * ``walk`` (deterministic envs only): the last greedy value, its table, the
      table's ``flips`` and its gamma. The value is reused under that gamma while
      that table counts flips (ESR), is still the learner and its count stays put.
      Other greedy policies walk the run's step tree, whose terminal node keeps
      its value (see :func:`evaluate_population`).
    * ``offer``: the last array the archive checked and its ``inserts`` then;
      that array is not checked again until the archive's next insert.
    * ``scores``: the replay updates' score memo, cleared by ``_adapt``, the only
      place the weight and the reference point change.
    """

    index: int
    weight: np.ndarray
    learner: object
    last_eval: np.ndarray | None = None
    trained: bool = False
    transferred: bool = False
    walk: tuple = ()
    offer: tuple = (None, -1)
    scores: dict = field(default_factory=dict)

    def __reduce__(self):
        return type(self), (self.index, self.weight, self.learner, self.last_eval,
                            self.trained, self.transferred)


@dataclass
class CheckpointRecord:
    step: int
    hypervolume: float
    igd: float | None
    sparsity: float
    eum: float
    archive_size: int


@dataclass(eq=False)
class RunReport:
    config: RunConfig
    checkpoints: list[CheckpointRecord] = field(default_factory=list)
    archive: ParetoArchive | None = None
    subproblems: list[Subproblem] = field(default_factory=list)
    total_env_steps: int = 0
    total_episodes: int = 0


@dataclass(eq=False)
class RunState:
    config: RunConfig
    env: Momdp
    streams: RunStreams
    scalarization: Scalarization
    reference: ReferencePoint
    subproblems: list[Subproblem]
    buffers: list       # per subproblem; one object repeated under shared-buffer
    visible: list       # per subproblem, the buffers it replays from
    archive: ParetoArchive
    neighborhood: list
    hv_reference: np.ndarray
    eum_weight_set: list
    reference_front: np.ndarray | None
    steps_done: int = 0
    episodes_done: int = 0
    _adapt_marker: int = 0
    tree: StepTree | None = None   # deterministic envs only; see rollout


def _make_learner(config: RunConfig, env: Momdp, weights):
    if config.learner == "scalarized-q":
        return QTableScalar(env.n_actions, config.alpha, config.gamma)
    if config.learner == "vector-q":
        return QTableVector(env.n_actions, env.n_objectives, config.alpha, config.gamma)
    if config.learner == "envelope-q":
        return QTableEnvelope(env.n_actions, env.n_objectives, weights, config.alpha, config.gamma)
    return QTableEsr(env.n_actions, env.n_objectives, config.alpha, config.gamma)


def _true_front(env: Momdp, gamma: float) -> np.ndarray | None:
    """Reference front from the enumeration oracle, when tractable."""
    if env.n_actions ** env.n_states > ENUMERATION_LIMIT:
        return None
    values = [v for _, v in enumerate_deterministic_policies(env, gamma)]
    return np.array([v for v, _ in prune((v, None) for v in values)])


def _worst_return(env: Momdp, gamma: float) -> list:
    """Per objective, the lowest discounted return any episode can pay.

    A min-DP over (state, steps-to-go) on plain floats: every action and
    every outcome with positive probability counts, and truncation at
    ``max_episode_steps`` ends an episode like termination does.
    """
    m = env.n_objectives
    outcomes = [[(ns, r.tolist(), term)
                 for a in range(env.n_actions) for p, ns, r, term in env.outcomes(s, a) if p > 0]
                for s in range(env.n_states)]
    worst = [[0.0] * m for _ in range(env.n_states)]   # no steps to go
    for _ in range(env.max_episode_steps):
        worst = [[min(r[i] + (0.0 if term else gamma * worst[ns][i]) for ns, r, term in row)
                  for i in range(m)] for row in outcomes]
    starts = np.flatnonzero(env.initial_dist).tolist()
    return [min(worst[s][i] for s in starts) for i in range(m)]


def _hv_reference(config: RunConfig, env: Momdp) -> np.ndarray:
    """The configured (or the env's default) hypervolume reference point;
    validation rejects it unless it lies below every return a run can archive."""
    if config.hv_reference is None:
        if env.hv_reference_default is None:
            raise ValueError("hv_reference must be set for environments without a default")
        return env.hv_reference_default
    try:
        return np.asarray(config.hv_reference, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"hv_reference must be numbers, got {config.hv_reference!r}") from None


def initialize(config: RunConfig, streams: RunStreams | None = None) -> RunState:
    """Build the starting population, archive, neighborhood, and buffers.

    Weights are spread uniformly (a single subproblem sits at the simplex
    center), learner tables start at zero, and the archive is seeded with
    the evaluations of the initial greedy policies. A hypervolume reference
    the run could not honour is rejected by validation before that.
    """
    config.validate()
    env = make_env(config.env)
    streams = streams or RunStreams(config.seed)
    n, m = config.population_size, env.n_objectives
    hv_reference = _hv_reference(config, env)
    weights = [np.full(m, 1.0 / m)] if n == 1 else generate_weights_uniform(m, n)

    reference = ReferencePoint(m=m, tau=config.tau)
    scalarization = Scalarization(
        config.scalarization,
        reference if config.scalarization == TCHEBYCHEFF else None)

    if config.cooperation == "shared-buffer":
        buffers = [ExperienceBuffer(config.buffer_capacity, config.buffer_replacement)] * n
    else:
        buffers = [ExperienceBuffer(config.buffer_capacity, config.buffer_replacement)
                   for _ in range(n)]

    subproblems = [Subproblem(i, w, _make_learner(config, env, weights))
                   for i, w in enumerate(weights)]
    neighborhood = build_neighborhood(weights, config.neighborhood_k)

    archive = ParetoArchive()
    tree = StepTree(env, config.buffer_capacity) if env.deterministic else None
    evals = evaluate_population(subproblems, env, config.eval_episodes, config.gamma,
                                streams.eval, tree)
    reference.update(evals)
    _archive_population(archive, subproblems, 0)

    state = RunState(
        config=config, env=env, streams=streams, scalarization=scalarization,
        reference=reference, subproblems=subproblems, buffers=buffers,
        visible=[[buf] for buf in buffers], archive=archive,
        neighborhood=neighborhood, hv_reference=hv_reference,
        eum_weight_set=generate_weights_uniform(m, config.eum_weights),
        reference_front=_true_front(env, config.gamma),
        tree=tree,
    )
    cooperate(state)
    return state


def evaluate_population(subproblems, env: Momdp, episodes: int, gamma: float, rng,
                        tree: StepTree | None = None):
    """Evaluate every subproblem's greedy policy; refresh ``last_eval``. On a
    deterministic env each ``Subproblem.walk`` is reused or renewed by its rule.
    Given ``env``'s step tree, a greedy policy walks it, and the terminal node's
    value (computed once per gamma, by :func:`evaluate_policy`) is the evaluation."""
    if tree is not None and tree.env is not env:
        raise ValueError(f"a step tree of {tree.env.name!r} cannot walk {env.name!r}")
    for sp in subproblems:
        q = sp.learner
        value, table, flips, walked = sp.walk or (None,) * 4
        if walked == gamma and table is q and flips == q.flips and flips is not None:
            sp.last_eval = value
            continue
        policy = greedy_policy(q, sp.weight)
        if tree is None:
            sp.last_eval = evaluate_policy(env, policy, episodes, gamma, rng)
        else:
            node = tree.walk(policy)
            if node.value is None or node.value[0] != gamma:
                node.value = (gamma, evaluate_policy(env, policy, 1, gamma))
            sp.last_eval = node.value[1]
        if env.deterministic:
            sp.walk = (sp.last_eval, q, q.flips, gamma)
    return [sp.last_eval for sp in subproblems]


def _archive_population(archive: ParetoArchive, subproblems, step: int):
    """Offer each subproblem's last evaluation, unless its ``offer`` rules it out,
    to the archive, storing the serialized table of each one it accepts."""
    for sp in subproblems:
        last, inserts = sp.offer
        if last is sp.last_eval and inserts == archive.inserts:
            continue
        sp.offer = (sp.last_eval, archive.inserts)
        if archive.would_accept(sp.last_eval):
            archive.insert(sp.last_eval, serialize_table(sp.learner).encode(),
                           subproblem=sp.index, step=step)


def cooperate(state: RunState):
    """Apply the configured cooperation step to the population.

    ``none`` and ``shared-buffer`` do nothing (the shared buffer is one
    object by construction). ``shared-buffer-neighborhood`` lets each
    subproblem replay from its own buffer and its neighbors' (refreshed, as
    the neighborhood changes with the weights). ``transfer`` hands each
    never-trained subproblem a one-time deep copy of its nearest trained
    neighbor's table.
    """
    mode = state.config.cooperation
    if mode == "shared-buffer-neighborhood":
        buffers = state.buffers
        state.visible = [[buffers[i]] + [buffers[j] for j in others]
                         for i, others in enumerate(state.neighborhood)]
    if mode != "transfer":
        return
    subproblems = state.subproblems
    for sp in subproblems:
        if sp.trained or sp.transferred:
            continue
        donors = [(float(np.linalg.norm(sp.weight - other.weight)), other.index, other)
                  for other in subproblems if other.trained]
        if not donors:
            continue
        _, _, donor = min(donors, key=lambda item: (item[0], item[1]))
        sp.learner = copy.deepcopy(donor.learner)
        sp.transferred = True


def _epsilon_schedule(config: RunConfig, first: int = 0):
    """The exploration probability of step ``t`` of an episode whose step 0 is the
    run's step ``first``: linear from ``epsilon_start`` to ``epsilon_min``."""
    span = config.epsilon_decay_fraction * config.total_steps
    start, low = config.epsilon_start, config.epsilon_min
    if span <= 0:
        return lambda t: low
    return lambda t: start + min(1.0, (first + t) / span) * (low - start)


def _episodes(visible):
    """``(item, count)`` of the complete episodes of ``visible``, read end to end."""
    if len(visible) == 1:
        episodes = visible[0].complete_episodes()
        return episodes.__getitem__, len(episodes)
    parts = [buf.complete_episodes() for buf in visible]
    return functools.partial(_item, parts), sum(map(len, parts))


# Each table kind's update of subproblem ``sp`` from one pick: a sampled batch,
# or for ESR a complete episode. The names resolve here when called.
_UPDATES = {
    "scalar": lambda sp, g, pick: update_scalarized_q(sp.learner, pick, g, sp.weight, sp.scores),
    "vector": lambda sp, g, pick: update_vector_q(sp.learner, pick, sp.weight),
    "envelope": lambda sp, g, pick: update_envelope_q(sp.learner, pick),
    "esr": lambda sp, g, pick: update_esr_mc(sp.learner, pick, g, sp.weight, sp.scores),
}


def _improve_all(state: RunState):
    """``update_passes`` improvement passes for every subproblem that sees any
    experience: a sampled batch per pass, or for ``esr-mc`` one complete episode
    per pass, picked by one draw per round equal to a call per pick."""
    cfg, rng, passes = state.config, state.streams.buffer, state.config.update_passes
    pairs = zip(state.subproblems, state.visible)
    if cfg.learner == "esr-mc":
        seen = [(sp, *_episodes(visible)) for sp, visible in pairs]
        rounds = [(sp, item, count) for sp, item, count in seen if count for _ in range(passes)]
        draws = rng.integers(0, [count for _, _, count in rounds]).tolist()
        picks = [(sp, item(draw)) for (sp, item, _), draw in zip(rounds, draws)]
    else:
        picks = [(sp, visible[0].sample(cfg.batch_size, rng, *visible[1:]))
                 for sp, visible in pairs if any(map(len, visible)) for _ in range(passes)]
    for sp, pick in picks:
        _UPDATES[sp.learner.kind](sp, state.scalarization, pick)


def _adapt(state: RunState):
    """Periodic reference-point update and (optionally) weight adaptation."""
    for sp in state.subproblems:   # scores read the weight and the reference point
        sp.scores.clear()
    archive_evals = [entry.eval for entry in state.archive]
    state.reference.update(archive_evals)
    if not state.config.psa_enabled:
        return
    changed = False
    for sp in state.subproblems:
        pick = nearest_objective_neighbor(sp.last_eval, archive_evals)
        if pick is None:
            continue
        sp.weight = adapt_weights_psa(sp.weight, sp.last_eval, archive_evals[pick],
                                      state.config.delta)
        changed = True
    if changed:
        weights = [sp.weight for sp in state.subproblems]
        state.neighborhood = build_neighborhood(weights, state.config.neighborhood_k)
        for sp in state.subproblems:
            if sp.learner.kind == "envelope":
                sp.learner.weights = weights


def _record_checkpoint(report: RunReport, state: RunState):
    evals = state.archive.evals()
    record = CheckpointRecord(
        step=state.steps_done,
        hypervolume=metrics.hypervolume(evals, state.hv_reference,
                                        rng=state.streams.metrics),
        igd=(metrics.igd(evals, state.reference_front)
             if state.reference_front is not None else None),
        sparsity=metrics.sparsity(evals),
        eum=metrics.expected_utility(evals, state.eum_weight_set),
        archive_size=len(state.archive),
    )
    if report.checkpoints and report.checkpoints[-1].step == record.step:
        report.checkpoints[-1] = record
    else:
        report.checkpoints.append(record)


def run(config: RunConfig) -> RunReport:
    """Execute one full training run; deterministic given the config."""
    state = initialize(config)
    cfg = state.config
    report = RunReport(config=cfg)
    _record_checkpoint(report, state)

    iterations = math.ceil(cfg.total_steps / cfg.steps_per_iteration) if cfg.total_steps else 0
    for iteration in range(iterations):
        sp = state.subproblems[select_subproblem(iteration, cfg.population_size)]
        target = min(cfg.total_steps, (iteration + 1) * cfg.steps_per_iteration)
        behavior = greedy_policy(sp.learner, sp.weight) if state.steps_done < target else None
        while state.steps_done < target:   # the table stays as it is while sampling
            episode, _ = rollout(state.env, behavior, state.streams.env,
                                 _epsilon_schedule(cfg, state.steps_done), state.streams.explore,
                                 tree=state.tree)
            state.buffers[sp.index].push(episode)
            sp.trained = True
            state.steps_done += len(episode)
            state.episodes_done += 1

        _improve_all(state)
        evaluate_population(state.subproblems, state.env, cfg.eval_episodes,
                            cfg.gamma, state.streams.eval, state.tree)
        _archive_population(state.archive, state.subproblems, state.steps_done)

        if state.steps_done // cfg.psa_period_steps > state._adapt_marker:
            state._adapt_marker = state.steps_done // cfg.psa_period_steps
            _adapt(state)
        cooperate(state)

        if (iteration + 1) % cfg.checkpoint_stride == 0 or iteration == iterations - 1:
            _record_checkpoint(report, state)

    report.archive = state.archive
    report.subproblems = [copy.copy(sp) for sp in state.subproblems]   # with no cache
    report.total_env_steps = state.steps_done
    report.total_episodes = state.episodes_done
    return report

"""Decomposed multi-policy training loop.

One run maintains ``n`` subproblems, each owning a weight vector, a learner
table, and an experience buffer. Every iteration rotates the sampling role
through the population, gathers whole episodes with that subproblem's
epsilon-greedy policy, improves *all* subproblems from their visible
buffers, evaluates every greedy policy, and folds the evaluations into the
external Pareto archive. Weight and reference-point adaptation fire on a
fixed environment-step period; cooperation (buffer sharing or one-shot
table transfer) runs at the end of each iteration.

Runs are deterministic functions of their config (seed included): all
randomness flows through the named streams in :mod:`paretoq.rng`, so two
runs with equal configs produce identical reports on any platform.
"""

from __future__ import annotations

import bisect
import itertools
import math
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
    _update_envelope_row,
    greedy_policy,
    serialize_table,
    transfer_policy,
    update_esr_mc,
    update_scalarized_q,
    update_vector_q,
)
from .momdp import ENUMERATION_LIMIT, Experience, Momdp, enumerate_deterministic_policies, evaluate_policy, make_env
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
        make_env(self.env)  # raises a descriptive error for unknown ids
        return self


@dataclass(eq=False)
class Subproblem:
    """One scalar subproblem of the decomposition."""

    index: int
    weight: np.ndarray
    reference: ReferencePoint
    learner: object
    buffer: ExperienceBuffer
    visible_buffers: list = field(default_factory=list)
    last_eval: np.ndarray | None = None
    trained: bool = False
    transferred: bool = False


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
    archive: ParetoArchive
    neighborhood: list
    hv_reference: np.ndarray
    eum_weight_set: list
    reference_front: np.ndarray | None
    steps_done: int = 0
    episodes_done: int = 0
    _adapt_marker: int = 0


def _make_learner(config: RunConfig, env: Momdp, weights):
    if config.learner == "scalarized-q":
        return QTableScalar(env.n_actions, config.alpha, config.gamma)
    if config.learner == "vector-q":
        return QTableVector(env.n_actions, env.n_objectives, config.alpha, config.gamma)
    if config.learner == "envelope-q":
        return QTableEnvelope(env.n_actions, env.n_objectives,
                              [w.copy() for w in weights], config.alpha, config.gamma)
    return QTableEsr(env.n_actions, env.n_objectives, config.alpha, config.gamma)


def _true_front(env: Momdp, gamma: float) -> np.ndarray | None:
    """Reference front from the enumeration oracle, when tractable."""
    if env.n_actions ** env.n_states > ENUMERATION_LIMIT:
        return None
    values = [v for _, v in enumerate_deterministic_policies(env, gamma)]
    return np.array([v for v, _ in prune((v, None) for v in values)])


def initialize(config: RunConfig, streams: RunStreams | None = None) -> RunState:
    """Build the starting population, archive, neighborhood, and buffers.

    Weights are spread uniformly (a single subproblem sits at the simplex
    center), learner tables start at zero, and the archive is seeded with
    the evaluations of the initial greedy policies.
    """
    config.validate()
    env = make_env(config.env)
    streams = streams or RunStreams(config.seed)
    n, m = config.population_size, env.n_objectives
    if n == 1:
        weights = [np.full(m, 1.0 / m)]
    else:
        weights = generate_weights_uniform(m, n)

    reference = ReferencePoint(m=m, mode="adaptive", tau=config.tau)
    scalarization = Scalarization(
        config.scalarization,
        reference if config.scalarization == TCHEBYCHEFF else None)

    if config.cooperation == "shared-buffer":
        buffers = [ExperienceBuffer(config.buffer_capacity, config.buffer_replacement)] * n
    else:
        buffers = [ExperienceBuffer(config.buffer_capacity, config.buffer_replacement)
                   for _ in range(n)]

    subproblems = [
        Subproblem(index=i, weight=weights[i], reference=reference,
                   learner=_make_learner(config, env, weights),
                   buffer=buffers[i], visible_buffers=[buffers[i]])
        for i in range(n)
    ]
    neighborhood = build_neighborhood(weights, config.neighborhood_k)

    archive = ParetoArchive()
    evals = evaluate_population(subproblems, env, config.eval_episodes,
                                config.gamma, streams.eval)
    reference.update(evals)
    for sp in subproblems:
        if archive.would_accept(sp.last_eval):
            archive.insert(sp.last_eval, serialize_table(sp.learner).encode(),
                           subproblem=sp.index, step=0)

    hv_reference = (np.asarray(config.hv_reference, dtype=float)
                    if config.hv_reference is not None else env.hv_reference_default)
    if hv_reference is None:
        raise ValueError("hv_reference must be set for environments without a default")

    state = RunState(
        config=config, env=env, streams=streams, scalarization=scalarization,
        reference=reference, subproblems=subproblems, archive=archive,
        neighborhood=neighborhood, hv_reference=hv_reference,
        eum_weight_set=generate_weights_uniform(m, config.eum_weights),
        reference_front=_true_front(env, config.gamma),
    )
    cooperate(state.subproblems, state.neighborhood, config.cooperation)
    return state


def evaluate_population(subproblems, env: Momdp, episodes: int, gamma: float, rng):
    """Evaluate every subproblem's greedy policy; refresh ``last_eval``."""
    evals = []
    for sp in subproblems:
        policy = greedy_policy(sp.learner, sp.weight)
        sp.last_eval = evaluate_policy(env, policy, episodes, gamma, rng)
        evals.append(sp.last_eval)
    return evals


def cooperate(subproblems, neighborhood, mode: str):
    """Apply the configured cooperation step to the population.

    ``none`` does nothing. Buffer sharing adjusts which buffers each
    subproblem samples from (continuously, so this just refreshes the
    visibility lists after neighborhood changes). ``transfer`` hands each
    never-trained subproblem a one-time deep copy of its nearest trained
    neighbor's table.
    """
    if mode not in COOPERATION_MODES:
        raise ValueError(f"cooperation must be one of {COOPERATION_MODES}")
    if mode == "none":
        return subproblems
    if mode == "shared-buffer":
        return subproblems  # a single buffer object is shared by construction
    if mode == "shared-buffer-neighborhood":
        for sp in subproblems:
            seen = {id(sp.buffer)}
            visible = [sp.buffer]
            for j in neighborhood[sp.index]:
                other = subproblems[j].buffer
                if id(other) not in seen:
                    seen.add(id(other))
                    visible.append(other)
            sp.visible_buffers = visible
        return subproblems
    for sp in subproblems:
        if sp.trained or sp.transferred:
            continue
        donors = [(float(np.linalg.norm(sp.weight - other.weight)), other.index, other)
                  for other in subproblems if other.trained]
        if not donors:
            continue
        _, _, donor = min(donors, key=lambda item: (item[0], item[1]))
        sp.learner = transfer_policy(donor.learner, sp.learner)
        sp.transferred = True
    return subproblems


def _epsilon_schedule(config: RunConfig):
    span = config.epsilon_decay_fraction * config.total_steps
    start, low = config.epsilon_start, config.epsilon_min

    def epsilon(step: int) -> float:
        if span <= 0:
            return low
        return start + min(1.0, step / span) * (low - start)

    return epsilon


def _sample_episode(env: Momdp, policy, epsilon_fn, step0: int, rng_env, rng_explore):
    """One epsilon-greedy episode; epsilon follows the global step count.

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
        trace.append(Experience(state, action, reward, next_state, done, accrued.copy()))
        accrued = accrued + reward
        state = next_state
        if done:
            return trace


class _Chain:
    """Read-only view of several sequences end to end, built without copying.

    Index ``i`` reads what the concatenated list would hold at ``i``.
    """

    def __init__(self, parts):
        self.parts = parts
        self.ends = list(itertools.accumulate(len(part) for part in parts))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, index: int):
        k = bisect.bisect_right(self.ends, index)
        return self.parts[k][index - self.ends[k] + len(self.parts[k])]


def _sample_visible(visible_buffers, batch: int, rng):
    if len(visible_buffers) == 1:
        if len(visible_buffers[0]) == 0:
            return []
        return visible_buffers[0].sample(batch, rng)
    flat = _Chain(visible_buffers)
    if not len(flat):
        return []
    idx = rng.integers(0, len(flat), size=int(batch))
    return [flat[i] for i in idx.tolist()]


def _visible_episodes(visible_buffers):
    if len(visible_buffers) == 1:
        return visible_buffers[0].complete_episodes()
    return _Chain([buf.complete_episodes() for buf in visible_buffers])


def _improve_all(state: RunState):
    """``update_passes`` batched improvement passes for every subproblem.

    Subproblems whose visible buffers are empty skip their passes. Envelope
    learners refresh the rows of every weight in their set from each
    replayed experience.
    """
    cfg = state.config
    for sp in state.subproblems:
        if isinstance(sp.learner, QTableEsr):
            episodes = _visible_episodes(sp.visible_buffers)
            if not episodes:
                continue
            for _ in range(cfg.update_passes):
                pick = int(state.streams.buffer.integers(0, len(episodes)))
                update_esr_mc(sp.learner, episodes[pick], state.scalarization, sp.weight)
            continue
        if isinstance(sp.learner, QTableEnvelope):
            # the weight set only changes in _adapt, so each weight's row
            # (its first match, as weight_index finds it) is resolved once
            rows = [(w, sp.learner.weight_index(w)) for w in sp.learner.weights]
        for _ in range(cfg.update_passes):
            batch = _sample_visible(sp.visible_buffers, cfg.batch_size, state.streams.buffer)
            if not batch:
                break
            for e in batch:
                if isinstance(sp.learner, QTableScalar):
                    update_scalarized_q(sp.learner, e, state.scalarization, sp.weight)
                elif isinstance(sp.learner, QTableVector):
                    update_vector_q(sp.learner, e, sp.weight)
                else:
                    for w, l_idx in rows:
                        _update_envelope_row(sp.learner, e, w, l_idx)


def _adapt(state: RunState):
    """Periodic reference-point update and (optionally) weight adaptation."""
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
            if isinstance(sp.learner, QTableEnvelope):
                sp.learner.weights = [w.copy() for w in weights]


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

    epsilon_fn = _epsilon_schedule(cfg)
    iterations = math.ceil(cfg.total_steps / cfg.steps_per_iteration) if cfg.total_steps else 0
    for iteration in range(iterations):
        sp = state.subproblems[select_subproblem(iteration, cfg.population_size)]
        target = min(cfg.total_steps, (iteration + 1) * cfg.steps_per_iteration)
        while state.steps_done < target:
            behavior = greedy_policy(sp.learner, sp.weight)
            episode = _sample_episode(state.env, behavior, epsilon_fn, state.steps_done,
                                      state.streams.env, state.streams.explore)
            sp.buffer.push(episode)
            sp.trained = True
            state.steps_done += len(episode)
            state.episodes_done += 1

        _improve_all(state)
        evaluate_population(state.subproblems, state.env, cfg.eval_episodes,
                            cfg.gamma, state.streams.eval)
        for candidate in state.subproblems:
            if state.archive.would_accept(candidate.last_eval):
                state.archive.insert(candidate.last_eval,
                                     serialize_table(candidate.learner).encode(),
                                     subproblem=candidate.index, step=state.steps_done)

        if state.steps_done // cfg.psa_period_steps > state._adapt_marker:
            state._adapt_marker = state.steps_done // cfg.psa_period_steps
            _adapt(state)
        cooperate(state.subproblems, state.neighborhood, cfg.cooperation)

        if (iteration + 1) % cfg.checkpoint_stride == 0 or iteration == iterations - 1:
            _record_checkpoint(report, state)

    report.archive = state.archive
    report.subproblems = state.subproblems
    report.total_env_steps = state.steps_done
    report.total_episodes = state.episodes_done
    return report

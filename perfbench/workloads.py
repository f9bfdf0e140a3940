"""The benchmark's three workloads, built only from paretoq's public API.

Each workload turns a seed into fixed inputs and has a set-up step
(``setup``) and one operation (``operate(entry)``, where ``entry`` is the
library call the operation makes, or a traced wrapper of it). The
operation's outputs come back as the bytes of a ``metrics.csv`` and a
``pf.csv`` in the harness's column layout, so that they can be hashed and
compared with pinned golden hashes.

* ``concave-esr`` -- one ``run()`` of the concave-capture configuration
  (Tchebycheff, accrued-reward Monte-Carlo learner, weight adaptation) on
  the treasure corridor. It stresses greedy-policy extraction, evaluation,
  archive checks and episode sampling, and bypasses the harness.
* ``hull-bundle`` -- ``run_experiment`` on the weighted-sum demo config over
  ten seeds with two workers. Improvement dominates; it is the only
  workload through the harness fan-out and its CSV writing.
* ``noisy-3obj`` -- three seeded random 3-objective MOMDPs with stochastic
  rewards, run one after another with the envelope learner, neighborhood
  buffer sharing and small evicting FIFO buffers. It is the only workload
  with Monte-Carlo hypervolume, envelope updates and a costly enumeration
  oracle in set-up. Three instances rather than one keep the seed-to-seed
  spread of a single random MOMDP out of the per-run figures.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np

from paretoq import Momdp, RunConfig, initialize, parse_config, register_env, run, run_experiment

ROOT = Path(__file__).resolve().parent.parent
HULL_CONFIG = ROOT / "demos" / "configs" / "dst_weighted_sum.cfg"

HULL_SEEDS_PER_BUNDLE = 10
HULL_WORKERS = 2

NOISY_INSTANCES = 3
NOISY_STATES = 6
NOISY_ACTIONS = 3
NOISY_HORIZON = 8
NOISY_STEPS = 4_000
NOISY_REFERENCE = (-1.0, -1.0, -1.0)


def _fmt(value) -> str:
    """The harness's CSV rendering: 9 significant digits, blank for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def render_csv(labelled_reports, label_column: str = "seed"):
    """``(metrics.csv, pf.csv)`` bytes for ``[(label, RunReport), ...]``."""
    metrics = [f"{label_column},step,hypervolume,igd,sparsity,eum,archive_size"]
    pf = []
    m = 0
    for label, report in labelled_reports:
        for c in report.checkpoints:
            metrics.append(",".join([str(label), str(c.step), _fmt(c.hypervolume), _fmt(c.igd),
                                     _fmt(c.sparsity), _fmt(c.eum), str(c.archive_size)]))
        for entry in report.archive:
            m = max(m, len(entry.eval))
            pf.append(",".join([str(label)] + [_fmt(float(v)) for v in entry.eval]
                               + [str(entry.subproblem), str(entry.step)]))
    header = ",".join([label_column] + [f"obj_{j}" for j in range(m)] + ["subproblem", "step_found"])
    return ("\n".join(metrics) + "\n").encode(), ("\n".join([header] + pf) + "\n").encode()


@dataclasses.dataclass
class Outcome:
    """What one operation produced, for the correctness checks and metrics."""

    runs: list            # [(label, RunConfig, RunReport)]
    metrics_csv: bytes
    pf_csv: bytes


class ConcaveEsr:
    name = "concave-esr"
    workers = 1

    def __init__(self, seed: int, work_dir: str):
        # the concave-capture configuration of the acceptance suite
        self.config = RunConfig(
            env="dst-corridor", population_size=10, total_steps=60_000,
            steps_per_iteration=12, update_passes=2, batch_size=32, alpha=0.2, gamma=1.0,
            epsilon_start=1.0, epsilon_min=0.05, epsilon_decay_fraction=0.5,
            scalarization="tchebycheff", learner="esr-mc", psa_enabled=True,
            psa_period_steps=1000, tau=0.5, buffer_capacity=100_000, eval_episodes=1,
            checkpoint_stride=200, seed=seed)

    def setup(self):
        return [initialize(self.config)]

    entry = staticmethod(run)

    def operate(self, entry) -> Outcome:
        report = entry(self.config)
        metrics_csv, pf_csv = render_csv([(self.config.seed, report)])
        return Outcome([(self.config.seed, self.config, report)], metrics_csv, pf_csv)


class HullBundle:
    name = "hull-bundle"
    workers = HULL_WORKERS

    def __init__(self, seed: int, work_dir: str):
        self.seeds = [seed * HULL_SEEDS_PER_BUNDLE + i for i in range(HULL_SEEDS_PER_BUNDLE)]
        self.out_dir = os.path.join(work_dir, "bundle")

    def _spec(self):
        spec = parse_config(str(HULL_CONFIG))
        spec.seeds = list(self.seeds)
        spec.out_dir = self.out_dir
        return spec

    def setup(self):
        spec = self._spec()
        return [initialize(dataclasses.replace(spec.template, seed=self.seeds[0]))]

    entry = staticmethod(run_experiment)

    def operate(self, entry) -> Outcome:
        spec = self._spec()
        bundle = entry(spec, parallel=HULL_WORKERS)
        with open(bundle.metrics_path, "rb") as fh:
            metrics_csv = fh.read()
        with open(bundle.pf_path, "rb") as fh:
            pf_csv = fh.read()
        runs = [(seed, dataclasses.replace(spec.template, seed=seed), bundle.reports[seed])
                for seed in sorted(self.seeds)]
        return Outcome(runs, metrics_csv, pf_csv)


def noisy_momdp(seed: int, instance: int) -> Momdp:
    """A random 3-objective MOMDP with stochastic rewards.

    Every (state, action) pair has two outcomes that lead to the same next
    state; one pays an integer reward vector in 0..2 per objective, the
    other pays one more in every objective. Noisy estimates of one policy's
    value therefore always dominate one another, so evaluation noise alone
    cannot grow the archive. Episodes never terminate before the horizon.
    """
    rng = np.random.default_rng([seed, instance, 3])
    transitions = []
    for _ in range(NOISY_STATES):
        row = []
        for _ in range(NOISY_ACTIONS):
            p_low = float(rng.choice([0.25, 0.5, 0.75]))
            nxt = int(rng.integers(NOISY_STATES))
            low = rng.integers(0, 3, size=3).astype(float)
            row.append([(p_low, nxt, low, False), (1.0 - p_low, nxt, low + 1.0, False)])
        transitions.append(row)
    start = np.zeros(NOISY_STATES)
    start[0] = 1.0
    return Momdp(NOISY_STATES, NOISY_ACTIONS, 3, transitions, start,
                 max_episode_steps=NOISY_HORIZON, name=f"noisy3-{seed}-{instance}",
                 hv_reference_default=NOISY_REFERENCE)


class Noisy3Obj:
    name = "noisy-3obj"
    workers = 1

    def __init__(self, seed: int, work_dir: str):
        self.configs = []
        for k in range(NOISY_INSTANCES):
            env_id = f"perfbench-noisy3-{seed}-{k}"
            register_env(env_id, lambda k=k: noisy_momdp(seed, k))
            self.configs.append(RunConfig(
                env=env_id, population_size=6, total_steps=NOISY_STEPS, steps_per_iteration=200,
                update_passes=2, batch_size=16, learner="envelope-q",
                cooperation="shared-buffer-neighborhood", buffer_capacity=500,
                eval_episodes=5, psa_enabled=True, hv_reference=NOISY_REFERENCE,
                eum_weights=91, checkpoint_stride=5, seed=seed))

    def setup(self):
        return [initialize(cfg) for cfg in self.configs]

    entry = staticmethod(run)

    def operate(self, entry) -> Outcome:
        reports = [entry(cfg) for cfg in self.configs]
        metrics_csv, pf_csv = render_csv(list(enumerate(reports)), label_column="instance")
        return Outcome([(k, cfg, rep) for k, (cfg, rep) in enumerate(zip(self.configs, reports))],
                       metrics_csv, pf_csv)


WORKLOADS = {w.name: w for w in (ConcaveEsr, HullBundle, Noisy3Obj)}

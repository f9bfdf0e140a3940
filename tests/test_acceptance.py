"""End-to-end acceptance suite.

Each test prints one ``[acceptance] criterion N (...): PASS/FAIL`` line
(visible with ``pytest tests/test_acceptance.py -v -s``) and enforces its
stated tolerance and runtime budget. Together these pin down the package's
core claims: exact archive pruning, exact and estimated hypervolume
agreement, learner convergence to dynamic-programming fixed points, the
hull-only behavior of linear scalarization, concave-front capture by the
accrued-reward Monte-Carlo learner under Tchebycheff scalarization, and
full bitwise reproducibility.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from paretoq import (
    QTableEnvelope,
    QTableScalar,
    QTableVector,
    RunConfig,
    Scalarization,
    adapt_weights_psa,
    dominates,
    dst_corridor,
    enumerate_deterministic_policies,
    evaluate_policy,
    generate_weights_uniform,
    greedy_policy,
    hypervolume,
    hypervolume_monte_carlo,
    igd,
    mixture_value,
    parse_config,
    prune,
    run,
    run_experiment,
    sparsity,
    tiny_tree,
    update_envelope_q,
    update_scalarized_q,
    update_vector_q,
)
from paretoq.archive import ParetoArchive
from paretoq.metrics import expected_utility

from oracles import (
    all_transition_experiences,
    brute_force_non_dominated_matrix,
    standalone_scalar_q_learning,
    value_iteration_envelope,
    value_iteration_scalar,
    value_iteration_vector,
)

DST_FRONT = {(1.0, -1.0), (2.0, -2.0), (3.0, -3.0), (5.0, -4.0), (10.0, -5.0)}
HULL = {(1.0, -1.0), (10.0, -5.0)}
CONCAVE = DST_FRONT - HULL


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({label}): PASS [{elapsed:.1f}s]")


def test_criterion_01_archive_pruning_matches_the_pairwise_oracle():
    with criterion(1, "archive pruning equals the brute-force filter", budget_s=10.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            m = int(rng.integers(2, 5))
            pts = rng.uniform(-10.0, 10.0, size=(n, m))
            if rng.random() < 0.3:  # integer grids force duplicates
                pts = np.round(pts)
            kept = prune((p, i) for i, p in enumerate(pts))
            assert [i for _, i in kept] == brute_force_non_dominated_matrix(pts)


def test_criterion_02_hypervolume_exact_sweep_and_monte_carlo_agree():
    with criterion(2, "hypervolume sweep vs Monte-Carlo and corridor value", budget_s=30.0):
        assert hypervolume(sorted(DST_FRONT), (0.0, -50.0)) == pytest.approx(461.0, abs=1e-12)
        rng = np.random.default_rng(1002)
        for _ in range(200):
            raw = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 9)), 2))
            front = np.array([p for p in raw
                              if not any(dominates(q, p) for q in raw)])
            z_ref = raw.min(axis=0) - rng.uniform(0.5, 3.0, size=2)
            exact = hypervolume(front, z_ref)
            estimate, stderr = hypervolume_monte_carlo(front, z_ref, samples=10**6, rng=rng)
            assert abs(exact - estimate) <= 3.0 * stderr + 1e-12


def test_criterion_03_metric_closed_forms():
    with criterion(3, "metric closed forms"):
        assert igd([(0.0, 1.0), (1.0, 0.0)], [(0.0, 1.0), (1.0, 0.0)]) == 0.0
        assert igd([(3.0, 4.0)], [(0.0, 0.0)]) == pytest.approx(5.0, abs=1e-12)
        assert sparsity([(0.0, 1.0), (1.0, 0.0)]) == pytest.approx(2.0, abs=1e-12)
        eum = expected_utility([(1.0, -1.0), (10.0, -5.0)], generate_weights_uniform(2, 3))
        assert abs(eum - (-1.0 + 2.5 + 10.0) / 3.0) <= 1e-9


def _sweep(q, env, apply_update, sweeps=30):
    transitions = all_transition_experiences(env)
    for _ in range(sweeps):
        for e in transitions:
            apply_update(q, e)


def test_criterion_04_learners_reach_dynamic_programming_fixed_points():
    with criterion(4, "trained tables equal value iteration", budget_s=60.0):
        ws = Scalarization("weighted-sum")
        weights = generate_weights_uniform(2, 11)
        for env in (tiny_tree(), dst_corridor()):
            optima = [v for _, v in enumerate_deterministic_policies(env, 1.0)]
            for lam in weights:
                best = max(float(lam @ v) for v in optima)

                scalar = QTableScalar(env.n_actions, alpha=1.0, gamma=1.0)
                _sweep(scalar, env, lambda q, e: update_scalarized_q(q, [e], ws, lam))
                exact = value_iteration_scalar(env, lam, 1.0)
                for s in range(env.n_states):
                    np.testing.assert_allclose(scalar.row(s), exact[s], atol=1e-9)
                value = evaluate_policy(env, greedy_policy(scalar), 1, 1.0, 0)
                assert abs(float(lam @ value) - best) <= 1e-9

                vector = QTableVector(env.n_actions, 2, alpha=1.0, gamma=1.0)
                _sweep(vector, env, lambda q, e: update_vector_q(q, [e], lam))
                exact_vec = value_iteration_vector(env, lam, 1.0)
                for s in range(env.n_states):
                    np.testing.assert_allclose(vector.block(s), exact_vec[s], atol=1e-9)
                value = evaluate_policy(env, greedy_policy(vector, lam), 1, 1.0, 0)
                assert abs(float(lam @ value) - best) <= 1e-9

            lattice = generate_weights_uniform(2, 3)
            envelope = QTableEnvelope(env.n_actions, 2, lattice, alpha=1.0, gamma=1.0)

            def envelope_update(q, e):
                for lam in q.weights:
                    update_envelope_q(q, e, lam)

            _sweep(envelope, env, envelope_update)
            exact_env = value_iteration_envelope(env, lattice, 1.0)
            for s in range(env.n_states):
                np.testing.assert_allclose(envelope.block(s), exact_env[s], atol=1e-9)
            for lam in lattice:
                value = evaluate_policy(env, greedy_policy(envelope, lam), 1, 1.0, 0)
                best = max(float(lam @ v) for v in optima)
                assert abs(float(lam @ value) - best) <= 1e-9


def hull_only_config(seed):
    # sampling is sized so a subproblem's first improvement call already sees
    # full corridor coverage; with alpha=1 the table then converges before its
    # first greedy evaluation, so no transient interior policy is ever archived
    return RunConfig(env="dst-corridor", population_size=11, total_steps=5850,
                     steps_per_iteration=450, update_passes=10, batch_size=64,
                     alpha=1.0, gamma=1.0, epsilon_start=0.5, epsilon_min=0.5,
                     epsilon_decay_fraction=0.5, buffer_capacity=100_000,
                     eval_episodes=1, checkpoint_stride=5, seed=seed)


def test_criterion_05_linear_scalarization_captures_only_hull_extremes():
    with criterion(5, "weighted sum archives only hull extremes", budget_s=120.0):
        exact_hits = 0
        for seed in range(10):
            report = run(hull_only_config(seed))
            evals = {tuple(e.eval) for e in report.archive}
            assert evals <= HULL, f"seed {seed} archived interior points: {evals}"
            exact_hits += evals == HULL
        assert exact_hits >= 8


def concave_capture_config(seed):
    return RunConfig(env="dst-corridor", population_size=10, total_steps=60_000,
                     steps_per_iteration=12, update_passes=2, batch_size=32,
                     alpha=0.2, gamma=1.0, epsilon_start=1.0, epsilon_min=0.05,
                     epsilon_decay_fraction=0.5, scalarization="tchebycheff",
                     learner="esr-mc", psa_enabled=True, psa_period_steps=1000,
                     tau=0.5, buffer_capacity=100_000, eval_episodes=1,
                     checkpoint_stride=200, seed=seed)


def test_criterion_06_tchebycheff_esr_captures_concave_points():
    with criterion(6, "Tchebycheff + accrued-reward learner reaches concave points",
                   budget_s=300.0):
        front_hits, concave_hits = [], []
        for seed in range(10):
            report = run(concave_capture_config(seed))
            assert report.total_episodes >= 20_000
            evals = {tuple(e.eval) for e in report.archive}
            front_hits.append(len(evals & DST_FRONT))
            concave_hits.append(len(evals & CONCAVE))
        assert np.median(front_hits) >= 4
        assert np.median(concave_hits) >= 2


def test_criterion_07_mixtures_of_extremes_dominate_concave_points():
    with criterion(7, "stochastic mixtures dominate every concave point", budget_s=1.0):
        extremes = [np.array([1.0, -1.0]), np.array([10.0, -5.0])]
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        for point in sorted(CONCAVE):
            assert any(dominates(mixture_value(extremes, [p, 1.0 - p]), point)
                       for p in grid), f"no mixture dominates {point}"


def test_criterion_08_randomized_property_suite():
    with criterion(8, "weight adaptation and archive property sweep"):
        rng = np.random.default_rng(1008)
        for _ in range(10_000):
            m = int(rng.integers(2, 5))
            lam = rng.dirichlet(np.ones(m))
            lam[rng.random(m) < 0.2] = 0.0
            if lam.sum() == 0.0:
                continue
            lam = lam / lam.sum()
            out = adapt_weights_psa(lam, rng.normal(size=m), rng.normal(size=m),
                                    1.0 + float(rng.uniform(0.01, 0.5)))
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out[lam == 0.0] == 0.0)

        archive = ParetoArchive()
        z_ref = np.array([-10.5, -10.5])
        last_hv = 0.0
        for i in range(10_000):
            archive.insert(rng.uniform(-10.0, 10.0, size=2), None)
            if (i + 1) % 500 == 0:
                evals = archive.evals()
                assert brute_force_non_dominated_matrix(evals) == list(range(len(evals)))
                hv = hypervolume(evals, z_ref)
                assert hv >= last_hv - 1e-12
                last_hv = hv

        report = run(hull_only_config(0))
        curve = [c.hypervolume for c in report.checkpoints]
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))


ACCEPTANCE_EXPERIMENT = """
[run]
env = dst-corridor
population_size = 4
total_steps = 600
steps_per_iteration = 12
update_passes = 2
batch_size = 16
alpha = 1.0
epsilon_min = 0.2
eval_episodes = 1
[experiment]
seeds = 11, 7
checkpoint_stride = 10
out_dir = {out}
"""


def _bundle_bytes(out_dir):
    import os

    blobs = {}
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                blobs[os.path.relpath(path, out_dir)] = fh.read()
    return blobs


def test_criterion_09_experiments_are_byte_identical(tmp_path):
    with criterion(9, "reruns and parallel runs produce identical bundles"):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "bundle"
        cfg_path.write_text(ACCEPTANCE_EXPERIMENT.format(out=out), encoding="utf-8")

        run_experiment(parse_config(str(cfg_path)))
        first = _bundle_bytes(out)
        run_experiment(parse_config(str(cfg_path)))
        assert _bundle_bytes(out) == first

        run_experiment(parse_config(str(cfg_path)), parallel=2)
        assert _bundle_bytes(out) == first


def test_criterion_10_single_subproblem_reduces_to_plain_q_learning():
    with criterion(10, "one-subproblem run equals standalone Q-learning bit for bit"):
        config = RunConfig(env="dst-corridor", population_size=1, total_steps=800,
                           steps_per_iteration=10, update_passes=3, batch_size=16,
                           alpha=0.3, gamma=0.95, epsilon_start=1.0, epsilon_min=0.1,
                           epsilon_decay_fraction=0.5, cooperation="none",
                           buffer_capacity=400, eval_episodes=1,
                           checkpoint_stride=20, seed=123)
        report = run(config)
        learned = report.subproblems[0].learner.table
        reference = standalone_scalar_q_learning(config, report.subproblems[0].weight)
        assert set(learned) == set(reference)
        for state in learned:
            assert np.array_equal(learned[state], reference[state]), state

import dataclasses
import pickle

import numpy as np
import pytest

from paretoq import (
    ExperienceBuffer,
    QTableEsr,
    RunConfig,
    cooperate,
    dst_corridor,
    evaluate_population,
    initialize,
    run,
    serialize_table,
    update_envelope_q,
    update_scalarized_q,
)
from paretoq import orchestrator
from paretoq.decomposition import Scalarization
from paretoq.momdp import Experience
from paretoq.orchestrator import _adapt, _sample_visible, _visible_episodes


def small_config(**kw):
    base = dict(env="dst-corridor", population_size=3, total_steps=600,
                steps_per_iteration=6, update_passes=2, batch_size=16,
                alpha=1.0, gamma=1.0, epsilon_min=0.1, eval_episodes=2,
                buffer_capacity=500, checkpoint_stride=10, seed=7)
    base.update(kw)
    return RunConfig(**base)


class TestInitialize:
    def test_population_weights_are_uniform(self):
        state = initialize(small_config(population_size=3))
        assert [tuple(sp.weight) for sp in state.subproblems] == [
            (0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_single_subproblem_sits_at_the_center(self):
        state = initialize(small_config(population_size=1))
        np.testing.assert_allclose(state.subproblems[0].weight, [0.5, 0.5])

    def test_zeroed_learners_seed_the_archive_with_action_zero_behavior(self):
        # all-zero tables act greedily as "always action 0": advance the whole
        # corridor and collect the deepest treasure
        state = initialize(small_config())
        assert [tuple(e.eval) for e in state.archive] == [(10.0, -5.0)]
        for sp in state.subproblems:
            np.testing.assert_array_equal(sp.last_eval, [10.0, -5.0])

    def test_independent_buffers_without_cooperation(self):
        state = initialize(small_config(cooperation="none"))
        ids = {id(sp.buffer) for sp in state.subproblems}
        assert len(ids) == len(state.subproblems)

    def test_global_sharing_uses_one_buffer(self):
        state = initialize(small_config(cooperation="shared-buffer"))
        ids = {id(sp.buffer) for sp in state.subproblems}
        assert len(ids) == 1

    def test_reference_point_initialized_from_first_evaluations(self):
        state = initialize(small_config(scalarization="tchebycheff"))
        np.testing.assert_allclose(state.reference.values, [10.5, -4.5])

    def test_invalid_config_names_the_key(self):
        with pytest.raises(ValueError, match="population_size must be >= 1"):
            initialize(small_config(population_size=0))
        with pytest.raises(ValueError, match="update_passes"):
            initialize(small_config(update_passes=0))
        with pytest.raises(ValueError, match="unknown environment id"):
            initialize(small_config(env="nope"))

    def test_esr_learner_rejects_discounting(self):
        with pytest.raises(ValueError, match="learner 'esr-mc' requires gamma = 1"):
            small_config(learner="esr-mc", scalarization="tchebycheff", gamma=0.9).validate()
        small_config(learner="esr-mc", scalarization="tchebycheff", gamma=1.0).validate()
        small_config(learner="scalarized-q", gamma=0.9).validate()


class TestRunLoop:
    def test_zero_steps_leaves_only_the_initial_checkpoint(self):
        report = run(small_config(total_steps=0))
        assert len(report.checkpoints) == 1
        assert report.checkpoints[0].step == 0
        assert report.total_env_steps == 0

    def test_budget_accounting_within_one_episode(self):
        env = dst_corridor()
        for total in (10, 37, 600):
            report = run(small_config(total_steps=total))
            assert total <= report.total_env_steps < total + env.max_episode_steps

    def test_single_subproblem_weighted_sum_finds_the_deep_treasure(self):
        report = run(small_config(population_size=1, total_steps=900))
        assert (10.0, -5.0) in {tuple(e.eval) for e in report.archive}

    def test_checkpoints_strictly_increase_in_step(self):
        report = run(small_config(steps_per_iteration=1, checkpoint_stride=1))
        steps = [c.step for c in report.checkpoints]
        assert steps == sorted(set(steps))

    def test_same_config_runs_identically(self):
        a, b = run(small_config()), run(small_config())
        assert [dataclasses.astuple(c) for c in a.checkpoints] == \
               [dataclasses.astuple(c) for c in b.checkpoints]
        assert [tuple(e.eval) for e in a.archive] == [tuple(e.eval) for e in b.archive]
        assert [e.payload for e in a.archive] == [e.payload for e in b.archive]

    def test_different_seeds_explore_differently(self):
        a = run(small_config(seed=1, total_steps=60))
        b = run(small_config(seed=2, total_steps=60))
        assert a.total_episodes != b.total_episodes or \
            [dataclasses.astuple(c) for c in a.checkpoints] != \
            [dataclasses.astuple(c) for c in b.checkpoints]

    def test_archive_hypervolume_monotone_across_checkpoints(self):
        report = run(small_config(checkpoint_stride=1))
        hv = [c.hypervolume for c in report.checkpoints]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_basis_weight_subproblem_converges_to_the_fast_exit(self):
        report = run(small_config(population_size=2, total_steps=800))
        by_weight = {tuple(sp.weight): sp for sp in report.subproblems}
        np.testing.assert_allclose(by_weight[(0.0, 1.0)].last_eval, [1.0, -1.0])
        np.testing.assert_allclose(by_weight[(1.0, 0.0)].last_eval, [10.0, -5.0])

    def test_esr_learner_smoke(self):
        report = run(small_config(learner="esr-mc", scalarization="tchebycheff",
                                  alpha=0.2, total_steps=900, psa_enabled=True,
                                  psa_period_steps=200))
        assert len(report.archive) >= 1
        assert report.total_episodes > 0

    def test_vector_and_envelope_learners_smoke(self):
        for learner in ("vector-q", "envelope-q"):
            report = run(small_config(learner=learner, total_steps=300))
            assert (10.0, -5.0) in {tuple(e.eval) for e in report.archive}


class TestEvaluatePopulation:
    def test_identical_learners_evaluate_identically(self):
        state = initialize(small_config(population_size=2))
        evals = evaluate_population(state.subproblems, state.env, 3, 1.0,
                                    np.random.default_rng(0))
        np.testing.assert_array_equal(evals[0], evals[1])

    def test_deterministic_policies_ignore_the_seed(self):
        state = initialize(small_config())
        first = evaluate_population(state.subproblems, state.env, 3, 1.0,
                                    np.random.default_rng(1))
        second = evaluate_population(state.subproblems, state.env, 3, 1.0,
                                     np.random.default_rng(2))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestCooperate:
    def test_none_is_a_no_op(self):
        state = initialize(small_config())
        tables_before = [sp.learner for sp in state.subproblems]
        cooperate(state.subproblems, state.neighborhood, "none")
        assert [sp.learner for sp in state.subproblems] == tables_before

    def test_neighborhood_sharing_sets_visibility(self):
        state = initialize(small_config(cooperation="shared-buffer-neighborhood",
                                        neighborhood_k=1))
        cooperate(state.subproblems, state.neighborhood, "shared-buffer-neighborhood")
        middle = state.subproblems[1]
        assert len(middle.visible_buffers) == 2
        assert middle.visible_buffers[0] is middle.buffer

    def test_transfer_copies_then_diverges(self):
        state = initialize(small_config(cooperation="transfer"))
        donor, fresh = state.subproblems[0], state.subproblems[1]
        e = Experience(0, 1, np.array([1.0, -1.0]), 0, True, np.zeros(2))
        update_scalarized_q(donor.learner, e, Scalarization(), donor.weight)
        donor.trained = True
        cooperate(state.subproblems, state.neighborhood, "transfer")
        assert fresh.transferred
        np.testing.assert_array_equal(fresh.learner.row(0), donor.learner.row(0))
        update_scalarized_q(fresh.learner, e, Scalarization(), fresh.weight)
        assert not np.array_equal(fresh.learner.row(0), donor.learner.row(0))

    def test_transfer_fires_only_once(self):
        state = initialize(small_config(cooperation="transfer"))
        donor, fresh = state.subproblems[0], state.subproblems[2]
        donor.trained = True
        cooperate(state.subproblems, state.neighborhood, "transfer")
        marker = fresh.learner
        cooperate(state.subproblems, state.neighborhood, "transfer")
        assert fresh.learner is marker


class TestVisibleBuffers:
    def buffers(self):
        bufs = [ExperienceBuffer(capacity=50) for _ in range(4)]
        for k, length in enumerate([3, 0, 5, 2]):  # one buffer stays empty
            for t in range(length):
                bufs[k].push([Experience(10 * k + t, t % 2, np.zeros(2), 0, t % 2 == 0,
                                         np.zeros(2))])
        return bufs

    def test_sampling_picks_what_the_concatenated_list_picks(self):
        bufs = self.buffers()
        flat = [e for buf in bufs for e in buf.experiences()]
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            expected = [flat[i] for i in rng_b.integers(0, len(flat), size=7)]
            assert _sample_visible(bufs, 7, rng_a) == expected
        assert rng_a.random() == rng_b.random()

    def test_episodes_index_like_the_concatenated_list(self):
        bufs = self.buffers()
        expected = [ep for buf in bufs for ep in buf.complete_episodes()]
        chained = _visible_episodes(bufs)
        assert len(chained) == len(expected) == 6
        assert [chained[i] for i in range(len(chained))] == expected

    def test_all_empty_draws_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert _sample_visible([ExperienceBuffer(4), ExperienceBuffer(4)], 5, rng) == []
        assert rng.bit_generator.state == state
        assert len(_visible_episodes([ExperienceBuffer(4), ExperienceBuffer(4)])) == 0


class TestEnvelopeImprovement:
    def test_rows_resolved_once_match_a_lookup_per_update(self, monkeypatch):
        def improved(per_update_lookup):
            state = initialize(small_config(learner="envelope-q", population_size=3))
            for sp in state.subproblems:  # a duplicate weight updates its first match
                sp.learner.weights.append(sp.learner.weights[1].copy())
            env = dst_corridor()
            for s in range(4):
                for a in range(env.n_actions):
                    ns, r, term = env.step(s, a)
                    state.subproblems[0].buffer.push(
                        [Experience(s, a, r, ns, term, np.zeros(2))])
            if per_update_lookup:
                monkeypatch.setattr(orchestrator, "_update_envelope_row",
                                    lambda q, e, lam, l_idx: update_envelope_q(q, e, lam))
            orchestrator._improve_all(state)
            monkeypatch.undo()
            return [serialize_table(sp.learner) for sp in state.subproblems]

        assert improved(per_update_lookup=False) == improved(per_update_lookup=True)


class TestReportPickle:
    def test_shared_buffer_stays_one_object(self):
        report = run(small_config(cooperation="shared-buffer", total_steps=120))
        restored = pickle.loads(pickle.dumps(report))
        shared = restored.subproblems[0].buffer
        assert all(sp.buffer is shared for sp in restored.subproblems)
        assert all(sp.visible_buffers == [shared] for sp in restored.subproblems)
        assert len(shared) == len(report.subproblems[0].buffer) > 0
        assert [e.state for e in shared.experiences()] == \
               [e.state for e in report.subproblems[0].buffer.experiences()]


class TestAdaptation:
    def test_weight_adaptation_leaves_the_archive_alone(self):
        state = initialize(small_config(psa_enabled=True))
        state.archive.insert(np.array([1.0, -1.0]), b"", 0, 1)
        before = [tuple(e.eval) for e in state.archive]
        _adapt(state)
        assert [tuple(e.eval) for e in state.archive] == before

    def test_adaptation_moves_weights_toward_won_objectives(self):
        state = initialize(small_config(psa_enabled=True))
        state.archive.insert(np.array([1.0, -1.0]), b"", 0, 1)
        sp = state.subproblems[1]
        sp.last_eval = np.array([10.0, -5.0])
        old = sp.weight.copy()
        _adapt(state)
        assert sp.weight[0] > old[0]  # better treasure objective, worse time

    def test_esr_tables_survive_weight_adaptation(self):
        cfg = small_config(learner="esr-mc", scalarization="tchebycheff",
                           psa_enabled=True)
        state = initialize(cfg)
        assert isinstance(state.subproblems[0].learner, QTableEsr)
        state.archive.insert(np.array([1.0, -1.0]), b"", 0, 1)
        _adapt(state)

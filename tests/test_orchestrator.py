import dataclasses
import importlib.util
import math
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoq import (
    ExperienceBuffer,
    QTableEsr,
    RunConfig,
    RunReport,
    cooperate,
    dst_corridor,
    evaluate_population,
    initialize,
    run,
    serialize_table,
    update_scalarized_q,
)
from paretoq import momdp, orchestrator
from paretoq.archive import ParetoArchive
from paretoq.decomposition import Scalarization
from paretoq.learning import _item
from paretoq.momdp import (Experience, Momdp, StepTree, TabularPolicy, _Episode, accrued_key,
                           register_env, rollout)
from paretoq.orchestrator import (_adapt, _archive_population, _episodes, _epsilon_schedule,
                                  _worst_return)
from paretoq.rng import STREAM_BUFFER, derive_stream

from oracles import (NumpyRowEsr, NumpyRowScalar, discounted_return_of_actions,
                     envelope_step_per_weight, improve_esr_pick_by_pick, offer_every_evaluation,
                     sample_through_chain, scalarized_q_batch)


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
        ids = {id(buf) for buf in state.buffers}
        assert len(ids) == len(state.subproblems)
        assert state.visible == [[buf] for buf in state.buffers]

    def test_global_sharing_uses_one_buffer(self):
        state = initialize(small_config(cooperation="shared-buffer"))
        ids = {id(buf) for buf in state.buffers}
        assert len(ids) == 1 and len(state.buffers) == len(state.subproblems)
        assert state.visible == [[state.buffers[0]]] * len(state.subproblems)

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

    def test_hv_reference_of_the_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match="hv_reference has 3 entries; environment "
                                             "'dst-corridor' has 2 objectives"):
            initialize(small_config(hv_reference=(0.0, -50.0, 0.0)))

    @pytest.mark.parametrize("ref", [(5.0, -50.0), (1.0, -50.0), (0.0, -5.0)])
    def test_hv_reference_not_below_every_return_is_rejected_before_evaluation(
            self, ref, monkeypatch):
        # the corridor's worst return is (1, -5): the first treasure, or five steps
        def no_evaluation(*args):
            raise AssertionError("evaluated before the reference was checked")

        monkeypatch.setattr(orchestrator, "evaluate_population", no_evaluation)
        with pytest.raises(ValueError, match=r"must lie strictly below the worst return "
                                             r"of any episode, \[1.0, -5.0\]"):
            initialize(small_config(hv_reference=ref))

    @pytest.mark.parametrize("ref", [(-np.inf, -50.0), (0.0, -np.inf), (np.nan, -50.0)])
    def test_non_finite_hv_reference_is_rejected_before_evaluation(self, ref, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("evaluated before the reference was checked")

        monkeypatch.setattr(orchestrator, "evaluate_population", no_evaluation)
        with pytest.raises(ValueError, match="hv_reference entries must be finite"):
            initialize(small_config(hv_reference=ref))

    @pytest.mark.parametrize("key", ["gamma", "alpha", "epsilon_start", "epsilon_min",
                                     "epsilon_decay_fraction", "delta", "tau"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_settings_are_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            small_config(**{key: value}).validate()

    def test_infinite_tau_and_delta_stop_the_run_before_training(self):
        with pytest.raises(ValueError, match="tau must be finite"):
            run(small_config(scalarization="tchebycheff", tau=np.inf))
        with pytest.raises(ValueError, match="delta must be finite"):
            run(small_config(psa_enabled=True, psa_period_steps=10, delta=np.inf))

    @pytest.mark.parametrize("ref,message", [
        ((0.0, -50.0, 0.0), "hv_reference has 3 entries"),
        ((np.nan, -50.0), "hv_reference entries must be finite"),
        ((1.0, -50.0), "must lie strictly below the worst return"),
    ])
    def test_validation_rejects_an_unusable_hv_reference(self, ref, message):
        with pytest.raises(ValueError, match=message):
            small_config(hv_reference=ref).validate()

    @pytest.mark.parametrize("ref", [("a", 1.0), ((0.0, 1.0), -50.0)])
    def test_a_non_numeric_hv_reference_is_rejected_by_name(self, ref):
        with pytest.raises(ValueError, match=r"hv_reference must be numbers, got \("):
            small_config(hv_reference=ref).validate()

    def test_a_run_computes_the_worst_return_once(self, monkeypatch):
        calls = []
        worst_return = orchestrator._worst_return
        monkeypatch.setattr(orchestrator, "_worst_return",
                            lambda *args: calls.append(args) or worst_return(*args))
        run(small_config(total_steps=12))
        assert len(calls) == 1

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if type(f.default) is int])
    @pytest.mark.parametrize("value", [100.0, True, "3"])
    def test_non_integer_settings_are_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            small_config(**{key: value}).validate()

    def test_numpy_integer_settings_are_accepted(self):
        small_config(total_steps=np.int64(12), population_size=np.int32(2)).validate()

    @pytest.mark.parametrize("value", ["false", 0, 1.0, None, np.int64(1)])
    def test_non_bool_settings_are_rejected_by_name(self, value):
        with pytest.raises(ValueError, match="psa_enabled must be a bool"):
            small_config(psa_enabled=value).validate()

    def test_numpy_bool_settings_are_accepted(self):
        small_config(psa_enabled=np.bool_(True)).validate()

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if type(f.default) is float])
    @pytest.mark.parametrize("value", ["0.1", None, True, np.bool_(False)])
    def test_non_number_float_settings_are_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            small_config(**{key: value}).validate()

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if type(f.default) is float])
    @pytest.mark.parametrize("width", [np.float32, np.longdouble])
    def test_float_settings_narrower_or_wider_than_float64_are_rejected_by_name(self, key,
                                                                               width):
        """A snapshot writes each float as a float64, so it could not repeat
        a run that computes in another width."""
        value = getattr(small_config(), key)
        with pytest.raises(ValueError, match=f"{key} must be a float64"):
            small_config(**{key: width(value)}).validate()
        small_config(**{key: np.float64(value)}).validate()

    def test_hv_reference_just_below_the_worst_return_is_accepted(self):
        state = initialize(small_config(hv_reference=(0.999, -5.001)))
        np.testing.assert_array_equal(state.hv_reference, [0.999, -5.001])

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
        cooperate(state)
        assert [sp.learner for sp in state.subproblems] == tables_before

    def test_neighborhood_sharing_sets_visibility(self):
        state = initialize(small_config(cooperation="shared-buffer-neighborhood",
                                        neighborhood_k=1))
        cooperate(state)
        assert len(state.visible[1]) == 2
        assert state.visible[1][0] is state.buffers[1]

    def test_transfer_copies_then_diverges(self):
        state = initialize(small_config(cooperation="transfer"))
        donor, fresh = state.subproblems[0], state.subproblems[1]
        e = Experience(0, 1, np.array([1.0, -1.0]), 0, True, np.zeros(2))
        update_scalarized_q(donor.learner, [e], Scalarization(), donor.weight)
        donor.trained = True
        cooperate(state)
        assert fresh.transferred
        np.testing.assert_array_equal(fresh.learner.row(0), donor.learner.row(0))
        update_scalarized_q(fresh.learner, [e], Scalarization(), fresh.weight)
        assert not np.array_equal(fresh.learner.row(0), donor.learner.row(0))

    def test_transfer_fires_only_once(self):
        state = initialize(small_config(cooperation="transfer"))
        donor, fresh = state.subproblems[0], state.subproblems[2]
        donor.trained = True
        cooperate(state)
        marker = fresh.learner
        cooperate(state)
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
        flat = [e for buf in bufs for e in buf]
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            expected = [flat[i] for i in rng_b.integers(0, len(flat), size=7)]
            assert bufs[0].sample(7, rng_a, *bufs[1:]) == expected
        assert rng_a.random() == rng_b.random()

    def test_episodes_index_like_the_concatenated_list(self):
        bufs = self.buffers()
        expected = [ep for buf in bufs for ep in buf.complete_episodes()]
        assert len(expected) == 6
        item, count = _episodes(bufs)
        assert count == 6
        assert [item(i) for i in range(count)] == expected
        assert [_item([buf.complete_episodes() for buf in bufs], i) for i in range(6)] == expected

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(0, 5), min_size=2, max_size=5),
           batch=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_sampling_repeats_the_chained_view(self, lengths, batch, seed):
        """The same experiences as sampling through a chained view of the
        buffers, with the generator left in the same state; empty buffers too."""
        bufs = [ExperienceBuffer(capacity=10) for _ in lengths]
        for k, length in enumerate(lengths):
            for t in range(length):
                bufs[k].push([Experience(10 * k + t, 0, np.zeros(2), 0, True, np.zeros(2))])
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            drawn = bufs[0].sample(batch, rng, *bufs[1:]) if any(lengths) else []
            assert drawn == sample_through_chain(bufs, batch, oracle_rng)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_all_empty_draws_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="empty buffer"):
            ExperienceBuffer(4).sample(5, rng, ExperienceBuffer(4))
        assert rng.bit_generator.state == state
        assert _episodes([ExperienceBuffer(4), ExperienceBuffer(4)])[1] == 0


class TestEnvelopeImprovement:
    def test_rows_updated_at_once_match_one_step_per_weight(self, monkeypatch):
        def improved(per_weight):
            state = initialize(small_config(learner="envelope-q", population_size=3))
            for sp in state.subproblems:  # a duplicate weight updates its first match
                sp.learner.weights = (*sp.learner.weights, sp.learner.weights[1])
            env = dst_corridor()
            for s in range(4):
                for a in range(env.n_actions):
                    ns, r, term = env.step(s, a)
                    state.buffers[0].push(
                        [Experience(s, a, r, ns, term, np.zeros(2)),
                         Experience(ns, a, r + 0.5, ns, term, np.zeros(2))])  # a self-loop
            if per_weight:
                monkeypatch.setattr(orchestrator, "update_envelope_q", lambda q, batch: [
                    envelope_step_per_weight(q, e) for e in batch])
            orchestrator._improve_all(state)
            monkeypatch.undo()
            return [serialize_table(sp.learner) for sp in state.subproblems]

        assert improved(per_weight=False) == improved(per_weight=True)


class TestArchiveOffers:
    CONFIGS = [
        dict(learner="esr-mc", scalarization="tchebycheff", psa_enabled=True,
             psa_period_steps=60, total_steps=1500),
        dict(learner="scalarized-q", cooperation="transfer", total_steps=900),
        dict(learner="envelope-q", cooperation="shared-buffer-neighborhood", psa_enabled=True,
             psa_period_steps=90, total_steps=600),
    ]

    @pytest.mark.parametrize("overrides", CONFIGS,
                             ids=[c["learner"] for c in CONFIGS])
    def test_skipped_offers_archive_the_same_entries(self, overrides, monkeypatch):
        checks = []
        would_accept = ParetoArchive.would_accept
        monkeypatch.setattr(ParetoArchive, "would_accept",
                            lambda self, v: checks.append(1) or would_accept(self, v))
        config = small_config(**overrides)
        report = run(config)
        skipping = len(checks)
        monkeypatch.setattr(orchestrator, "_archive_population", offer_every_evaluation)
        expected = run(config)
        assert skipping < len(checks) - skipping  # the skip took effect
        assert [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in report.archive] == \
               [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in expected.archive]
        assert report.checkpoints == expected.checkpoints

    def test_an_offer_is_checked_again_when_the_array_or_the_archive_changes(self,
                                                                            monkeypatch):
        state = initialize(small_config(population_size=1))
        checked = []
        would_accept = ParetoArchive.would_accept
        monkeypatch.setattr(ParetoArchive, "would_accept",
                            lambda self, v: checked.append(v) or would_accept(self, v))
        sp = state.subproblems[0]
        _archive_population(state.archive, state.subproblems, 0)
        assert len(checked) == 1          # the archive took this array after its check
        assert sp.offer == (sp.last_eval, state.archive.inserts)
        _archive_population(state.archive, state.subproblems, 0)
        assert len(checked) == 1          # same array, archive unchanged since
        sp.last_eval = sp.last_eval.copy()
        _archive_population(state.archive, state.subproblems, 0)
        assert len(checked) == 2          # equal values, but another array
        state.archive.insert(np.array([1.0, -1.0]), b"")
        before = len(checked)             # insert checks too
        _archive_population(state.archive, state.subproblems, 0)
        assert len(checked) == before + 1  # the archive changed
        assert len(state.archive) == 2


class TestScoreMemo:
    CONFIGS = [dict(scalarization=kind, psa_enabled=psa, cooperation=mode)
               for kind in ("weighted-sum", "tchebycheff") for psa in (False, True)
               for mode in orchestrator.COOPERATION_MODES]

    @pytest.mark.parametrize("overrides", CONFIGS, ids=[
        f"{c['scalarization']}-psa{int(c['psa_enabled'])}-{c['cooperation']}" for c in CONFIGS])
    def test_memoised_runs_equal_runs_through_the_oracle_step(self, overrides, monkeypatch):
        """Weights and the reference point move in _adapt every 60 steps; a
        memo that outlived a round would score with stale ones."""
        scores = []
        score = Scalarization.score
        monkeypatch.setattr(Scalarization, "score",
                            lambda self, f, lam: scores.append(1) or score(self, f, lam))
        config = small_config(learner="scalarized-q", psa_period_steps=60, **overrides)
        report = run(config)
        memoised = len(scores)
        monkeypatch.setattr(orchestrator, "QTableScalar", NumpyRowScalar)
        monkeypatch.setattr(orchestrator, "update_scalarized_q", scalarized_q_batch)
        expected = run(config)
        assert memoised < len(scores) - memoised  # the memo took effect
        assert [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in report.archive] == \
               [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in expected.archive]
        assert report.checkpoints == expected.checkpoints
        assert [serialize_table(sp.learner) for sp in report.subproblems] == \
               [serialize_table(sp.learner) for sp in expected.subproblems]
        if config.psa_enabled:
            initial = initialize(config).subproblems
            assert any(not np.array_equal(sp.weight, first.weight)
                       for sp, first in zip(report.subproblems, initial))


def noisy_corridor():
    """dst-corridor whose every reward is one higher in both objectives half
    the time, so new returns, and new replay plans, keep arriving."""
    base = dst_corridor()
    transitions = [[[(p / 2, ns, r + shift, term) for p, ns, r, term in base.outcomes(s, a)
                     for shift in (0.0, 1.0)] for a in range(base.n_actions)]
                   for s in range(base.n_states)]
    return Momdp(base.n_states, base.n_actions, 2, transitions, base.initial_dist,
                 base.max_episode_steps, name="noisy-corridor", hv_reference_default=(0.0, -50.0))


register_env("noisy-corridor-test-env", noisy_corridor)


def branching_chain(length=6):
    """A deterministic chain whose two actions both advance, with rewards
    (1, 0) and (0, 1): each action sequence is its own episode, so
    exploration keeps bringing new replay plans."""
    transitions = [[[(1.0, min(s + 1, length - 1), np.array([1.0 - a, float(a)]),
                      s + 1 == length)] for a in range(2)] for s in range(length)]
    mu0 = np.zeros(length)
    mu0[0] = 1.0
    return Momdp(length, 2, 2, transitions, mu0, length, name="branching-chain",
                 hv_reference_default=(-1.0, -1.0))


register_env("branching-chain-test-env", branching_chain)


class TestEsrReplay:
    CONFIGS = [dict(scalarization=kind, psa_enabled=psa, cooperation=mode,
                    buffer_replacement=replacement)
               for kind in ("weighted-sum", "tchebycheff") for psa in (False, True)
               for mode in orchestrator.COOPERATION_MODES
               for replacement in ("fifo", "diverse-crowding")] + [
        dict(env=env, scalarization="tchebycheff", psa_enabled=psa, cooperation="shared-buffer",
             buffer_replacement="fifo")
        for env in ("noisy-corridor-test-env", "branching-chain-test-env") for psa in (False, True)]

    @pytest.mark.parametrize("overrides", CONFIGS, ids=[
        f"{c['scalarization']}-psa{int(c['psa_enabled'])}-{c['cooperation']}-"
        f"{c['buffer_replacement']}" + (f"-{c['env']}" if "env" in c else "") for c in CONFIGS])
    def test_runs_equal_runs_through_the_oracle_round(self, overrides, monkeypatch):
        """_adapt moves the reference point (and with PSA the weights) every
        60 steps, and 40-step buffers evict, so stale memos, stale plans and
        draws out of order would all show."""
        scores = []
        score = Scalarization.score
        monkeypatch.setattr(Scalarization, "score",
                            lambda self, f, lam: scores.append(1) or score(self, f, lam))
        config = small_config(learner="esr-mc", psa_period_steps=60, buffer_capacity=40,
                              total_steps=900, **overrides)
        report = run(config)
        memoised = len(scores)
        monkeypatch.setattr(orchestrator, "QTableEsr", NumpyRowEsr)
        monkeypatch.setattr(orchestrator, "_improve_all", improve_esr_pick_by_pick)
        expected = run(config)
        assert memoised < len(scores) - memoised  # the memo took effect
        assert [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in report.archive] == \
               [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in expected.archive]
        assert report.checkpoints == expected.checkpoints
        assert [serialize_table(sp.learner) for sp in report.subproblems] == \
               [serialize_table(sp.learner) for sp in expected.subproblems]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           highs=st.lists(st.one_of(st.integers(1, 50), st.integers(2**32 - 2, 2**32 + 7),
                                    st.integers(1, 2**40)), max_size=24))
    def test_one_draw_with_many_bounds_equals_one_draw_per_bound(self, seed, highs):
        one, each = derive_stream(seed, STREAM_BUFFER), derive_stream(seed, STREAM_BUFFER)
        assert one.integers(0, highs).tolist() == [int(each.integers(0, h)) for h in highs]
        assert one.bit_generator.state == each.bit_generator.state

    @staticmethod
    def sampled_with_trees(monkeypatch, config):
        """Run ``config``; return its report, and per sampled episode the tree
        it walked and that tree's size after it."""
        walks = []

        def recorded(*args, tree=None):
            result = rollout(*args, tree=tree)
            walks.append((tree, tree and tree.size))
            return result

        monkeypatch.setattr(orchestrator, "rollout", recorded)
        return run(config), walks

    def test_the_step_tree_stays_bounded_by_the_buffer_capacity(self, monkeypatch):
        """Only the capacity bound restarts the tree (and drops its episodes'
        plans) of ever-new action sequences; it checks between episodes."""
        env = branching_chain()
        assert env.deterministic
        config = small_config(env="branching-chain-test-env", learner="esr-mc",
                              scalarization="tchebycheff", buffer_capacity=30,
                              psa_period_steps=10_000, total_steps=1200)
        _, walks = self.sampled_with_trees(monkeypatch, config)
        sizes = [size for _, size in walks]
        assert len({id(tree) for tree, _ in walks}) == 1
        assert max(sizes) <= config.buffer_capacity + env.max_episode_steps
        assert max(sizes) > config.buffer_capacity              # passed between checks
        assert any(b < a for a, b in zip(sizes, sizes[1:]))     # and restarted

    def test_stochastic_envs_build_no_tree(self, monkeypatch):
        assert not noisy_corridor().deterministic
        config = small_config(env="noisy-corridor-test-env", learner="esr-mc",
                              scalarization="tchebycheff", buffer_capacity=30)
        assert initialize(config).tree is None
        _, walks = self.sampled_with_trees(monkeypatch, config)
        assert walks and {tree for tree, _ in walks} == {None}
        with pytest.raises(ValueError, match="not deterministic"):
            StepTree(noisy_corridor(), 10, 1.0)

    def test_a_corridor_run_keeps_one_object_and_one_plan_per_episode(self, monkeypatch):
        """Every buffer holds the tree's one object per action sequence, and
        each episode is planned on its first replay only."""
        states, replays = [], []
        init, update = orchestrator.initialize, orchestrator.update_esr_mc

        def replay(q, episode, *args):
            before = episode.replay
            update(q, episode, *args)
            replays.append((episode, before, episode.replay))

        monkeypatch.setattr(orchestrator, "initialize",
                            lambda config: states.append(init(config)) or states[-1])
        monkeypatch.setattr(orchestrator, "update_esr_mc", replay)
        run(small_config(learner="esr-mc", scalarization="tchebycheff", buffer_capacity=40))
        tree = states[0].tree
        terminals, stack = [], [tree.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            terminals += [node.episode] if node.episode is not None else []
        assert 1 < len(terminals) <= 6   # dst-corridor has six action sequences
        for buf in states[0].buffers:
            for ep in buf.complete_episodes():
                node = tree.root
                for e in ep:
                    node = node.children[e.action]
                assert ep is node.episode
        builds = {}
        for episode, before, after in replays:
            assert type(episode) is _Episode and after is not None
            assert before in (None, after)
            builds[id(episode)] = builds.get(id(episode), 0) + (before is None)
        assert set(builds.values()) == {1} and len(builds) <= len(terminals)

    @pytest.mark.parametrize("learner", ["esr-mc", "scalarized-q"])
    def test_runs_with_the_step_tree_off_report_the_same(self, learner, monkeypatch):
        """Evicting 40-step buffers shared with neighbors, PSA and Tchebycheff."""
        config = small_config(learner=learner, scalarization="tchebycheff", psa_enabled=True,
                              psa_period_steps=60, buffer_capacity=40,
                              cooperation="shared-buffer-neighborhood", total_steps=900)
        report, walks = self.sampled_with_trees(monkeypatch, config)
        assert walks and all(tree is not None for tree, _ in walks)
        monkeypatch.setattr(orchestrator, "rollout", lambda *args, tree=None: rollout(*args))
        expected = run(config)
        assert [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in report.archive] == \
               [(e.eval.tobytes(), e.payload, e.subproblem, e.step) for e in expected.archive]
        assert report.checkpoints == expected.checkpoints
        assert [serialize_table(sp.learner) for sp in report.subproblems] == \
               [serialize_table(sp.learner) for sp in expected.subproblems]

    def test_sampled_steps_do_not_share_accrued_arrays(self):
        env = dst_corridor()
        q = QTableEsr(env.n_actions, 2)
        policy = orchestrator.greedy_policy(q)
        rng = np.random.default_rng(5)
        traces = [rollout(env, policy, rng, _epsilon_schedule(small_config()))[0]
                  for _ in range(20)] + [rollout(env, policy, seed)[0] for seed in range(5)]
        for trace in traces:
            arrays = [e.accrued for e in trace]
            assert len({id(a) for a in arrays}) == len(arrays)
            assert [a.tolist() for a in arrays] == \
                   [np.sum([e.reward for e in trace[:t]], axis=0).tolist() if t else [0.0, 0.0]
                    for t in range(len(trace))]
        assert max(len(trace) for trace in traces) > 1


@st.composite
def deterministic_momdps(draw):
    """A random deterministic MOMDP: up to 4 states, 3 actions, 3 objectives
    and 6 steps, with rewards whose sums keep signed zeros and round."""
    n_states, n_actions, m = (draw(st.integers(1, k)) for k in (4, 3, 3))
    reward = st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.0, -2.5, 1e-300, 1e300, -1e300]),
                      min_size=m, max_size=m)
    state = st.integers(0, n_states - 1)
    transitions = [[[(1.0, draw(state), draw(reward), draw(st.booleans()))]
                    for _ in range(n_actions)] for _ in range(n_states)]
    mu0 = np.zeros(n_states)
    mu0[draw(state)] = 1.0
    return Momdp(n_states, n_actions, m, transitions, mu0, draw(st.integers(1, 6)))


@settings(max_examples=200, deadline=None)
@given(env=deterministic_momdps(), seed=st.integers(0, 2**32 - 1),
       epsilon=st.sampled_from([None, 0.2, 0.5, 1.0]), augmented=st.booleans())
def test_a_tree_walk_equals_the_plain_rollout(env, seed, epsilon, augmented):
    """Field by field: states, actions, terminal flags, the very reward
    objects and the accrued bytes; the return's bytes, and the generators'
    states after each episode. The exploration probability alternates with
    the step index, and the policy learns a random row for each key it
    visited, so greedy actions vary and read stored keys."""
    assert env.deterministic
    tree = StepTree(env, capacity=10**6, gamma=1.0)
    plain_rng, tree_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = np.random.default_rng(seed + 1)
    policy = TabularPolicy(augmented=augmented, default_row=[0.0] * env.n_actions)
    schedule = None if epsilon is None else (lambda t: epsilon if t % 2 else 1.0 - epsilon)
    for _ in range(20):
        trace, total = rollout(env, policy, plain_rng, schedule, plain_rng)
        episode, walked = rollout(env, policy, tree_rng, schedule, tree_rng, tree=tree)
        assert type(episode) is _Episode and len(episode) == len(trace)
        for kept, seen in zip(episode, trace):
            assert (kept.state, kept.action, kept.next_state, kept.terminal) == \
                   (seen.state, seen.action, seen.next_state, seen.terminal)
            assert kept.reward is seen.reward
            assert kept.accrued.tobytes() == seen.accrued.tobytes()
        assert walked.tobytes() == total.tobytes()
        assert plain_rng.bit_generator.state == tree_rng.bit_generator.state
        for e in trace:
            key = accrued_key(e.state, e.accrued) if augmented else e.state
            policy.preferences[key] = rows.random(env.n_actions).tolist()


def test_a_walk_reports_a_policy_gap_like_the_plain_rollout():
    env = dst_corridor()
    gap = TabularPolicy({0: [0.0, 1.0]})   # dives at once; any advance meets a gap
    with pytest.raises(ValueError, match="policy gap: no preferences for state 1"):
        rollout(env, TabularPolicy({0: [1.0, 0.0]}), tree=StepTree(env, 100, 1.0))
    assert rollout(env, gap, tree=StepTree(env, 100, 1.0))[0][0].action == 1
    with pytest.raises(ValueError, match="step tree of 'tiny-tree' cannot walk"):
        rollout(env, gap, tree=StepTree(orchestrator.make_env("tiny-tree"), 100, 1.0))


def _terminal_nodes(tree):
    """``(actions, node)`` of every terminal node of ``tree``, depth first."""
    found, stack = [], [((), tree.root)]
    while stack:
        actions, node = stack.pop()
        stack.extend((actions + (a,), child) for a, child in node.children.items())
        found += [(actions, node)] if node.episode is not None else []
    return found


@settings(max_examples=200, deadline=None)
@given(env=deterministic_momdps(), gamma=st.sampled_from([1.0, 0.9, 0.5]),
       seed=st.integers(0, 2**32 - 1), epsilon=st.sampled_from([0.3, 0.7, 1.0]),
       walks=st.integers(1, 20))
def test_a_tree_values_each_terminal_node_at_its_gamma(env, gamma, seed, epsilon, walks):
    """Grown by random epsilon-walks, every terminal node holds the discounted
    return of its action sequence, stepped afresh and summed on float64 arrays,
    bit for bit; no other node holds a value."""
    tree = StepTree(env, capacity=10**6, gamma=gamma)
    rng = np.random.default_rng(seed)
    policy = TabularPolicy(default_row=[0.0] * env.n_actions)
    for _ in range(walks):
        tree.walk(policy, lambda t: epsilon, rng)
    terminals = _terminal_nodes(tree)
    assert terminals
    for actions, node in terminals:
        expected = discounted_return_of_actions(env, actions, gamma)
        assert node.value.dtype == expected.dtype and node.value.tobytes() == expected.tobytes()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        assert (node.value is None) == (node.episode is None)


@st.composite
def stochastic_momdps(draw):
    """A random two-objective MOMDP of up to 3 states, 3 actions and 6 steps
    whose first (state, action) pair has two outcomes (1/4 and 3/4), as may
    any other; rewards sum to signed zeros and to inexact reals."""
    n_states, n_actions = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    reward = st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.0, -2.5, 3.0]), min_size=2, max_size=2)
    state = st.integers(0, n_states - 1)

    def outcome(p):
        return (p, draw(state), draw(reward), draw(st.booleans()))

    transitions = [[[outcome(0.25), outcome(0.75)] if (s, a) == (0, 0) or draw(st.booleans())
                    else [outcome(1.0)] for a in range(n_actions)] for s in range(n_states)]
    mu0 = np.zeros(n_states)
    mu0[draw(state)] = 1.0
    return Momdp(n_states, n_actions, 2, transitions, mu0, draw(st.integers(1, 6)))


STOCHASTIC_ENV = "stochastic-esr-test-env"


@settings(max_examples=30, deadline=None)
@given(env=stochastic_momdps(), population=st.sampled_from([1, 2, 3]),
       cooperation=st.sampled_from(orchestrator.COOPERATION_MODES),
       seed=st.integers(0, 2**16))
def test_an_esr_run_on_a_stochastic_env_repeats_and_keeps_its_tables_finite(
        env, population, cooperation, seed):
    """``esr-mc`` with Tchebycheff and PSA where sampling walks no step tree
    and its episodes keep no plan: two runs of one config give equal
    checkpoints, archive evaluations and payload bytes, and every value of
    every final table is finite."""
    assert not env.deterministic
    register_env(STOCHASTIC_ENV, lambda: env)
    config = RunConfig(
        env=STOCHASTIC_ENV, learner="esr-mc", scalarization="tchebycheff", psa_enabled=True,
        psa_period_steps=20, population_size=population, cooperation=cooperation,
        total_steps=150, steps_per_iteration=10, update_passes=2, eval_episodes=2,
        eum_weights=3, hv_reference=tuple(w - 1.0 for w in _worst_return(env, 1.0)), seed=seed)
    first, second = run(config), run(config)
    assert first.checkpoints == second.checkpoints
    assert [(e.eval.tobytes(), e.payload) for e in first.archive] == \
           [(e.eval.tobytes(), e.payload) for e in second.archive]
    tables = [sp.learner.table for sp in first.subproblems]
    assert any(tables)
    assert all(math.isfinite(v) for table in tables for row in table.values() for v in row)


@pytest.mark.parametrize("learner", ["esr-mc", "scalarized-q"])
def test_a_corridor_run_values_each_terminal_node_once_as_it_grows(learner, monkeypatch):
    """From the first evaluation on, greedy policies walk the run's step tree and
    read its terminal nodes' values, each summed once, when its node is made
    (the tree never restarts here), with the bits of ``evaluate_policy``;
    the run calls ``evaluate_policy`` not at all."""
    states, calls, sums = [], [], []
    init, total = orchestrator.initialize, momdp._discounted_sum
    monkeypatch.setattr(orchestrator, "initialize",
                        lambda config: states.append(init(config)) or states[-1])
    monkeypatch.setattr(orchestrator, "evaluate_policy", lambda *args: calls.append(args))
    monkeypatch.setattr(momdp, "_discounted_sum",
                        lambda episode, gamma: sums.append(episode) or total(episode, gamma))
    config = small_config(learner=learner, scalarization="tchebycheff", buffer_capacity=10_000)
    run(config)
    env, terminals = states[0].env, _terminal_nodes(states[0].tree)
    assert calls == [] and 1 < len(sums) == len(terminals) <= 6   # six action sequences
    assert {id(node.episode) for _, node in terminals} == {id(episode) for episode in sums}
    for actions, node in terminals:
        rows = {e.state: np.eye(env.n_actions)[e.action] for e in node.episode}
        plain = momdp.evaluate_policy(env, TabularPolicy(rows), 1, config.gamma)
        assert [e.action for e in node.episode] == list(actions)
        assert node.value.tobytes() == plain.tobytes()


class TestReportPickle:
    def test_holds_no_walk_cache(self):
        report = run(small_config(learner="esr-mc", scalarization="tchebycheff",
                                  total_steps=120))
        data = pickle.dumps(report)
        for name in (b"walk", b"offer", b"scores", b"RunState"):
            assert name not in data
        assert not {"walk", "offer", "scores"} & {f.name for f in dataclasses.fields(RunReport)}

    @pytest.mark.parametrize("learner", orchestrator.LEARNERS)
    def test_returned_subproblems_hold_no_walk_offer_or_score_memo(self, learner, monkeypatch):
        """The run's subproblems fill their caches; the report's hold the
        defaults, as do their pickled copies, with the same tables."""
        states, init = [], orchestrator.initialize
        monkeypatch.setattr(orchestrator, "initialize",
                            lambda config: states.append(init(config)) or states[-1])
        report = run(small_config(learner=learner, scalarization="tchebycheff", total_steps=120))
        used = states[0].subproblems
        assert all(sp.walk and sp.offer[0] is sp.last_eval for sp in used)
        assert any(sp.scores for sp in used) == (learner in ("scalarized-q", "esr-mc"))
        restored = pickle.loads(pickle.dumps(report)).subproblems
        for sp in report.subproblems + restored:
            assert (sp.walk, sp.offer, sp.scores) == ((), (None, -1), {})
        assert [sp.learner for sp in report.subproblems] == [sp.learner for sp in used]
        assert [serialize_table(sp.learner) for sp in restored] == \
               [serialize_table(sp.learner) for sp in used]

    def test_holds_no_experience_buffer(self):
        assert b"ExperienceBuffer" in pickle.dumps(ExperienceBuffer(capacity=1))
        report = run(small_config(cooperation="shared-buffer", total_steps=120))
        data = pickle.dumps(report)
        assert b"ExperienceBuffer" not in data
        restored = pickle.loads(data)
        assert [tuple(e.eval) for e in restored.archive] == [tuple(e.eval) for e in report.archive]
        assert [sp.index for sp in restored.subproblems] == [0, 1, 2]


class TestBenchmarkTracer:
    """The benchmark's tracer patches paretoq names from outside; a change
    that renames or bypasses one would silently zero its per-layer metrics."""

    @staticmethod
    def tracing():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        return tracing

    def test_every_traced_layer_records_calls(self):
        push = ExperienceBuffer.push
        tracer = self.tracing().Tracer().install()
        try:
            tracer.root_run(run)(small_config(cooperation="none", learner="scalarized-q",
                                              total_steps=120))
        finally:
            tracer.uninstall()
        spans, _, _ = tracer.merged()
        for name in ("learning.buffer.push", "learning.buffer.sample", "learning.update.scalar",
                     "learning.greedy_policy", "archive.would_accept", "momdp.oracle"):
            assert spans.get(name, [0])[0] > 0, name
        assert tracer.missing == []
        assert ExperienceBuffer.push is push

    @pytest.mark.parametrize("learner,kind", [("scalarized-q", "scalar"),
                                              ("envelope-q", "envelope")])
    @pytest.mark.parametrize("cooperation", ["none", "shared-buffer-neighborhood"])
    def test_one_update_span_per_sampled_batch(self, cooperation, learner, kind, monkeypatch):
        """Counted apart from the tracer, so splitting a batch into several
        calls, sampling other than through ``ExperienceBuffer.sample`` or
        calling the step by another name than the
        ``orchestrator.update_scalarized_q`` or ``update_envelope_q`` that
        the tracer patches fails here."""
        replayed = []
        sample = ExperienceBuffer.sample

        def counted_sample(buf, batch, rng, *others):
            drawn = sample(buf, batch, rng, *others)
            replayed.append(len(drawn))
            return drawn

        monkeypatch.setattr(ExperienceBuffer, "sample", counted_sample)
        tracer = self.tracing().Tracer().install()
        try:
            tracer.root_run(run)(small_config(cooperation=cooperation, learner=learner,
                                              total_steps=120))
        finally:
            tracer.uninstall()
        spans, _, _ = tracer.merged()
        assert spans[f"learning.update.{kind}"][0] == len([n for n in replayed if n]) > 0
        assert spans["learning.buffer.sample"][0] == len(replayed)   # several buffers too

    @pytest.mark.parametrize("cooperation", ["none", "shared-buffer-neighborhood"])
    def test_one_esr_update_span_per_pick(self, cooperation, monkeypatch):
        """Counted apart from the tracer: a round picks ``update_passes``
        episodes for each subproblem that sees any."""
        seen = []
        improve = orchestrator._improve_all

        def counted_improve(state):
            seen.extend(any(buf.complete_episodes() for buf in visible) for visible in state.visible)
            return improve(state)

        monkeypatch.setattr(orchestrator, "_improve_all", counted_improve)
        config = small_config(cooperation=cooperation, learner="esr-mc",
                              scalarization="tchebycheff", total_steps=120)
        tracer = self.tracing().Tracer().install()
        try:
            tracer.root_run(run)(config)
        finally:
            tracer.uninstall()
        spans, _, _ = tracer.merged()
        assert spans["learning.update.esr"][0] == sum(seen) * config.update_passes > 0


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

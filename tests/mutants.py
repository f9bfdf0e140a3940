"""Mutation kill list: each mutant below must make its tests fail.

    python tests/mutants.py             # every mutant
    python tests/mutants.py 3 17        # the mutants at these indices
    python tests/mutants.py --list      # index, file and tests of each mutant

Each entry is ``(file, old text, new text, tests)``. The script copies
``src/`` into a fresh temporary directory, replaces the one occurrence of
``old`` in ``paretoq/<file>`` there with ``new``, and runs pytest on
``tests`` (paths or node ids under the repository root) with the copy first
on ``PYTHONPATH``. The mutant is killed when pytest reports a failure or
runs past ``TIMEOUT_S``. An ``old`` text that is missing or not unique is
an error. First, every selected mutant's tests run once on an unchanged
copy and must pass, so each kill is its mutant's doing. The exit status is
0 only if every selected mutant is killed.

This script is not part of Tier-1 (pytest does not collect it). Run it
after changing code that a mutant names, and add here the mutants of every
new mutation check. ``tests/test_demos.py`` puts the repository's own
``src/`` first for its subprocesses, so no entry names it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900

ORCH = "tests/test_orchestrator.py"
EVAL = "tests/test_evaluation.py"
LEARN = "tests/test_learning.py"
ESR_LOOP = "tests/test_orchestrator.py::TestEsrReplay"
ONE_PLAN = ESR_LOOP + "::test_a_corridor_run_keeps_one_object_and_one_plan_per_episode"
TREE_WALK = "tests/test_orchestrator.py::test_a_tree_walk_equals_the_plain_rollout"
ENVELOPE_ROUND = "tests/test_learning.py::test_envelope_round_matches_one_step_per_weight"
ESR_FLIPS = "tests/test_learning.py::test_esr_rows_keep_their_greedy_action_and_count_its_changes"
FRESH_WALK = "tests/test_evaluation.py::test_cached_population_evaluation_is_a_fresh_walk"
RUN_STATE = ("tests/test_evaluation.py::"
             "test_run_state_evaluation_is_a_fresh_walk_under_adaptation_transfer_and_replay")
TERMINALS = ("tests/test_orchestrator.py::"
             "test_a_corridor_run_values_each_terminal_node_once_as_it_grows")
TREE_VALUES = "tests/test_orchestrator.py::test_a_tree_values_each_terminal_node_at_its_gamma"
NODE_VALUES = EVAL + "::test_a_tree_values_its_terminal_nodes_for_its_own_env_and_gamma"
WALK_TREE = EVAL + "::test_an_esr_walk_is_reused_on_its_own_tree_only"
NO_WALK = EVAL + "::test_without_a_tree_a_deterministic_env_keeps_no_walk"
SIZES = "tests/test_learning.py::test_table_sizes_below_one_are_rejected"
NON_FINITE = "tests/test_learning.py::TestNonFiniteInputIsRejected"
SERIALIZED = "tests/test_learning.py::TestSerialization"
MC_SKIP = "tests/test_metrics.py::TestNoDrawsWhenEveryDrawHits"
DRAWS = "tests/test_rng.py::test_draws_equal_numpys_generator_draw_for_draw"
THRESHOLD = "tests/test_rng.py::test_a_half_at_or_below_the_rejection_threshold_draws_as_numpy_does"

MUTANTS = [
    # --- archive.py
    ("archive.py", "return not (self._mat >= vec).all(axis=1).any()",
     "return not (self._mat > vec).all(axis=1).any()", ["tests/test_archive.py"]),
    ("archive.py", "        self._mat = None  # rebuilt by the next check",
     "        pass", ["tests/test_archive.py"]),
    ("archive.py", "key=rows.__getitem__, reverse=True)", "key=rows.__getitem__, reverse=False)",
     ["tests/test_archive.py::TestPrune"]),
    ("archive.py", "mat.ndim != 2 or not np.isfinite(mat).all()", "mat.ndim != 2",
     ["tests/test_archive.py::TestPrune"]),
    ("archive.py", "(ranked[:, at + 1:] <= ranked[:, at, None])",
     "(ranked[:, at + 1:] < ranked[:, at, None])", ["tests/test_archive.py::TestPrune"]),
    ("archive.py", "pts[order[:-2], j]) / span", "pts[order[:-2], j]) / span * (1 + 2**-52)",
     ["tests/test_archive.py::TestCrowdingDistance"]),
    # --- metrics.py
    ("metrics.py", "    return total / (n - 1)", "    return total / n",
     ["tests/test_metrics.py::TestSparsity"]),
    ("metrics.py", "rng.random(out=block[:n])", "rng.random(out=block)",
     ["tests/test_metrics.py::TestMonteCarloBlocks"]),
    ("metrics.py", "for j in range(1, len(limit)):", "for j in range(1, len(limit) - 1):",
     ["tests/test_metrics.py"]),
    ("metrics.py", "return hypervolume_monte_carlo(pts, z, samples, rng)[0]",
     "return hypervolume_monte_carlo(front, z, samples, rng)[0]",
     ["tests/test_metrics.py::TestHypervolume"]),
    ("metrics.py", "    return lo.view(np.float64)", "    return (lo + 1).view(np.float64)",
     ["tests/test_metrics.py"]),
    ("metrics.py", "below = mid.view(np.float64) * span + z <= pts",
     "below = mid.view(np.float64) * span + z < pts", ["tests/test_metrics.py"]),
    ("metrics.py", "(_LAST_DRAW * span + z <= pts).all(axis=1).any()",
     "(_LAST_DRAW * span + z <= pts).any(axis=1).any()", [MC_SKIP]),
    ("metrics.py", '"has_uint32": kept["has_uint32"], ', "", [MC_SKIP]),
    ("metrics.py", ', "uinteger": kept["uinteger"]', "", [MC_SKIP]),
    ("metrics.py", "if samples < 1:", "if samples < 0:", [MC_SKIP]),
    # --- rng.py
    ("rng.py", "return (x >> 11) * 2**-53", "return (x >> 12) * 2**-53", [DRAWS]),
    ("rng.py", "half, self._half = x & 0xFFFFFFFF, x >> 32",
     "half, self._half = x >> 32, x & 0xFFFFFFFF", [DRAWS]),
    ("rng.py", "low >= (2**32 - n) % n", "low >= (2**32 - n + 1) % n", [THRESHOLD]),
    ("rng.py", "low >= (2**32 - n) % n", "low >= (2**32 - n - 1) % n", [THRESHOLD]),
    # --- momdp.py: the enumeration oracle
    ("momdp.py", "for k in range(n_outcomes):", "for k in reversed(range(n_outcomes)):",
     ["tests/test_momdp.py::TestEnumerationAgainstPerPolicyDp"]),
    ("momdp.py", "for s in range(env.n_states):   # every policy of the block at once",
     "for s in reversed(range(env.n_states)):   # every policy of the block at once",
     ["tests/test_momdp.py::TestEnumerationAgainstPerPolicyDp"]),
    # --- momdp.py: evaluation and rollouts
    ("momdp.py", "        accrued = accrued + reward   # a new array: each step keeps its own\n",
     "", [EVAL]),
    ("momdp.py", "        discount *= gamma\n", "", [EVAL, TREE_VALUES]),
    ("momdp.py", "runs = 1 if env.deterministic else episodes", "runs = episodes", [EVAL]),
    ("momdp.py", "prefs = self.preferences.get(key, self.default_row)",
     "prefs = self.preferences.get(key, self.default_row or [0.0])",
     ["tests/test_orchestrator.py::test_a_walk_reports_a_policy_gap_like_the_plain_rollout"]),
    # --- momdp.py: the step tree
    ("momdp.py", "_Node(next_state, node.accrued + reward, step, node)",
     "_Node(next_state, node.accrued, step, node)", [TREE_WALK]),
    ("momdp.py", "_discounted_sum(child.episode, self.gamma)",
     "_discounted_sum(child.episode, 1.0)", [TREE_VALUES, NODE_VALUES]),
    ("momdp.py", "explore.random() < epsilon(depth)", "explore.random() < epsilon(depth + 1)",
     [TREE_WALK]),
    ("momdp.py", "if self.root is None or self.size > self.capacity:", "if self.root is None:",
     [ESR_LOOP + "::test_the_step_tree_stays_bounded_by_the_buffer_capacity"]),
    ("momdp.py", "action = action_at(node.key if augmented else node.state)",
     "action = action_at(node.state)", [TREE_WALK]),
    # --- learning.py: buffers
    ("learning.py", "size = sum(map(len, others), len(self._flat))", "size = len(self._flat)",
     [ORCH + "::TestVisibleBuffers"]),
    ("learning.py", "        i -= len(part)", "        i -= len(part) or 1",
     [ORCH + "::TestVisibleBuffers"]),
    ("learning.py", "episodes[dropped] = head[excess:]", "del head[:excess]",
     ["tests/test_learning.py::test_buffer_matches_a_naive_model"]),
    ("learning.py", "steps = experiences if type(experiences) is _Episode else list(experiences)",
     "steps = list(experiences)", [ONE_PLAN]),
    # --- learning.py: scalar and envelope updates
    ("learning.py", "if entry is None or entry[0] is not reward:", "if entry is None:",
     [LEARN + "::TestScalarizedUpdate::test_memo_rescores_a_reward_it_does_not_hold"]),
    ("learning.py", "bootstrap = max(nxt)", "bootstrap = min(nxt)", [LEARN]),
    ("learning.py", "self.rows = (self.stacked[:, None] == self.stacked).all(axis=2).argmax(axis=1)"
     ".tolist()", "self.rows = list(range(len(weights)))", [LEARN]),
    ("learning.py", "            array.flags.writeable = False", "            pass",
     ["tests/test_learning.py::TestEnvelopeWeights"]),
    ("learning.py", "        vars(self).update(state)\n        self.weights = self._weights",
     "        vars(self).update(state)", ["tests/test_learning.py::TestEnvelopeWeights"]),
    ("learning.py", "if nxt is block or repeated:", "if repeated:",
     [ENVELOPE_ROUND, ORCH + "::TestEnvelopeImprovement"]),
    ("learning.py", "if nxt is block or repeated:", "if nxt is block:",
     [ENVELOPE_ROUND, ORCH + "::TestEnvelopeImprovement"]),
    ("learning.py", "remap = np.arange(n_rows * q.n_actions).reshape(n_rows, -1).T.ravel()",
     "remap = np.arange(n_rows * q.n_actions)", [ENVELOPE_ROUND]),
    ("learning.py", 'np.einsum("lam,km->kal", nxt, weights)',
     'np.einsum("lam,km->kla", nxt, weights)', [ENVELOPE_ROUND]),
    # --- learning.py: ESR updates and their greedy actions
    ("learning.py", "            episode.replay = plan\n", "            pass\n",
     [ONE_PLAN]),
    ("learning.py", "        flips += best != kept",
     "        flips += best != kept and not (kept == a and new < old)", [ESR_FLIPS]),
    ("learning.py", "        flips += best != kept",
     "        flips += best != kept and kept == a and new < old", [ESR_FLIPS]),
    ("learning.py", "        row.greedy = None\n        self.flips += 1\n",
     "        self.flips += 1\n", [ESR_FLIPS]),
    ("learning.py", "        row.greedy = None\n        self.flips += 1\n",
     "        row.greedy = None\n", [ESR_FLIPS, FRESH_WALK]),
    # --- learning.py and decomposition.py: non-finite input raises where it enters
    ("learning.py", "if self.n_actions < 1:", "if self.n_actions < 0:", [SIZES, SERIALIZED]),
    ("learning.py", "self.n_objectives < 1:", "self.n_objectives < 0:", [SIZES, SERIALIZED]),
    ("learning.py", "    values = _floats(values_txt)",
     "    values = [float(x) for x in values_txt.split(',')]", [SERIALIZED]),
    ("learning.py", "if not 0.0 <= gamma <= 1.0:", "if not 0.0 <= gamma:",
     [NON_FINITE, SERIALIZED]),
    ("learning.py", "        if not np.isfinite(stacked).all():\n", "        if False:\n",
     [NON_FINITE, SERIALIZED]),
    ("learning.py", "        if not np.isfinite(lam).all():\n", "        if False:\n", [NON_FINITE]),
    ("decomposition.py", "    if not math.isfinite(score):\n", "    if score != score:\n",
     ["tests/test_decomposition.py"]),
    ("decomposition.py", "if not all(map(math.isfinite, terms)):",
     "if not math.isfinite(max(terms)):", ["tests/test_decomposition.py"]),
    # --- orchestrator.py: validation
    ("orchestrator.py", "if n > 1 and lattice_divisions(env.n_objectives, n) is None:",
     "if False:", [ORCH + "::TestInitialize", "tests/test_harness.py::TestMain"]),
    ("orchestrator.py", "isinstance(value, np.floating) and value.dtype != np.float64:",
     "isinstance(value, np.floating) and value.dtype == np.float16:",
     [ORCH + "::TestInitialize"]),
    # --- orchestrator.py: the walk cache and the step tree's values
    ("orchestrator.py", "table is q and flips == q.flips and flips is not None:",
     "flips == q.flips and flips is not None:",
     [EVAL + "::test_a_transferred_esr_table_with_an_equal_flip_count_is_walked_again"]),
    ("orchestrator.py", "table is q and flips == q.flips and flips is not None:",
     "table is q and flips == q.flips:", [FRESH_WALK, RUN_STATE]),
    ("orchestrator.py", "if walked is tree and table is q", "if table is q", [WALK_TREE]),
    ("orchestrator.py", "            sp.walk = (sp.last_eval, q, q.flips, tree)",
     "        sp.walk = (sp.last_eval, q, q.flips, tree)",
     [NO_WALK, EVAL + "::test_stochastic_population_evaluation_keeps_the_eval_stream"]),
    ("orchestrator.py", "    if tree is not None and tree.env is not env:",
     "    if tree is not None and tree.env is not tree.env:", [NODE_VALUES]),
    ("orchestrator.py", "    if tree is not None and tree.gamma != gamma:", "    if False:",
     [NODE_VALUES]),
    ("orchestrator.py", "                                streams.eval, tree)",
     "                                streams.eval)", [TERMINALS]),
    ("orchestrator.py", "cfg.gamma, state.streams.eval, state.tree)",
     "cfg.gamma, state.streams.eval)", [TERMINALS]),
    # --- orchestrator.py: the offer cache
    ("orchestrator.py", "if last is sp.last_eval and inserts == archive.inserts:",
     "if last is sp.last_eval:", [ORCH + "::TestArchiveOffers"]),
    ("orchestrator.py",
     "        sp.offer = (sp.last_eval, archive.inserts)\n"
     "        if archive.would_accept(sp.last_eval):\n",
     "        if archive.would_accept(sp.last_eval):\n"
     "            sp.offer = (sp.last_eval, archive.inserts)\n", [ORCH + "::TestArchiveOffers"]),
    # --- orchestrator.py: score memos, updates and picks
    ("orchestrator.py", "        sp.scores.clear()", "        pass",
     [ORCH + "::TestScoreMemo", ESR_LOOP]),
    ("orchestrator.py", '"scalar": lambda sp, g, pick: update_scalarized_q(',
     '"scalar": lambda sp, g, pick: __import__("paretoq.learning").learning.update_scalarized_q(',
     [ORCH + "::TestScoreMemo"]),
    ("orchestrator.py", '"esr": lambda sp, g, pick: update_esr_mc(',
     '"esr": lambda sp, g, pick: __import__("paretoq.learning").learning.update_esr_mc(',
     [ORCH + "::TestBenchmarkTracer"]),
    ("orchestrator.py", "sample(cfg.batch_size * passes, rng", "sample(cfg.batch_size, rng",
     [ORCH + "::TestReplayRound"]),
    ("orchestrator.py",
     "for sp, item, count in seen if count for _ in range(passes)]",
     "for _ in range(passes) for sp, item, count in seen if count]", [ESR_LOOP]),
    # --- orchestrator.py: reports
    ("orchestrator.py", "report.subproblems = [copy.copy(sp) for sp in state.subproblems]",
     "report.subproblems = state.subproblems", [ORCH + "::TestReportPickle"]),
    ("orchestrator.py", "    def __reduce__(self):", "    def _reduce(self):",
     [ORCH + "::TestReportPickle"]),
    # --- harness.py
    ("harness.py", "if isinstance(value, (list, tuple, np.ndarray)):",
     "if isinstance(value, (list, tuple)):", ["tests/test_harness.py::TestRunExperiment"]),
    ("harness.py", "def _run_seed(config: RunConfig) -> RunReport | str:",
     "def _run_seed(config: RunConfig, run=run) -> RunReport | str:", ["tests/test_harness.py"]),
]


def _pytest(src: Path, tests) -> str:
    """``"passed"``, ``"failed"`` or ``"timed out"``: pytest on ``tests`` against ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out"
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest could not run {tests}:\n{proc.stdout.decode()}{proc.stderr.decode()}")
    return "passed" if proc.returncode == 0 else "failed"


def _copy_src(root: Path, mutant=None) -> Path:
    """A copy of ``src/`` under ``root``, with ``mutant`` applied if one is given."""
    src = root / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        file, old, new, _ = mutant
        path = src / "paretoq" / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return src


def main(argv) -> int:
    if argv == ["--list"]:
        for k, (file, _, _, tests) in enumerate(MUTANTS):
            print(k, file, " ".join(tests))
        return 0
    chosen = [(int(k), MUTANTS[int(k)]) for k in argv] or list(enumerate(MUTANTS))
    for k, (file, old, _, _) in chosen:
        count = (ROOT / "src" / "paretoq" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            sys.exit(f"[{k}] {file}: the old text occurs {count} times, not once:\n{old}")
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for _, (_, _, _, ts) in chosen for t in ts})
        if _pytest(_copy_src(Path(tmp)), tests) != "passed":
            sys.exit("the listed tests do not pass on the unchanged code")
    survivors = []
    for k, mutant in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            outcome = _pytest(_copy_src(Path(tmp), mutant), mutant[3])
        print(f"[{k}] {mutant[0]}: {'killed' if outcome != 'passed' else 'SURVIVED'} ({outcome}, "
              f"{time.perf_counter() - start:.0f} s): {mutant[1].strip().splitlines()[0]!r}",
              flush=True)
        if outcome == "passed":
            survivors.append(k)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed"
          + (f"; survivors: {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

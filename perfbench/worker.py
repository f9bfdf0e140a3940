"""One repetition of one workload, in a fresh process.

Times the workload's set-up step (a cheap one several times after one
untimed warm-up, a costly one once) and its operation once. Checks the
operation's outputs and prints one JSON object: timings, peak resident
memory, output hashes, the problems the checks found and, with
``--trace 1``, the per-layer metrics of a traced set-up and operation.
``run.py`` starts this script once per repetition; it is not meant to be
run by hand, but it can be:

    python3 perfbench/worker.py --workload concave-esr --seed 0 --work-dir perfbench/_work/w
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from paretoq import make_env  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# timed set-ups per untraced repetition: one if the first set-up took
# SETUP_BUDGET_S or more; otherwise at least SETUP_MIN_SAMPLES after it, and
# more while they have taken less than SETUP_BUDGET_S, so that millisecond
# set-ups get enough samples for a steady median
SETUP_MIN_SAMPLES = 2
SETUP_MAX_SAMPLES = 50
SETUP_BUDGET_S = 0.3


def exact_hypervolume(points: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume by slicing along the first objective (maximization)."""
    pts = points[np.all(points > ref, axis=1)]
    if len(pts) == 0:
        return 0.0
    if pts.shape[1] == 1:
        return float(pts[:, 0].max() - ref[0])
    cuts = np.unique(pts[:, 0])[::-1]
    total = 0.0
    for i, x in enumerate(cuts):
        lower = cuts[i + 1] if i + 1 < len(cuts) else ref[0]
        total += (x - lower) * exact_hypervolume(pts[pts[:, 0] >= x, 1:], ref[1:])
    return total


def hv_reference(config) -> np.ndarray:
    if config.hv_reference is not None:
        return np.asarray(config.hv_reference, dtype=float)
    return make_env(config.env).hv_reference_default


def check_run(label, config, report) -> list[str]:
    """Invariants every run must satisfy, checked without paretoq's own code."""
    problems = []
    env = make_env(config.env)
    ref = hv_reference(config)
    evals = np.array([entry.eval for entry in report.archive], dtype=float)
    if len(evals) == 0:
        problems.append(f"{label}: empty archive")
        return problems
    weakly = np.all(evals[:, None, :] >= evals[None, :, :], axis=2)
    np.fill_diagonal(weakly, False)
    if weakly.any():
        problems.append(f"{label}: archive holds a dominated or duplicate evaluation")
    if not np.all(evals > ref):
        problems.append(f"{label}: archive evaluation not above hv_reference {ref.tolist()}")
    if not config.total_steps <= report.total_env_steps < config.total_steps + env.max_episode_steps:
        problems.append(f"{label}: {report.total_env_steps} env steps for a "
                        f"{config.total_steps}-step budget")
    last = report.checkpoints[-1] if report.checkpoints else None
    if last is None or last.archive_size != len(evals):
        problems.append(f"{label}: last checkpoint does not describe the final archive")
    elif not (np.isfinite(last.hypervolume) and last.hypervolume > 0):
        problems.append(f"{label}: final hypervolume {last.hypervolume!r}")
    return problems


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def layer_metrics(tracer, op_wall: float, workers: int, outcome, oracle_setup_share: float):
    """The traced operation's per-layer metrics, named as in BENCHMARK.json."""
    spans, counts, gaps = tracer.merged()

    def calls(name):
        return int(spans.get(name, (0, 0.0, 0.0))[0])

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def layer(prefix):
        return sum(stat[2] for name, stat in spans.items() if name.split(".")[0] == prefix)

    out = {}
    for name in ("momdp.step", "momdp.policy_action", "momdp.evaluate_policy",
                 "decomposition.score", "decomposition.adapt", "learning.greedy_policy",
                 "learning.buffer.push", "learning.buffer.sample", "learning.serialize_table",
                 "archive.would_accept", "metrics.hypervolume", "harness.write_csv"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = own(name)
    for kind in ("scalar", "vector", "envelope", "esr"):
        name = f"learning.update.{kind}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = own(name)
        out[f"{name}.us_per_call"] = own(name) / calls(name) * 1e6 if calls(name) else 0.0
    for prefix in ("momdp", "decomposition", "learning", "archive", "metrics", "orchestrator"):
        out[f"{prefix}.self_s"] = layer(prefix)

    out["momdp.oracle.self_s"] = own("momdp.oracle")
    out["momdp.oracle.policies"] = int(counts["momdp.oracle.policies"])
    out["momdp.oracle.setup_share"] = oracle_setup_share
    rows = counts["learning.greedy_policy.rows_copied"]
    out["learning.greedy_policy.rows_copied"] = int(rows)
    out["learning.greedy_policy.rows_read_per_copied"] = (
        calls("momdp.policy_action") / rows if rows else 0.0)
    out["learning.buffer.evicted_steps"] = int(counts["learning.buffer.evicted_steps"])
    out["learning.serialize_table.bytes"] = int(counts["learning.serialize_table.bytes"])
    checks = counts["archive.checks"]
    out["archive.accept_ratio"] = counts["archive.inserts"] / checks if checks else 0.0
    out["archive.size_final"] = sum(len(report.archive) for _, _, report in outcome.runs)
    out["archive.payload_bytes_final"] = sum(len(entry.payload) for _, _, report in outcome.runs
                                             for entry in report.archive)
    out["metrics.hv_mc_samples"] = int(counts["metrics.hv_mc_samples"])
    out["orchestrator.iterations"] = int(counts["orchestrator.iterations"])
    out["orchestrator.iteration_ms.p50"] = percentile(gaps, 50) * 1e3 if gaps else 0.0
    out["orchestrator.iteration_ms.p99"] = percentile(gaps, 99) * 1e3 if gaps else 0.0
    run_wall = spans.get("orchestrator.run", (0, 0.0, 0.0))[1]
    out["harness.parallel_efficiency"] = run_wall / (op_wall * workers)
    out["harness.cpu_efficiency"] = counts["orchestrator.run.cpu_s"] / (op_wall * workers)
    out["harness.write_csv.bytes"] = int(counts["harness.write_csv.bytes"])
    out["trace.missing_targets"] = len(tracer.missing)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    tracer = None
    if args.trace:
        tracer = Tracer().install()

    setup_s = []
    costly = False
    if not tracer:
        # the first set-up in a fresh process also pays one-time costs, which
        # would split the timed samples of a cheap set-up into two clusters;
        # a costly set-up is timed once, as they are a small share of it
        start = time.perf_counter()
        states = workload.setup()
        first = time.perf_counter() - start
        costly = first >= SETUP_BUDGET_S
        if costly:
            setup_s.append(first)
    while not costly:
        start = time.perf_counter()
        states = workload.setup()
        setup_s.append(time.perf_counter() - start)
        if tracer or len(setup_s) >= SETUP_MAX_SAMPLES:
            break
        if len(setup_s) >= SETUP_MIN_SAMPLES and sum(setup_s) >= SETUP_BUDGET_S:
            break
    oracle_setup_share = 0.0
    entry = workload.entry
    if tracer:
        spans, _, _ = tracer.merged()
        oracle_setup_share = spans.get("momdp.oracle", (0, 0.0, 0.0))[2] / setup_s[0]
        tracer.reset()
        entry = (tracer.span("harness.run_experiment", entry) if workload.workers > 1
                 else tracer.root_run(entry))

    start = time.perf_counter()
    outcome = workload.operate(entry)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = layer_metrics(tracer, wall_s, workload.workers, outcome,
                           oracle_setup_share) if tracer else None
    if tracer:
        tracer.uninstall()

    problems = []
    fronts = {state.config.env: state.reference_front for state in states}
    ratios = []
    for label, config, report in outcome.runs:
        problems += check_run(label, config, report)
        front = fronts[config.env]
        if report.checkpoints and front is not None:
            ratios.append(report.checkpoints[-1].hypervolume
                          / exact_hypervolume(front, hv_reference(config)))
    if len(ratios) != len(outcome.runs):
        problems.append("no reference front to score the final hypervolume against")

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "env_steps": sum(report.total_env_steps for _, _, report in outcome.runs),
        "peak_rss_mb": peak_rss_mb,
        "hv_final": statistics.fmean(ratios) if ratios else 0.0,
        "hashes": {"metrics.csv": hashlib.sha256(outcome.metrics_csv).hexdigest(),
                   "pf.csv": hashlib.sha256(outcome.pf_csv).hexdigest()},
        "problems": problems,
        "layers": layers,
        "missing_targets": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

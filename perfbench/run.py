"""paretoq benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload concave-esr --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each repetition runs in a fresh process (``worker.py``), one at a time;
repetitions start while one as long as the median one so far still ends
within ``--seconds``. Every repetition's outputs are checked: their
SHA-256 hashes must equal the pinned hashes in ``golden.json`` when the
seed is pinned, and must equal each other in any case, and the worker
checks invariants of every run. A repetition that fails a check counts as
failed.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
the repetitions). Their times are scaled to the reference speed of
``calibration.py``, whose fixed work is timed between repetitions, because
the shared host's speed drifts. With ``--trace 1`` repetitions alternate
untraced and traced; the result holds the per-layer metrics of the traced
ones and the tracing overhead, and the traced outputs must hash like the
untraced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names,
units and directions come from ``BENCHMARK.json`` at the repository root;
``README.md`` next to this file says what each one is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
WORK = HERE / "_work"
# no repetition starts that would be expected to end after LAST_START_S, and
# a repetition still running at DEADLINE_S is killed and counted as failed,
# so that one workload's run ends within three minutes whatever --seconds says
LAST_START_S = 100
DEADLINE_S = 170
EXACT_UNITS = ("count", "bytes")
# printed beside the end-to-end metrics to show what the scaling did
INFO_SAMPLES = ("unscaled_wall_s", "calibration_s")
HOST_NOTE = "shared host: other tenants load the same cores, so timings drift between runs"


def provenance(repeats: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"git_sha": sha or "unknown", "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "repeats": repeats, "host": HOST_NOTE}


def run_worker(workload: str, seed: int, traced: bool, index: int, timeout: float) -> dict:
    """One repetition in a fresh process; failures become ``problems``."""
    work_dir = WORK / f"{os.getpid()}-{index}"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition killed after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"worker exited with code {proc.returncode}: {tail[0]}"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": ["worker printed no result"]}


def repeat(workload: str, workers: int, seed: int, seconds: int, modes) -> list:
    """Repetitions for about ``seconds``, with the host's speed calibrated
    before the first and after each one, in as many threads (``workers``)
    as the operation uses; each keeps the calibration times on either side.
    """
    reps = []
    rounds = []
    start = time.perf_counter()
    calibrations = [calibrate(workers)]
    while True:
        # start another round only if a round as long as the median one so
        # far still ends within the run, so that a run lasts about `seconds`
        elapsed = time.perf_counter() - start
        if rounds and elapsed + median(rounds) > min(seconds, LAST_START_S):
            break
        round_start = time.perf_counter()
        for traced in modes:
            timeout = DEADLINE_S - (time.perf_counter() - start)
            rep = run_worker(workload, seed, traced, len(reps), timeout)
            calibrations.append(calibrate(workers))
            rep["traced"] = traced
            rep["calibration_s"] = calibrations[-2:]
            reps.append(rep)
        rounds.append(time.perf_counter() - round_start)
    return reps


def measure(workload: str, workers: int, seed: int, seconds: int, trace: bool, golden: dict,
            exact: set):
    """Repeat the workload for ``seconds``; return ``(reps, failed)``.

    Per-layer metrics named in ``exact`` are work counts, which must repeat
    exactly between traced repetitions of one seed.
    """
    modes = (False, True) if trace else (False,)
    # the cores of a shared host drift apart, so a single-threaded operation
    # is kept on the one core its calibrations run on; a thread pool, and
    # the calibration that matches it, may use every core
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)} if workers == 1 else allowed)
    try:
        reps = repeat(workload, workers, seed, seconds, modes)
    finally:
        os.sched_setaffinity(0, allowed)

    pinned = golden.get(workload, {}).get(str(seed))
    reference = pinned or next((r["hashes"] for r in reps if "hashes" in r), None)
    counts = None
    for rep in reps:
        problems = rep["problems"]
        if "hashes" in rep and rep["hashes"] != reference:
            problems.append("output hashes differ from the " +
                            ("pinned golden hashes" if pinned else "first repetition's"))
        if rep.get("layers") is not None:
            found = {k: v for k, v in rep["layers"].items() if k in exact}
            if counts is None:
                counts = found
            elif found != counts:
                problems.append("per-layer counts drifted between equal-seed repetitions")
    failed = sum(1 for rep in reps if rep["problems"])
    return reps, failed


def median(values):
    return statistics.median(values) if values else 0.0


def scaled(rep: dict, seconds: float) -> float:
    """``seconds`` of ``rep`` at the reference speed of ``calibration.py``."""
    return seconds * REFERENCE_S / statistics.fmean(rep["calibration_s"])


def summarize(reps, trace: bool) -> dict:
    """Metric name -> (value, sample count, min, max)."""
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    samples = {}
    if not trace:
        samples["setup_s"] = [scaled(r, s) for r in plain for s in r["setup_s"]]
        samples["wall_s"] = [scaled(r, r["wall_s"]) for r in plain]
        samples["env_steps_per_s"] = [r["env_steps"] / scaled(r, r["wall_s"]) for r in plain]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
        samples["hv_final"] = [r["hv_final"] for r in plain]
        samples["unscaled_wall_s"] = [r["wall_s"] for r in plain]
        samples["calibration_s"] = [statistics.fmean(r["calibration_s"]) for r in plain]
    else:
        traced = [r for r in reps if r["traced"] and r.get("layers")]
        for name in traced[0]["layers"] if traced else ():
            samples[name] = [r["layers"][name] for r in traced]
        if traced and plain:
            samples["trace.overhead_s"] = [median([scaled(r, r["wall_s"]) for r in traced])
                                           - median([scaled(r, r["wall_s"]) for r in plain])]
    return {name: (median(v), len(v), min(v), max(v)) for name, v in samples.items() if v}


def benchmark_workload(bench, workload, workers, seed, seconds, trace, golden):
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    exact = {m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS}
    reps, failed = measure(workload, workers, seed, seconds, trace, golden, exact)
    summary = summarize(reps, trace)
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in summary:
            if failed:
                continue
            raise SystemExit(f"benchmark bug: {workload} produced no value for {name}")
        value, n, low, high = summary[name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{workload:12s} {name:48s} {value:14.6g} {spec['unit']:6s} "
              f"(median of {n}; min {low:.6g}, max {high:.6g}; {spec['better']} is better)")
    for name in INFO_SAMPLES:
        if name in summary:
            value, n, low, high = summary[name]
            print(f"{workload:12s} {name:48s} {value:14.6g} s      "
                  f"(median of {n}; min {low:.6g}, max {high:.6g}; shown, not a metric)")
    for rep in reps:
        for problem in rep["problems"]:
            print(f"{workload:12s} FAILED repetition: {problem}")
    missing = sorted({t for rep in reps for t in rep.get("missing_targets", ())})
    if missing:
        print(f"{workload:12s} WARNING: nothing to trace at {', '.join(missing)}")
    return len(reps), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        with open(HERE / "golden.json", encoding="utf-8") as fh:
            golden = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "paretoq" / "__init__.py").is_file():
        print(f"no paretoq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports paretoq, so not before the check above
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r} (known: {', '.join(names)}, all)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            n, bad, found = benchmark_workload(bench, workload, WORKLOADS[workload].workers,
                                               args.seed, args.seconds, bool(args.trace), golden)
            attempted += n
            failed += bad
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update({prefix + name: value for name, value in found.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("provenance " + json.dumps(provenance(attempted)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

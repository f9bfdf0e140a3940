"""Batch experiment harness.

Reads a flat key-value config file (INI sections group the keys by module,
but every key name is unique, documented below), expands it into one
training run per seed, optionally runs the seeds in worker processes
(``--parallel``; see :func:`run_experiment`), and writes a bundle of CSV
outputs:

* ``metrics.csv`` -- columns ``seed, step, hypervolume, igd, sparsity, eum,
  archive_size``; one row per checkpoint, sorted by (seed, step). ``igd``
  is blank when no reference front is available for the environment.
* ``pf.csv`` -- columns ``seed, obj_0..obj_{m-1}, subproblem, step_found``;
  one row per final-archive entry.
* ``config_snapshot.cfg`` -- every resolved key (defaults included) in the
  same parseable format, floats as their round-trip ``repr``; feeding it
  back reproduces the config exactly and the CSV outputs byte for byte.
  Command-line overrides are recorded as trailing comments.
* ``seed_<n>/`` -- the same two CSVs restricted to one seed, plus
  ``error.log`` with a traceback if that run failed.

Unknown keys, malformed values, and invalid settings are hard errors that
name the offending key. Exit codes: 0 success, 1 config error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from .momdp import make_env
from .orchestrator import RunConfig, RunReport, run

#: canonical section layout used for snapshots; parsing accepts any layout.
#: A key's type is the type of its ``RunConfig`` default; ``seeds`` and
#: ``hv_reference`` are parsed by name.
SECTIONS = {
    "run": ("env", "learner", "scalarization", "cooperation",
            "population_size", "total_steps", "steps_per_iteration",
            "update_passes", "batch_size", "gamma", "alpha",
            "epsilon_start", "epsilon_min", "epsilon_decay_fraction",
            "delta", "tau", "psa_enabled", "psa_period_steps",
            "neighborhood_k", "eval_episodes", "buffer_capacity",
            "buffer_replacement"),
    "metrics": ("hv_reference", "eum_weights"),
    "experiment": ("seeds", "out_dir", "checkpoint_stride"),
}
KNOWN_KEYS = {key for keys in SECTIONS.values() for key in keys}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}


class ConfigError(Exception):
    """Anything wrong with a config file or an override value."""


class ExperimentError(Exception):
    """A run failed at execution time; details are in the per-seed log."""


@dataclass
class ExperimentSpec:
    """One run-config template fanned out over a list of seeds."""

    template: RunConfig
    seeds: list[int]
    out_dir: str = "runs"
    overrides: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentSpec":
        self.check_seeds()
        try:
            self.template.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    def check_seeds(self) -> "ExperimentSpec":
        if not self.seeds:
            raise ConfigError("seeds must list at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be >= 0")
        return self


@dataclass
class OutputBundle:
    out_dir: str
    metrics_path: str
    pf_path: str
    snapshot_path: str
    reports: dict


def _parse_value(key: str, raw: str, where: str):
    try:
        if key == "seeds":
            return [int(tok) for tok in raw.replace(",", " ").split()]
        if key == "hv_reference":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        kind = type(_DEFAULTS.get(key, ""))
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(f"expected true/false, got {raw!r}")
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for key '{key}': {exc}") from None


def parse_config(path: str) -> ExperimentSpec:
    """Load an :class:`ExperimentSpec`; unknown keys are hard errors."""
    if not os.path.exists(path):
        raise ConfigError(f"{path}: no such config file")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed config: {exc}") from None

    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            where = f"{path} [{section}]"
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{where}: unknown key '{key}'")
            if key in values:
                raise ConfigError(f"{where}: duplicate key '{key}'")
            values[key] = _parse_value(key, raw, where)

    if "env" not in values:
        raise ConfigError(f"{path}: missing required key 'env'")
    if "seeds" not in values:
        raise ConfigError(f"{path}: missing required key 'seeds'")

    seeds, out_dir = values.pop("seeds"), values.pop("out_dir", "runs")
    return ExperimentSpec(RunConfig(**values), seeds, out_dir).validate()


def apply_overrides(spec: ExperimentSpec, out_dir: str | None = None,
                    seeds: str | None = None) -> ExperimentSpec:
    """Fold command-line overrides into the spec and record them; checks only the seeds."""
    if out_dir is not None:
        spec.out_dir = out_dir
        spec.overrides["out_dir"] = out_dir
    if seeds is not None:
        spec.seeds = _parse_value("seeds", seeds, "--seeds")
        spec.overrides["seeds"] = ",".join(str(s) for s in spec.seeds)
    return spec.check_seeds()


def _fmt(value) -> str:
    """Locale-independent rendering: 9 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _config_value(value) -> str:
    """A snapshot value that ``_parse_value`` reads back exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(_config_value(v) for v in value)
    return str(value)


def snapshot_text(spec: ExperimentSpec) -> str:
    """Canonical config echo: all keys resolved, defaults included."""
    values = {**vars(spec.template), "seeds": spec.seeds, "out_dir": spec.out_dir}
    lines = []
    for section, keys in SECTIONS.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_config_value(values[key])}"
                     for key in keys if values[key] is not None)
        lines.append("")
    for key, value in sorted(spec.overrides.items()):
        lines.append(f"# override: {key} = {value}")
    return "\n".join(lines).rstrip("\n") + "\n"


METRICS_HEADER = ["seed", "step", "hypervolume", "igd", "sparsity", "eum", "archive_size"]


def _metrics_rows(seed: int, report: RunReport):
    for c in report.checkpoints:
        yield [str(seed), str(c.step), _fmt(c.hypervolume), _fmt(c.igd),
               _fmt(c.sparsity), _fmt(c.eum), str(c.archive_size)]


def _pf_rows(seed: int, report: RunReport):
    for entry in report.archive:
        yield ([str(seed)] + [_fmt(float(v)) for v in entry.eval]
               + [str(entry.subproblem), str(entry.step)])


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _run_seed(config: RunConfig) -> RunReport | str:
    """One run's report, or the traceback text if the run raised.

    ``run`` is looked up in this module when the call is made, so a
    replacement of ``paretoq.harness.run`` reaches forked workers too.
    """
    try:
        return run(config)
    except Exception:  # noqa: BLE001 - reported per seed by the caller
        return traceback.format_exc()


def _process_pool(workers: int):
    """A pool of ``workers`` processes, forked where the platform has
    ``fork`` and spawned elsewhere.

    multiprocessing is imported here rather than with the module: it adds
    about 1.5 MB to every process that imports paretoq, fan-out or not.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def run_experiment(spec: ExperimentSpec, parallel: int = 1, quiet: bool = True) -> OutputBundle:
    """Execute one run per seed and write the output bundle.

    With ``parallel > 1`` the seeds run in up to ``parallel`` worker
    processes (no more than there are seeds), started with ``fork`` where
    the platform has it and ``spawn`` elsewhere. Under ``spawn`` the workers
    import paretoq afresh, so an env registered at runtime must be
    registered by an import the workers make as well. Runs share nothing,
    so sequential and parallel execution produce identical bundles;
    rerunning an identical spec rewrites identical bytes. A failing run
    writes ``seed_<n>/error.log`` and aborts the experiment.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    spec.validate()
    os.makedirs(spec.out_dir, exist_ok=True)

    configs = [dataclasses.replace(spec.template, seed=seed) for seed in spec.seeds]
    workers = min(parallel, len(configs))
    if workers > 1:
        with _process_pool(workers) as pool:
            outcomes = list(pool.map(_run_seed, configs))
    else:
        outcomes = [_run_seed(config) for config in configs]

    # every run steps the same env, so one pf header fits every seed
    m = make_env(spec.template.env).n_objectives
    pf_header = ["seed"] + [f"obj_{j}" for j in range(m)] + ["subproblem", "step_found"]
    reports: dict[int, RunReport] = {}
    failures: dict[int, str] = {}
    for seed, outcome in zip(spec.seeds, outcomes):
        seed_dir = os.path.join(spec.out_dir, f"seed_{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        if isinstance(outcome, str):
            failures[seed] = outcome
            with open(os.path.join(seed_dir, "error.log"), "w", encoding="utf-8") as fh:
                fh.write(outcome)
            continue
        reports[seed] = outcome
        _write_csv(os.path.join(seed_dir, "metrics.csv"), METRICS_HEADER,
                   _metrics_rows(seed, outcome))
        _write_csv(os.path.join(seed_dir, "pf.csv"), pf_header, _pf_rows(seed, outcome))

    if failures:
        raise ExperimentError(
            f"{len(failures)} run(s) failed (seeds {sorted(failures)}); "
            f"see per-seed error.log files under {spec.out_dir}")

    order = sorted(spec.seeds)
    metrics_path = os.path.join(spec.out_dir, "metrics.csv")
    merged_metrics = [row for seed in order for row in _metrics_rows(seed, reports[seed])]
    _write_csv(metrics_path, METRICS_HEADER, merged_metrics)

    pf_path = os.path.join(spec.out_dir, "pf.csv")
    _write_csv(pf_path, pf_header,
               (row for seed in order for row in _pf_rows(seed, reports[seed])))

    snapshot_path = os.path.join(spec.out_dir, "config_snapshot.cfg")
    with open(snapshot_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(snapshot_text(spec))

    if not quiet:
        for seed in order:
            last = reports[seed].checkpoints[-1]
            print(f"seed {seed}: {reports[seed].total_env_steps} steps, "
                  f"{reports[seed].total_episodes} episodes, archive size "
                  f"{last.archive_size}, hypervolume {_fmt(last.hypervolume)}")
    return OutputBundle(spec.out_dir, metrics_path, pf_path, snapshot_path, reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paretoq",
        description="Run seeded multi-objective RL experiments from a config file.")
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--out-dir", default=None, help="override the output directory")
    parser.add_argument("--seeds", default=None,
                        help="override the seed list, comma separated")
    parser.add_argument("--parallel", type=int, default=1,
                        help="maximum worker processes running seeds at once (default 1)")
    parser.add_argument("--quiet", action="store_true", help="suppress the run summary")
    args = parser.parse_args(argv)

    try:
        if args.parallel < 1:
            raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
        spec = parse_config(args.config)
        spec = apply_overrides(spec, out_dir=args.out_dir, seeds=args.seeds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        bundle = run_experiment(spec, parallel=args.parallel, quiet=args.quiet)
    except Exception as exc:  # noqa: BLE001
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"bundle written to {bundle.out_dir}")
    return 0

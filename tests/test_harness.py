import dataclasses
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoq import RunConfig, parse_config, run_experiment
from paretoq.harness import (
    SECTIONS,
    ConfigError,
    ExperimentSpec,
    apply_overrides,
    main,
    snapshot_text,
)
from paretoq.momdp import Momdp, make_env, register_env
from paretoq.orchestrator import COOPERATION_MODES, LEARNERS, _worst_return

DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.cfg"))

MINIMAL = """
[run]
env = tiny-tree
[experiment]
seeds = 1, 2
"""

SMALL = """
[run]
env = dst-corridor
population_size = 2
total_steps = 120
steps_per_iteration = 6
update_passes = 1
batch_size = 8
alpha = 1.0
epsilon_min = 0.1
eval_episodes = 1
[experiment]
seeds = 3, 1
checkpoint_stride = 5
out_dir = {out}
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_bundle_bytes(out_dir):
    chunks = {}
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            if name.endswith(".csv"):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    chunks[os.path.relpath(path, out_dir)] = fh.read()
    return chunks


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self, tmp_path):
        spec = parse_config(write(tmp_path, MINIMAL))
        assert spec.template.env == "tiny-tree"
        assert spec.template.population_size == 10
        assert spec.template.gamma == 1.0
        assert spec.template.scalarization == "weighted-sum"
        assert spec.seeds == [1, 2]
        assert spec.out_dir == "runs"

    def test_unknown_key_is_named(self, tmp_path):
        bad = MINIMAL.replace("env = tiny-tree", "env = tiny-tree\npopulaton_size = 3")
        with pytest.raises(ConfigError, match="unknown key 'populaton_size'"):
            parse_config(write(tmp_path, bad))

    def test_invalid_population_size(self, tmp_path):
        bad = MINIMAL.replace("env = tiny-tree", "env = tiny-tree\npopulation_size = 0")
        with pytest.raises(ConfigError, match="population_size must be >= 1"):
            parse_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config file"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_malformed_syntax(self, tmp_path):
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config(write(tmp_path, "env = tiny-tree\n"))  # key before section

    def test_invalid_value_names_the_key(self, tmp_path):
        bad = MINIMAL.replace("env = tiny-tree", "env = tiny-tree\ngamma = fast")
        with pytest.raises(ConfigError, match="invalid value for key 'gamma'"):
            parse_config(write(tmp_path, bad))

    def test_duplicate_seeds_rejected(self, tmp_path):
        bad = MINIMAL.replace("seeds = 1, 2", "seeds = 1, 1")
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(write(tmp_path, bad))

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 'seeds'"):
            parse_config(write(tmp_path, "[run]\nenv = tiny-tree\n"))
        with pytest.raises(ConfigError, match="missing required key 'env'"):
            parse_config(write(tmp_path, "[experiment]\nseeds = 1\n"))

    def test_duplicate_key_across_sections(self, tmp_path):
        bad = MINIMAL + "\n[metrics]\nenv = tiny-tree\n"
        with pytest.raises(ConfigError, match="duplicate key 'env'"):
            parse_config(write(tmp_path, bad))


def _maybe_numpy(values, numpy_type=np.float64):
    return st.one_of(values, values.map(numpy_type))


@st.composite
def valid_run_configs(draw):
    """Any run config that validates, with full-precision and numpy floats
    and numpy integers."""
    learner = draw(st.sampled_from(LEARNERS))
    unit = st.floats(0.0, 1.0)
    epsilon_min, epsilon_start = sorted([draw(unit), draw(unit)])
    positive = _maybe_numpy(st.integers(1, 10**6), np.int64)
    env = draw(st.sampled_from(["dst-corridor", "tiny-tree"]))
    gamma = 1.0 if learner == "esr-mc" else draw(_maybe_numpy(unit))
    # a usable reference lies strictly below the worst return at this gamma
    worst = _worst_return(make_env(env), float(gamma))
    below = st.tuples(*[_maybe_numpy(st.floats(-1e9, w, exclude_max=True)) for w in worst])
    default_ok = all(d < w for d, w in zip(make_env(env).hv_reference_default, worst))
    return RunConfig(
        env=env,
        learner=learner,
        scalarization=draw(st.sampled_from(["weighted-sum", "tchebycheff"])),
        cooperation=draw(st.sampled_from(COOPERATION_MODES)),
        buffer_replacement=draw(st.sampled_from(["fifo", "diverse-crowding"])),
        population_size=draw(positive),
        total_steps=draw(_maybe_numpy(st.integers(0, 10**6), np.int64)),
        steps_per_iteration=draw(positive),
        update_passes=draw(positive),
        batch_size=draw(positive),
        gamma=gamma,
        alpha=draw(_maybe_numpy(st.floats(0.0, 1.0, exclude_min=True))),
        epsilon_start=epsilon_start,
        epsilon_min=draw(st.sampled_from([epsilon_min, np.float64(epsilon_min)])),
        epsilon_decay_fraction=draw(_maybe_numpy(unit)),
        delta=draw(_maybe_numpy(st.floats(1.0, 1e6, exclude_min=True))),
        tau=draw(_maybe_numpy(st.floats(0.0, 1e6))),
        psa_enabled=draw(st.booleans()),
        psa_period_steps=draw(positive),
        neighborhood_k=draw(_maybe_numpy(st.integers(0, 50), np.int64)),
        eval_episodes=draw(positive),
        buffer_capacity=draw(positive),
        hv_reference=draw(st.none() | below if default_ok else below),
        eum_weights=draw(_maybe_numpy(st.integers(2, 1000), np.int64)),
        checkpoint_stride=draw(positive),
    ).validate()


class TestSnapshot:
    def roundtrip(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snapshot.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(snapshot_text(spec))
            return parse_config(path)

    @settings(max_examples=150, deadline=None)
    @given(template=valid_run_configs(),
           seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True),
           out_dir=st.text("abcXYZ019_-./", min_size=1, max_size=20))
    def test_snapshot_reads_back_exactly(self, template, seeds, out_dir):
        spec = ExperimentSpec(template, seeds, out_dir)
        back = self.roundtrip(spec)
        assert back.template == template
        assert back.seeds == seeds
        assert back.out_dir == out_dir
        for f in dataclasses.fields(RunConfig):
            if type(f.default) is int:  # numpy integers read back as plain ints
                assert type(getattr(back.template, f.name)) is int, f.name

    def test_sections_list_every_key_once(self):
        keys = [key for section in SECTIONS.values() for key in section]
        assert len(keys) == len(set(keys))
        run_keys = {f.name for f in dataclasses.fields(RunConfig)} - {"seed"}
        assert set(keys) == run_keys | {"seeds", "out_dir"}

    @pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.name)
    def test_demo_configs_round_trip_through_their_snapshot(self, path):
        spec = parse_config(str(path))
        back = self.roundtrip(spec)
        assert (back.template, back.seeds, back.out_dir) == (spec.template, spec.seeds,
                                                             spec.out_dir)
        assert snapshot_text(back) == snapshot_text(spec)

    def test_demo_configs_are_found(self):
        assert DEMO_CONFIGS

    def test_hv_reference_keeps_every_digit(self):
        spec = ExperimentSpec(RunConfig(env="dst-corridor",
                                        hv_reference=(0.12345678912345, -50.000000012345)), [1])
        assert "hv_reference = 0.12345678912345,-50.000000012345\n" in snapshot_text(spec)

    def test_numpy_floats_are_written_as_plain_floats(self):
        spec = ExperimentSpec(RunConfig(env="tiny-tree", alpha=np.float64(0.5)), [1])
        assert "alpha = 0.5\n" in snapshot_text(spec)
        assert self.roundtrip(spec).template.alpha == 0.5


class TestRunExperiment:
    def run_small(self, tmp_path, out_name="out", **kw):
        out = tmp_path / out_name
        spec = parse_config(write(tmp_path, SMALL.format(out=out), f"{out_name}.cfg"))
        return run_experiment(spec, **kw), str(out)

    def test_merged_metrics_sorted_by_seed_then_step(self, tmp_path):
        bundle, out = self.run_small(tmp_path)
        lines = Path(bundle.metrics_path).read_text().splitlines()
        assert lines[0] == "seed,step,hypervolume,igd,sparsity,eum,archive_size"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert {k[0] for k in keys} == {1, 3}

    def test_pf_schema(self, tmp_path):
        bundle, _ = self.run_small(tmp_path)
        lines = Path(bundle.pf_path).read_text().splitlines()
        assert lines[0] == "seed,obj_0,obj_1,subproblem,step_found"
        assert len(lines) > 1

    def test_rerun_is_byte_identical(self, tmp_path):
        _, out = self.run_small(tmp_path)
        first = read_bundle_bytes(out)
        _, out = self.run_small(tmp_path)
        assert read_bundle_bytes(out) == first

    def test_snapshot_feeds_back_to_the_same_bundle(self, tmp_path):
        bundle, out = self.run_small(tmp_path)
        first = read_bundle_bytes(out)
        snapshot_spec = parse_config(bundle.snapshot_path)
        run_experiment(snapshot_spec)
        assert read_bundle_bytes(out) == first

    def test_an_array_hv_reference_is_snapshotted_as_numbers(self, tmp_path):
        """An ndarray reference is written as a comma list (not numpy's
        ``[  0. -50.]``), and the snapshot reruns to the same bundle."""
        out = tmp_path / "out"
        spec = parse_config(write(tmp_path, SMALL.format(out=out)))
        spec.template.hv_reference = np.array([0.0, -50.0])
        bundle = run_experiment(spec)
        first = read_bundle_bytes(str(out))
        snapshot_spec = parse_config(bundle.snapshot_path)
        assert snapshot_spec.template.hv_reference == (0.0, -50.0)
        run_experiment(snapshot_spec)
        assert read_bundle_bytes(str(out)) == first

    def test_parallel_equals_sequential(self, tmp_path):
        _, out_seq = self.run_small(tmp_path, out_name="seq")
        _, out_par = self.run_small(tmp_path, out_name="par", parallel=2)
        seq = read_bundle_bytes(out_seq)
        par = read_bundle_bytes(out_par)
        assert seq == par

    def test_numbers_use_nine_significant_digits(self, tmp_path):
        bundle, _ = self.run_small(tmp_path)
        row = Path(bundle.metrics_path).read_text().splitlines()[1].split(",")
        for cell in row[2:6]:
            if cell and "." in cell:
                digits = cell.replace("-", "").replace(".", "").lstrip("0")
                assert len(digits) <= 9

    def test_per_seed_directories(self, tmp_path):
        bundle, out = self.run_small(tmp_path)
        for seed in (1, 3):
            assert os.path.exists(os.path.join(out, f"seed_{seed}", "metrics.csv"))
            assert os.path.exists(os.path.join(out, f"seed_{seed}", "pf.csv"))

    def test_workers_capped_at_the_seed_count(self, tmp_path, monkeypatch):
        import paretoq.harness as harness

        started = []
        real_pool = harness._process_pool

        def recording_pool(workers):
            started.append(workers)
            return real_pool(workers)

        monkeypatch.setattr(harness, "_process_pool", recording_pool)
        _, out_par = self.run_small(tmp_path, out_name="par", parallel=8)
        assert started == [2]  # two seeds
        _, out_seq = self.run_small(tmp_path, out_name="seq")
        assert started == [2]
        assert read_bundle_bytes(out_par) == read_bundle_bytes(out_seq)

    def test_parallel_below_one_is_rejected(self, tmp_path):
        spec = parse_config(write(tmp_path, SMALL.format(out=tmp_path / "zero")))
        with pytest.raises(ValueError, match="parallel must be >= 1"):
            run_experiment(spec, parallel=0)
        assert not (tmp_path / "zero").exists()

    def test_runtime_registered_env_runs_the_same_in_workers(self, tmp_path):
        def two_exits():
            transitions = [[[(1.0, 0, np.array([1.0, 0.0]), True)],
                            [(1.0, 0, np.array([0.0, 1.0]), True)]]]
            return Momdp(1, 2, 2, transitions, np.ones(1), 1, name="two-exits",
                         hv_reference_default=(-1.0, -1.0))

        register_env("two-exits-test-env", two_exits)
        cfg = """
[run]
env = two-exits-test-env
population_size = 2
total_steps = 40
steps_per_iteration = 4
eval_episodes = 1
[experiment]
seeds = 4, 2
out_dir = {out}
"""
        seq = run_experiment(parse_config(write(tmp_path, cfg.format(out=tmp_path / "seq"),
                                                "seq.cfg")))
        par = run_experiment(parse_config(write(tmp_path, cfg.format(out=tmp_path / "par"),
                                                "par.cfg")), parallel=2)
        assert read_bundle_bytes(par.out_dir) == read_bundle_bytes(seq.out_dir)
        assert len(read_bundle_bytes(par.out_dir)) == 6

    def test_igd_blank_when_enumeration_is_intractable(self, tmp_path):
        def wide_env():
            n = 21  # 2^21 policies: past the enumeration guard
            transitions = [[[(1.0, s, np.array([float(s), -1.0]), True)]
                            for _ in range(2)] for s in range(n)]
            mu0 = np.zeros(n)
            mu0[0] = 1.0
            return Momdp(n, 2, 2, transitions, mu0, 3,
                         name="wide", hv_reference_default=(-1.0, -2.0))

        register_env("wide-test-env", wide_env)
        cfg = """
[run]
env = wide-test-env
population_size = 2
total_steps = 10
steps_per_iteration = 2
eval_episodes = 1
[experiment]
seeds = 5
out_dir = {out}
""".format(out=tmp_path / "wide")
        bundle = run_experiment(parse_config(write(tmp_path, cfg, "wide.cfg")))
        row = Path(bundle.metrics_path).read_text().splitlines()[1].split(",")
        assert row[3] == ""  # igd column


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        out = tmp_path / "cli"
        path = write(tmp_path, SMALL.format(out=out))
        assert main(["--config", path, "--quiet"]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL.replace("seeds = 1, 2", "seeds = 1, 1"))
        assert main(["--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_error_exit_code_and_log(self, tmp_path, capsys, monkeypatch):
        import paretoq.harness as harness

        def boom(config):
            raise RuntimeError("sabotaged")

        monkeypatch.setattr(harness, "run", boom)
        out = tmp_path / "broken"
        path = write(tmp_path, SMALL.format(out=out))
        assert main(["--config", path]) == 2
        log = out / "seed_1" / "error.log"
        assert log.exists() and "sabotaged" in log.read_text()

    def test_runtime_error_in_worker_processes_exit_code_and_log(self, tmp_path, capsys,
                                                                  monkeypatch):
        import paretoq.harness as harness

        def boom(config):
            raise RuntimeError("sabotaged")

        monkeypatch.setattr(harness, "run", boom)  # forked workers inherit the patch
        out = tmp_path / "broken"
        path = write(tmp_path, SMALL.format(out=out))
        assert main(["--config", path, "--parallel", "2"]) == 2
        for seed in (1, 3):
            log = out / f"seed_{seed}" / "error.log"
            assert log.exists() and "sabotaged" in log.read_text()
        assert "experiment failed" in capsys.readouterr().err

    def test_parallel_below_one_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "zero"
        path = write(tmp_path, SMALL.format(out=out))
        assert main(["--config", path, "--parallel", "0"]) == 1
        assert "--parallel must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_overrides_applied_and_recorded(self, tmp_path):
        out = tmp_path / "base"
        override_out = tmp_path / "override"
        path = write(tmp_path, SMALL.format(out=out))
        assert main(["--config", path, "--quiet",
                     "--out-dir", str(override_out), "--seeds", "9"]) == 0
        snapshot = (override_out / "config_snapshot.cfg").read_text()
        assert "seeds = 9" in snapshot
        assert "# override: seeds = 9" in snapshot
        assert os.path.exists(override_out / "seed_9" / "metrics.csv")

    @pytest.mark.parametrize("key,raw", [("tau", "inf"), ("delta", "inf"), ("gamma", "-inf"),
                                         ("epsilon_decay_fraction", "nan")])
    def test_non_finite_value_is_a_config_error_naming_the_key(self, tmp_path, capsys,
                                                               key, raw):
        out = tmp_path / "never"
        path = write(tmp_path, SMALL.format(out=out).replace("[run]", f"[run]\n{key} = {raw}"))
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(path)
        assert main(["--config", path]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw,message", [
        ("-inf, -50", "hv_reference entries must be finite"),
        ("0, -50, 0", "hv_reference has 3 entries"),
        ("5, -50", "must lie strictly below the worst return"),
    ])
    def test_unusable_hv_reference_is_a_config_error(self, tmp_path, capsys, raw, message):
        # checked against the env before any run starts
        out = tmp_path / "ref"
        path = write(tmp_path, SMALL.format(out=out) + f"[metrics]\nhv_reference = {raw}\n")
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        assert main(["--config", path]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("population_size", 7), ("eum_weights", 101)])
    def test_a_weight_count_no_lattice_has_is_a_config_error(self, tmp_path, capsys, key, value):
        """Three objectives: 7 and 101 lie between lattice sizes (6, 10; 91, 105)."""
        def three_exits():
            transitions = [[[(1.0, 0, np.eye(3)[a], True)] for a in range(3)]]
            return Momdp(1, 3, 3, transitions, np.ones(1), 1, name="three-exits",
                         hv_reference_default=(-1.0, -1.0, -1.0))

        register_env("three-exits-test-env", three_exits)
        counts = {"population_size": 6, "eum_weights": 91}
        assert RunConfig(env="three-exits-test-env", **counts).validate()
        counts[key] = value
        with pytest.raises(ValueError, match=f"{key} = {value} fits no weight set of 3 objectives"):
            RunConfig(env="three-exits-test-env", **counts).validate()
        out = tmp_path / "lattice"
        path = write(tmp_path, f"""
[run]
env = three-exits-test-env
population_size = {counts["population_size"]}
total_steps = 12
[metrics]
eum_weights = {counts["eum_weights"]}
[experiment]
seeds = 1, 2
out_dir = {out}
""")
        assert main(["--config", path]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} = {value}")
        assert not list(tmp_path.glob("**/error.log")) and not out.exists()

    def test_override_seed_validation(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        assert main(["--config", path, "--seeds", "4,4"]) == 1

    def test_overrides_check_the_seeds_but_not_the_template_again(self, tmp_path,
                                                                   monkeypatch):
        spec = parse_config(write(tmp_path, MINIMAL))
        calls = []
        validate = RunConfig.validate
        monkeypatch.setattr(RunConfig, "validate",
                            lambda self: calls.append(self) or validate(self))
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            apply_overrides(spec, seeds="4,4")
        assert apply_overrides(spec, out_dir=str(tmp_path / "o"), seeds="5").seeds == [5]
        assert calls == []

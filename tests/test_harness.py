import os

import numpy as np
import pytest

from paretoq import parse_config, run_experiment
from paretoq.harness import ConfigError, apply_overrides, main
from paretoq.momdp import Momdp, register_env

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


class TestRunExperiment:
    def run_small(self, tmp_path, out_name="out", **kw):
        out = tmp_path / out_name
        spec = parse_config(write(tmp_path, SMALL.format(out=out), f"{out_name}.cfg"))
        return run_experiment(spec, **kw), str(out)

    def test_merged_metrics_sorted_by_seed_then_step(self, tmp_path):
        bundle, out = self.run_small(tmp_path)
        lines = open(bundle.metrics_path).read().splitlines()
        assert lines[0] == "seed,step,hypervolume,igd,sparsity,eum,archive_size"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert {k[0] for k in keys} == {1, 3}

    def test_pf_schema(self, tmp_path):
        bundle, _ = self.run_small(tmp_path)
        lines = open(bundle.pf_path).read().splitlines()
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

    def test_parallel_equals_sequential(self, tmp_path):
        _, out_seq = self.run_small(tmp_path, out_name="seq")
        _, out_par = self.run_small(tmp_path, out_name="par", parallel=2)
        seq = read_bundle_bytes(out_seq)
        par = read_bundle_bytes(out_par)
        assert seq == par

    def test_numbers_use_nine_significant_digits(self, tmp_path):
        bundle, _ = self.run_small(tmp_path)
        row = open(bundle.metrics_path).read().splitlines()[1].split(",")
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
        row = open(bundle.metrics_path).read().splitlines()[1].split(",")
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

    def test_override_seed_validation(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        assert main(["--config", path, "--seeds", "4,4"]) == 1

"""Run outputs do not depend on the CPU kernels numpy and OpenBLAS pick.

numpy picks its ufunc and ``einsum`` loops by CPU feature, and OpenBLAS
picks its kernels by core type; a kernel that sums in another order would
change output bytes. Two small runs, one on a deterministic env and one on
a stochastic 3-objective env with the envelope learner and Monte-Carlo
hypervolume, are written in process and again in a subprocess that turns
off numpy's X86_V3, X86_V4 and AVX-512 loops and forces OpenBLAS's oldest
(Prescott) kernels. The ``metrics.csv`` and ``pf.csv`` bytes, the final
tables at full precision, and the enumeration oracle's values on an env
that starts in several states must match. This checks kernel choice on x86
only, not other CPUs, numpy versions or BLAS vendors.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from paretoq import (ExperimentSpec, Momdp, RunConfig, enumerate_deterministic_policies,
                     register_env, run_experiment, serialize_table)

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
DISABLED = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]
KERNEL_ENV = {"NPY_DISABLE_CPU_FEATURES": " ".join(DISABLED), "OPENBLAS_CORETYPE": "Prescott"}
NOISY_ENV = "kernel-check-noisy3"


def noisy_momdp() -> Momdp:
    """4 states in a ring, 2 actions, 3 objectives, two reward outcomes per
    pair. Action 1 moves on; action 0 stays put in even states."""
    rng = np.random.default_rng(11)
    transitions = [[[(0.25, nxt, low, False), (0.75, nxt, low + 0.5, False)]
                    for nxt, low in zip((s if s % 2 == 0 else (s + 1) % 4, (s + 1) % 4),
                                        rng.integers(0, 3, size=(2, 3)).astype(float))]
                   for s in range(4)]
    return Momdp(4, 2, 3, transitions, [1.0, 0.0, 0.0, 0.0], max_episode_steps=6,
                 name=NOISY_ENV, hv_reference_default=(-1.0, -1.0, -1.0))


def spread_start_momdp() -> Momdp:
    """6 states, 3 actions, 3 objectives, two random outcomes per pair; the
    start distribution covers 4 states with uneven weights."""
    rng = np.random.default_rng(12)
    transitions = [[[(p, int(rng.integers(6)), rng.normal(size=3), bool(rng.random() < 0.2))
                     for p in (0.375, 0.625)] for _ in range(3)] for _ in range(6)]
    return Momdp(6, 3, 3, transitions, [0.1, 0.0, 0.2, 0.3, 0.0, 0.4], max_episode_steps=5)


CONFIGS = {
    "deterministic": RunConfig(
        env="dst-corridor", population_size=4, total_steps=1200, steps_per_iteration=100,
        update_passes=2, batch_size=16, scalarization="tchebycheff", psa_enabled=True,
        psa_period_steps=300, checkpoint_stride=4),
    "stochastic-3obj": RunConfig(
        env=NOISY_ENV, population_size=3, total_steps=600, steps_per_iteration=100,
        update_passes=2, batch_size=16, learner="envelope-q",
        cooperation="shared-buffer-neighborhood", buffer_capacity=150, eval_episodes=3,
        psa_enabled=True, psa_period_steps=200, hv_reference=(-1.0, -1.0, -1.0),
        eum_weights=10, checkpoint_stride=3),
}


def output_digests(out_dir: str) -> dict:
    """SHA-256 of each config's ``metrics.csv``, ``pf.csv`` and final tables."""
    register_env(NOISY_ENV, noisy_momdp)
    digests = {}
    for name, config in CONFIGS.items():
        bundle = run_experiment(ExperimentSpec(config, seeds=[0, 1],
                                               out_dir=os.path.join(out_dir, name)))
        tables = "".join(serialize_table(sp.learner) for seed in sorted(bundle.reports)
                         for sp in bundle.reports[seed].subproblems)
        for label, data in (("metrics.csv", pathlib.Path(bundle.metrics_path).read_bytes()),
                            ("pf.csv", pathlib.Path(bundle.pf_path).read_bytes()),
                            ("tables", tables.encode())):
            digests[f"{name}/{label}"] = hashlib.sha256(data).hexdigest()
    values = b"".join(v.tobytes() for _, v in enumerate_deterministic_policies(
        spread_start_momdp(), 0.9))
    digests["enumeration"] = hashlib.sha256(values).hexdigest()
    return digests


SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as features
import test_cpu_kernels as kernels
print(json.dumps({"enabled": [f for f in kernels.DISABLED if features.get(f)],
                  "digests": kernels.output_digests(sys.argv[2])}))
"""


def test_outputs_do_not_depend_on_cpu_kernels(tmp_path):
    expected = output_digests(str(tmp_path / "default"))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **KERNEL_ENV, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(TESTS), str(tmp_path / "baseline")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["enabled"] == []          # the variables took effect
    assert got["digests"] == expected

"""Each benchmark workload at seed 0 writes the bytes pinned in golden.json.

The workloads of ``perfbench/workloads.py`` run in process, set-up first as
the benchmark runs them, and the SHA-256 of their ``metrics.csv`` and
``pf.csv`` bytes must equal the pinned hashes. So a change that alters any
output byte of the benchmark fails here, not only in a benchmark run. The
test reads the perfbench files and writes none: no bytecode is cached for
them, and the workloads write only under a temporary directory.
"""

import hashlib
import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads.WORKLOADS


WORKLOADS = _workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_writes_its_golden_bytes(name, tmp_path):
    workload = WORKLOADS[name](0, str(tmp_path))
    workload.setup()
    outcome = workload.operate(workload.entry)
    hashes = {"metrics.csv": hashlib.sha256(outcome.metrics_csv).hexdigest(),
              "pf.csv": hashlib.sha256(outcome.pf_csv).hexdigest()}
    assert hashes == GOLDEN[name]["0"]

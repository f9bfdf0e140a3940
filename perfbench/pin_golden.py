"""Recompute the pinned output hashes in ``golden.json``.

    python3 perfbench/pin_golden.py

Every change must reproduce the pinned hashes byte for byte. Run this only
in a change that means to alter paretoq's outputs, and say why in that
change's CHANGES.md entry.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DEADLINE_S, HERE, ROOT, WORK, run_worker

PINNED_SEEDS = range(10)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    golden = {}
    try:
        for name in names:
            golden[name] = {}
            for seed in PINNED_SEEDS:
                rep = run_worker(name, seed, traced=False, index=seed, timeout=DEADLINE_S)
                if rep["problems"]:
                    print(f"{name} seed {seed}: {'; '.join(rep['problems'])}", file=sys.stderr)
                    return 1
                golden[name][str(seed)] = rep["hashes"]
                print(f"{name} seed {seed}: {rep['hashes']}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

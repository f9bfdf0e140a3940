"""Each demo script prints exactly the text committed in ``demo_outputs/``.

The demos run the public API end to end (demo 04 trains all four learner
kinds), so a change that alters any printed number shows up here. When a
change means to alter a demo's output, regenerate its file with
``PYTHONPATH=src python demos/<name>.py > tests/demo_outputs/<name>.txt``
and say why in the change's notes.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
EXPECTED = pathlib.Path(__file__).resolve().parent / "demo_outputs"


def test_every_demo_has_an_expected_output():
    assert DEMOS
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_expected_output(demo, tmp_path):
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)), timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()

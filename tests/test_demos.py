"""Every script under ``demos/`` runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from prtradeoff import cli

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the child imports the same package as this test; demo 5's work directory goes under tmp_path
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp_path),
    }
    # the suite's in-process warning rule, applied to the child interpreter
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-X", "dev", str(demo)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr

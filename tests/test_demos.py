import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob(
    "0*.py"))


def test_every_demo_is_collected():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a fresh working directory, so a demo that writes files leaves none
    # in the checkout; PYTHONPATH comes from conftest
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_identity_suite_demo_prints_the_same_stdout_twice(tmp_path):
    # its wall time goes to stderr; stdout holds only the residuals
    demo, = (d for d in DEMOS if d.name.startswith("04"))
    runs = [subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                           capture_output=True, timeout=300)
            for _ in range(2)]
    assert all(run.returncode == 0 for run in runs)
    assert runs[0].stdout == runs[1].stdout
    assert b"total time" in runs[0].stderr

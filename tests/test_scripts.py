"""Smoke tests: the example scripts run to completion from a plain checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_gallery_table_has_no_misclassification():
    proc = run_script("gallery_table.py")
    assert proc.returncode == 0, proc.stderr
    assert "\n0 misclassifications" in proc.stdout


@pytest.mark.parametrize("scheme", ["spectral", "periodic_finite_difference"])
def test_quartic_experiment_runs(scheme):
    proc = run_script("quartic_experiment.py", "--n", "16", "--scheme", scheme)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("== ") == 2


def test_conjugation_scaling_runs():
    proc = run_script("conjugation_scaling.py", "--n", "32")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:3] for row in rows[:2]] == [["32", "plain", "KSingularity(3)"],
                                            ["32", "conjugated", "KSingularity(3)"]]
    assert rows[2][:2] == ["32", "ratio"]
    assert rows[3][:3] == ["32", "ls", "KSingularity(3)"]
    assert rows[4][:2] == ["32", "fibering/ls"]

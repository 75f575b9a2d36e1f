"""Every script under ``examples/`` runs to completion.

Each example is self-checking (it raises or exits non-zero when its
outcome is wrong), so running it in a fresh interpreter is the whole
test.  Each runs in its own scratch directory with its own result
store, so nothing lands in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def run_example(script, tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    proc = run_example(script, tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("num_jobs", [1, 2])
def test_workload_study_without_a_queue_says_so(num_jobs, tmp_path):
    # No job waits in the fixed run, so there is no gain to report.
    proc = run_example(REPO / "examples" / "workload_study.py", tmp_path,
                       str(num_jobs))
    assert proc.returncode == 2, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert f"nothing queues at {num_jobs} jobs" in proc.stdout
    assert "Traceback" not in proc.stderr

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    # The oracle self-test makes the benchmark's calls into kernsense
    # (auto_step_size, gradient_descent, estimate_constants,
    # lambda_min_hessian, ...), so a change that breaks one of them fails
    # here rather than in a benchmark run.  It writes no files.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "oracle self-test passed" in out.stdout

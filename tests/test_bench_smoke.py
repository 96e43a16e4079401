"""One quick round of each benchmark workload.

bench/run.py checks every output with interpreters of its own: the
stores that run-loops and fuzz report on every engine, the stack
listings and MIPS assembly that compile-large produces on every backend,
and the verdicts and SMT-LIB scripts that verify produces.  So a change
that the benchmark would reject fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["run-loops", "compile-large", "verify", "fuzz"])
def test_quick_round(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result

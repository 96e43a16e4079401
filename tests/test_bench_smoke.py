"""One quick round of the benchmark's compile-large workload.

bench/run.py compiles generated programs on every backend and checks
each stack listing and MIPS assembly text with interpreters of its own,
so a backend change that the benchmark would reject fails here first.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compile_large_quick_round():
    argv = [sys.executable, "bench/run.py", "--workload", "compile-large",
            "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result

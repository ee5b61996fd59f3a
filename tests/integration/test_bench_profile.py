"""The documented profiler one-liner (docs/PERFORMANCE.md, "Profiling it").

One benchmark child under :mod:`cProfile` prints the child's JSON result and
then a pstats table sorted by own time, and writes nothing under ``bench/``
when its trace argument is 0.  The measured window is shortened to keep the
run to a few seconds of wall.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_DIR = REPO_ROOT / "bench"


def bench_tree() -> dict[str, tuple[int, int]]:
    return {str(path.relative_to(BENCH_DIR)): (path.stat().st_size,
                                              path.stat().st_mtime_ns)
            for path in BENCH_DIR.rglob("*") if path.is_file()}


def test_profiled_child_prints_its_result_and_a_profile_and_writes_nothing():
    env = dict(os.environ,
               PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"),
                                           str(REPO_ROOT)]),
               # Byte-code caches are Python's, not the child's writes.
               PYTHONDONTWRITEBYTECODE="1")
    before = bench_tree()
    completed = subprocess.run(
        [sys.executable, "-m", "cProfile", "-s", "tottime",
         "-m", "bench.child", "chord_kv_churn", "100", "0.3", "1.0", "0"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr

    lines = completed.stdout.splitlines()
    result = json.loads(next(line for line in lines if line.startswith("{")))
    assert result["workload"] == "chord_kv_churn"
    assert result["problems"] == []
    assert result["ok"] > 0

    assert "Ordered by: internal time" in completed.stdout
    assert any("(run_child)" in line for line in lines)
    assert bench_tree() == before

"""One pass of each benchmark workload through the library API it calls.

perfbench/worker.py drives ffield, idem and code the way the benchmark
does and checks each instance against the pinned reference values; a
change to what those functions return shows up here as a reported problem.
Besides the three gated workloads this runs sweep56595, which perfbench
runs but does not gate: the orbit reps and pci digests of all 15 pairs of
G1029 x G55 over GF(2), checked for idempotency and centrality at
|G| = 56595.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RESULT = "PERFBENCH-RESULT "


@pytest.mark.parametrize("workload", ["traces", "claims", "analogue1155", "sweep56595"])
def test_benchmark_pass_reports_no_problem(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--mode", "pass"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith(RESULT)]
    assert len(lines) == 1, out.stdout
    payload = json.loads(lines[0][len(RESULT):])
    assert payload["setup_problems"] == []
    assert payload["instances"]
    assert [p for inst in payload["instances"] for p in inst["problems"]] == []

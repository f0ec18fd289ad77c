"""The benchmark's contract with the package: each workload's child process
(perfbench/child.py), untraced and traced, runs every operation and meets
every oracle of perfbench/oracles.py.  This covers what the benchmark reads
of ccrlab: that its operator texts still parse, and that the tracer still
finds every method it rebinds.  The children run as perfbench/run.py starts
them: from the checkout, with src/ on PYTHONPATH and one BLAS thread."""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["report_all", "dense_reach", "exact_proofs"])
def test_benchmark_child_meets_every_oracle(workload, trace, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    oracles = importlib.import_module("oracles")
    spec = {"workload": workload, "seed": 0, "root": str(ROOT), "scratch": str(tmp_path), "trace": trace,
            "setup_only": False, "spawned": time.monotonic()}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), json.dumps(spec)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, proc.stderr[-2000:]
    payload = json.loads(lines[-1])
    assert payload["error"] is None
    attempted, failed = oracles.score(payload["records"], *oracles.expectations(workload))
    assert attempted > 0 and failed == []

"""Tests that run `python -m ccrlab` in a subprocess import the package
from this checkout's src/, like the in-process tests do through the
pytest `pythonpath` setting in pyproject.toml.  No test may leave a
child process behind, running or unreaped: `ccr-lab all` forks a worker
(reports.run_suite), and a subprocess a test starts must end with it."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def src_on_subprocess_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = "a child process still running" if pid == 0 else f"child {pid} unreaped (wait status {status})"
    pytest.fail(f"the test left {left}")

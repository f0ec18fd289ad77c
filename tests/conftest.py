"""Tests that run `python -m ccrlab` in a subprocess import the package
from this checkout's src/, like the in-process tests do through the
pytest `pythonpath` setting in pyproject.toml."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def src_on_subprocess_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

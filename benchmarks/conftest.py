"""Shared infrastructure for the benchmark suite.

Each ``bench_*``/``test_*`` module regenerates one of the paper's tables or
figures at the ``bench`` scale (scaled-down calibrated synthetic datasets,
:mod:`repro.data.synthetic`) and writes the formatted artifact to
``benchmarks/output/<name>.txt``.

Set ``REPRO_BENCH_SCALE=paper`` to run the full-scale configuration (much
slower; matches the paper's universe sizes and epoch counts).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


def bench_scale() -> str:
    """The harness scale benchmarks run at (default: 'bench')."""
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    """Save a formatted artifact and echo it to the terminal."""

    def _save(name: str, text: str) -> None:
        path = artifact_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save

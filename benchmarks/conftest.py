"""Benchmark fixtures.

The benchmarks regenerate every paper table and figure against the
*medium* world (large enough for well-resolved distributions).  One
engine run per session computes every stage; each benchmark times the
regeneration of its artifact from that run's study view and writes the
rendered rows to ``benchmarks/output/<artifact>.txt`` so the run leaves
the same rows the paper reports as evidence.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import Study, WorldConfig
from repro.runtime import run_study

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def pytest_configure(config):
    OUTPUT_DIR.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def study() -> Study:
    """The view of one engine run over the medium world.  Products do
    not depend on the worker count; two workers halve the wait."""
    seed = int(os.environ.get("REPRO_BENCH_SEED", "20180825"))
    return run_study(WorldConfig.medium(seed=seed), workers=2).study()


@pytest.fixture()
def save_artifact():
    """Writer for the rendered artifact text."""

    def write(artifact_id: str, text: str) -> None:
        (OUTPUT_DIR / f"{artifact_id}.txt").write_text(text + "\n")

    return write

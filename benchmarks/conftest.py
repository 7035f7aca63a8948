"""Shared benchmark scaffolding.

Figure benchmarks regenerate every table/figure of the paper at a reduced
but shape-preserving scale (fewer measured accesses than the paper's 5000;
same load grids).  Each bench

1. runs the figure sweep exactly once under pytest-benchmark timing,
2. writes the rendered table to ``results/figure_<id>.txt`` (and JSON),
3. asserts the paper's qualitative shape on the regenerated series.

Run ``python -m repro figures --full`` for paper-scale sweeps.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.base import Profile
from repro.experiments.reporting import render_figure

#: Reduced-scale profile used by every figure bench.
BENCH = Profile(settle_accesses=250, measure_accesses=350, replicates=1,
                base_seed=11)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_figure(results_dir):
    """Persist a regenerated figure and echo its table."""

    def _record(figure):
        text = render_figure(figure, show_drop_rates=True)
        stem = f"figure_{figure.figure_id}"
        (results_dir / f"{stem}.txt").write_text(text + "\n")
        (results_dir / f"{stem}.json").write_text(
            json.dumps(figure.to_dict(), indent=2))
        print(f"\n{text}\n")
        return figure

    return _record


def run_once(benchmark, func):
    """Run a whole figure sweep exactly once under benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)

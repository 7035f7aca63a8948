"""Shared benchmark scaffolding.

Figure benchmarks regenerate every table/figure of the paper at a reduced
but shape-preserving scale (fewer measured accesses than the paper's 5000;
same load grids).  Each bench

1. runs the figure sweep exactly once under pytest-benchmark timing,
2. writes the rendered table to ``results/figure_<id>.txt`` (and JSON),
3. judges the figure row's claims (``FigureSpec.claims``) on the
   regenerated series with ``repro.experiments.figures.evaluate``, and
   fails if one is false.

Run ``python -m repro figures --full`` for paper-scale sweeps.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.base import Profile
from repro.experiments.reporting import render_figure

#: Reduced-scale profile used by every figure bench, on the full process
#: pool like ``FULL`` (a pooled sweep equals a serial one point for point).
BENCH = Profile(settle_accesses=250, measure_accesses=350, replicates=1,
                base_seed=11, workers=os.cpu_count())
#: Deep saturation is high-variance: Figure 5 averages two replicates.
BENCH5 = replace(BENCH, replicates=2)
#: Pure-Push runs take the analytic shortcut (milliseconds per run), so
#: the push-only ablation rows can afford paper-scale samples: the
#: effects they measure are a few percent, far below BENCH's noise floor
#: (at QUICK some seeds put P ahead of PIX).
PUSH_BENCH = replace(BENCH, settle_accesses=1000, measure_accesses=20_000,
                     replicates=3)

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

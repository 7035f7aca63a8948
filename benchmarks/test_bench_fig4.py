"""Regenerate Figure 4 — client cache warm-up time (Experiment 1).

Shape assertions from Section 4.1.3:

- under low-moderate load (TTR=25) Pure-Pull warms up fastest;
- under heavy load (TTR=250) the approaches invert and Pure-Push warms
  up best;
- warm-up time grows monotonically with the warm percentage.
"""

from benchmarks.conftest import BENCH, run_once
from repro.experiments import FIGURES, run_figure


def final_time(series):
    return series.points[-1].mean


def test_figure_4a_light_load(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["4a"], BENCH))
    record_figure(figure)

    push = figure.series_by_label("Push")
    pull0 = figure.series_by_label("Pull 0%")
    for series in figure.series:
        assert series.points == sorted(series.points, key=lambda p: p.mean)
    # Lightly loaded: Pure-Pull warms up far faster than Pure-Push.
    assert final_time(pull0) < final_time(push) / 2


def test_figure_4b_heavy_load(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["4b"], BENCH))
    record_figure(figure)

    push = figure.series_by_label("Push")
    pull0 = figure.series_by_label("Pull 0%")
    pull95 = figure.series_by_label("Pull 95%")
    # Heavily loaded: the ordering inverts — push warms up best.
    assert final_time(push) < final_time(pull0)
    assert final_time(push) < final_time(pull95)

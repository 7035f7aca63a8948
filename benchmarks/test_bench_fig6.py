"""Regenerate Figure 6 — thresholds for backchannel conservation
(Experiment 2).

Shape assertions from Section 4.2:

- at the lightest load, thresholds only delay clients (ThresPerc=0% wins
  among the IPP variants);
- under heavy load, higher thresholds win and extend the range of loads
  where IPP beats Pure-Push — the paper's "factor of two/three
  improvement in the number of clients that can be supported";
- with PullBW=30% the server saturates earlier, making ThresPerc=35% the
  best variant across most of the load axis.
"""

from benchmarks.conftest import BENCH, run_once
from repro.experiments import FIGURES, run_figure


def crossover_ttr(figure, label):
    """First load where the labelled series loses to Pure-Push."""
    push = figure.series_by_label("Push")
    series = figure.series_by_label(label)
    for x, y, push_y in zip(series.x, series.y, push.y):
        if y > push_y:
            return x
    return float("inf")


def test_figure_6a_pull_bw_50(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["6a"], BENCH))
    record_figure(figure)

    no_thresh = figure.series_by_label("IPP ThresPerc 0%")
    thresh25 = figure.series_by_label("IPP ThresPerc 25%")
    # Light load: thresholds only constrain.
    assert no_thresh.y[0] < thresh25.y[0]
    # The 25% threshold extends IPP's winning range over no-threshold.
    assert crossover_ttr(figure, "IPP ThresPerc 25%") \
        >= crossover_ttr(figure, "IPP ThresPerc 0%")
    # Heavy load: thresholding beats flooding.
    assert thresh25.y[-1] < no_thresh.y[-1]


def test_figure_6b_pull_bw_30(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["6b"], BENCH))
    record_figure(figure)

    no_thresh = figure.series_by_label("IPP ThresPerc 0%")
    thresh35 = figure.series_by_label("IPP ThresPerc 35%")
    # Scarcer pull bandwidth saturates earlier; the strong threshold wins
    # everywhere except the very lightest load.
    assert thresh35.y[-1] < no_thresh.y[-1]
    assert crossover_ttr(figure, "IPP ThresPerc 35%") \
        > crossover_ttr(figure, "IPP ThresPerc 0%")

"""Regenerate Figure 3 — steady-state push/pull tradeoffs (Experiment 1).

Shape assertions from Section 4.1.1:

- Pure-Push is flat in ThinkTimeRatio;
- at light load the pull-based approaches beat Push by a wide margin;
- under saturation Pure-Pull ends above both Push and IPP (safety net);
- steady-state peers (95%) help the pull-based approaches;
- IPP tends toward Pure-Pull as PullBW grows.
"""

from benchmarks.conftest import BENCH, run_once
from repro.experiments import FIGURES, run_figure


def test_figure_3a(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["3a"], BENCH))
    record_figure(figure)

    push = figure.series_by_label("Push")
    pull95 = figure.series_by_label("Pull 95%")
    pull0 = figure.series_by_label("Pull 0%")
    ipp95 = figure.series_by_label("IPP 95%")

    # Push is flat.
    assert len(set(push.y)) == 1
    # Light load: pull-based access is dramatically faster than push.
    assert pull95.y[0] < push.y[0] / 20
    # Saturation: Pure-Pull deteriorates past Pure-Push...
    assert pull95.y[-1] > push.y[-1]
    # ...and IPP levels out below Pure-Pull (the push safety net).
    assert ipp95.y[-1] < pull95.y[-1]
    # Warm peers help: the 95% curve dominates the 0% curve at the heavy
    # end of the load axis.
    assert pull95.y[-1] < pull0.y[-1]


def test_figure_3b(benchmark, record_figure):
    figure = run_once(benchmark, lambda: run_figure(FIGURES["3b"], BENCH))
    record_figure(figure)

    pull = figure.series_by_label("Pull")
    ipp50 = figure.series_by_label("IPP PullBW 50%")
    ipp10 = figure.series_by_label("IPP PullBW 10%")

    # More pull bandwidth tracks Pure-Pull at light load.
    assert abs(ipp50.y[0] - pull.y[0]) < abs(ipp10.y[0] - pull.y[0])
    # PullBW=10% is sluggish even when the system is idle (§4.1.2): the
    # starved pull slots leave it near (or worse than) Pure-Push territory.
    assert ipp10.y[0] > ipp50.y[0] * 2
    # Every IPP variant undercuts Pure-Pull under saturation.
    for label in ("IPP PullBW 50%", "IPP PullBW 30%", "IPP PullBW 10%"):
        assert figure.series_by_label(label).y[-1] < pull.y[-1]

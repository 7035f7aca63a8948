"""The figure table and its one sweep function.

``TestTable`` checks the eleven :data:`FIGURES` rows against the archived
``results/figure_<id>.json`` without simulating; the ``TestFigureN``
classes run each spec on a miniature grid
(``replace(FIGURES[id], xs=...)``) to verify the *wiring* — series
labels, sweep axes, flat reference lines.  The paper-shape assertions
live in tests/integration/test_paper_claims.py; full grids run in
benchmarks/.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import base
from repro.experiments.base import Profile, sweep_progress
from repro.experiments.figures import FIGURES, run_figure

TINY = Profile(settle_accesses=30, measure_accesses=60, replicates=1,
               base_seed=5)
RESULTS = Path(__file__).resolve().parents[2] / "results"


def tiny(fig_id, xs=None):
    spec = FIGURES[fig_id]
    return run_figure(spec if xs is None else replace(spec, xs=xs), TINY)


class TestTable:
    @pytest.mark.parametrize("fig_id", FIGURES)
    def test_spec_matches_the_archived_figure(self, fig_id):
        spec = FIGURES[fig_id]
        archived = json.loads(
            (RESULTS / f"figure_{fig_id}.json").read_text())
        assert [s.label for s in spec.series] \
            == [s["label"] for s in archived["series"]]
        for key in ("title", "x_label", "y_label"):
            assert getattr(spec, key) == archived[key]
        for series in archived["series"]:
            if spec.warmup:  # x is the set of levels the run crossed
                assert set(series["x"]) <= set(spec.xs)
            else:
                assert series["x"] == list(spec.xs)

    def test_config_sets_the_x_key_except_on_flat_series(self):
        spec = FIGURES["7b"]
        ipp = spec.config("IPP PullBW 50%", 400)
        assert ipp.server.chop == 400
        assert ipp.server.thresh_perc == 0.35
        assert ipp.client.think_time_ratio == 25
        # Pure-Push cannot chop; its reference line ignores the axis.
        assert spec.config("Push", 400).server.chop == 0
        with pytest.raises(ValueError):
            spec.config("no such series", 400)


class TestFigure3:
    def test_3a_series(self):
        figure = tiny("3a", xs=(5, 10))
        labels = [s.label for s in figure.series]
        assert labels == ["Push", "Pull 0%", "IPP 0%", "Pull 95%",
                          "IPP 95%"]
        assert all(s.x == [5, 10] for s in figure.series)
        assert figure.figure_id == "3a"

    def test_3a_push_is_flat(self):
        figure = tiny("3a", xs=(5, 10))
        push = figure.series_by_label("Push")
        assert push.y[0] == push.y[1]

    def test_3b_series(self):
        figure = tiny("3b", xs=(5,))
        labels = [s.label for s in figure.series]
        assert labels == ["Push", "Pull", "IPP PullBW 50%",
                          "IPP PullBW 30%", "IPP PullBW 10%"]

    def test_spine_name_shrinks_the_grid(self):
        """``figure_3a(profile, ttrs=...)`` is the benchmark spine's
        import contract (benchmarks/spine/run.py)."""
        from repro.experiments.experiment1 import figure_3a

        figure = figure_3a(TINY, ttrs=(10,))
        assert figure.figure_id == "3a"
        assert all(s.x == [10] for s in figure.series)


class TestFigure4:
    def test_warmup_series_monotone(self):
        figure = tiny("4a")
        assert figure.figure_id == "4a"
        assert [s.label for s in figure.series] \
            == ["Push", "Pull 0%", "IPP 0%", "Pull 95%", "IPP 95%"]
        for series in figure.series:
            assert series.x  # crossed at least one level
            assert series.points == sorted(series.points,
                                           key=lambda p: p.mean)

    def test_x_axis_is_percentages(self):
        figure = tiny("4a")
        for series in figure.series:
            assert all(10.0 <= x <= 95.0 for x in series.x)


class TestFigure5:
    def test_pull_variant_labels(self):
        figure = tiny("5a", xs=(5,))
        labels = [s.label for s in figure.series]
        assert "Push Noise 0%" in labels
        assert "Pull Noise 35%" in labels
        assert figure.figure_id == "5a"

    def test_ipp_variant_labels(self):
        figure = tiny("5b", xs=(5,))
        assert any("IPP Noise" in s.label for s in figure.series)
        assert figure.figure_id == "5b"


class TestFigure6:
    def test_series_and_id(self):
        figure = tiny("6a", xs=(5,))
        labels = [s.label for s in figure.series]
        assert labels[0] == "Push"
        assert "IPP ThresPerc 35%" in labels
        assert "IPP ThresPerc 0%" in labels
        assert figure.figure_id == "6a"
        assert "PullBW=30%" in FIGURES["6b"].title


class TestFigure7:
    def test_axes_are_chop_depths(self):
        figure = tiny("7b", xs=(0, 200))
        assert figure.figure_id == "7b"
        ipp = figure.series_by_label("IPP PullBW 50%")
        assert ipp.x == [0, 200]

    def test_reference_lines_flat(self):
        figure = tiny("7a", xs=(0, 200))
        for label in ("Push", "Pull"):
            series = figure.series_by_label(label)
            assert series.y[0] == series.y[1]


class TestFigure8:
    def test_series(self):
        figure = tiny("8", xs=(5,))
        labels = [s.label for s in figure.series]
        assert labels == ["Push", "Pull", "IPP Full DB", "IPP -200",
                          "IPP -300", "IPP -500", "IPP -700"]


class _Recorder:
    def __init__(self):
        self.events = []

    def sweep_started(self, total, label):
        self.events.append(("started", total))

    def replicate_done(self, index, result):
        self.events.append(("done", index))


class TestOneSweepPerFigure:
    #: The benchmark spine's ``sweep_fig3a`` shape: 26 runs.
    SPEC = replace(FIGURES["3a"], xs=(10, 25, 50))
    PROFILE = Profile(settle_accesses=10, measure_accesses=30, replicates=2)

    def test_observer_is_told_the_whole_figure_up_front(self):
        """``figures --watch`` shows a whole-figure ETA from its first
        frame: one ``sweep_started`` carrying every run of every series,
        before any completion."""
        recorder = _Recorder()
        with sweep_progress(recorder):
            run_figure(self.SPEC, self.PROFILE)
        assert recorder.events[0] == ("started", 26)
        assert [e for e in recorder.events if e[0] == "started"] \
            == [("started", 26)]
        assert sorted(e[1] for e in recorder.events[1:]) == list(range(26))

    @pytest.mark.parametrize("workers, pools", [(2, 1), (None, 0)])
    def test_one_process_pool_per_figure(self, monkeypatch, workers, pools):
        built = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(base, "ProcessPoolExecutor", CountingPool)
        figure = run_figure(self.SPEC, replace(self.PROFILE, workers=workers))
        assert len(built) == pools
        assert len(figure.series) == 5

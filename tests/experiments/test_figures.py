"""The figure table and its one sweep function.

``TestTable`` checks the eleven :data:`FIGURES` rows against the archived
``results/figure_<id>.json`` without simulating; the ``TestFigureN``
classes run each spec on a miniature grid
(``replace(FIGURES[id], xs=...)``) to verify the *wiring* — series
labels, sweep axes, flat reference lines.  ``TestExtensions`` pins the
:data:`EXTENSIONS` rows to the hand-written sweeps they replaced, and
the push-side ablation rows to their archived numbers.  The
paper-shape assertions live in tests/integration/test_paper_claims.py;
full grids run in benchmarks/.
"""

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.bandwidth import optimal_disk_split
from repro.experiments import base
from repro.experiments.base import Profile
from repro.experiments.figures import EXTENSIONS, FIGURES, run_figure
from repro.workload.zipf import zipf_probabilities
from tests.conftest import regrid

TINY = Profile(settle_accesses=30, measure_accesses=60, replicates=1,
               base_seed=5)
RESULTS = Path(__file__).resolve().parents[2] / "results"


def tiny(fig_id, xs=None):
    spec = FIGURES[fig_id]
    return run_figure(spec if xs is None else regrid(spec, xs), TINY)


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


class TestOneSweepPerFigure:
    #: The benchmark spine's ``sweep_fig3a`` shape: 26 runs.
    SPEC = replace(FIGURES["3a"], xs=(10, 25, 50))
    PROFILE = Profile(settle_accesses=10, measure_accesses=30, replicates=2)

    def test_observer_is_told_the_whole_figure_up_front(self, sweeps):
        """One ``run_sweep`` carries every run of every series, each
        config built before the first run."""
        run_figure(self.SPEC, self.PROFILE)
        assert [len(sweep) for sweep in sweeps] == [26]

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


#: The scale the retired sweeps were pinned at: a 30-client fleet with
#: think time 120, two PullBW points, two replicates.
RETIRED_PROFILE = Profile(settle_accesses=20, measure_accesses=60,
                          replicates=2, base_seed=3)
RETIRED_XS = {"fleet-pullbw": (0.2, 0.5), "sched-pullbw": (0.3, 0.5)}
#: sha256 of :func:`series_digest` over ``fleet_sweep_figure(...,
#: num_clients=30, think_time=120.0)`` and ``sched_sweep_figure(...)`` at
#: that scale, computed on the last commit that had them.
RETIRED_DIGESTS = {
    "fleet-pullbw":
        "dd6fcaf17043869c2945a2f651a53e21c31f3cefdd846907c845f8255d98700d",
    "sched-pullbw":
        "9a0feec7a35443fdce54770d1f2652a812f07a30f414263d134ca79daeca11fe",
}


def series_digest(figure):
    """sha256 over every series' label and arrays (not title or notes)."""
    keys = ("label", "x", "y", "drop_rate", "stddev", "replicates", "p50",
            "p90", "p99")
    data = [{key: series[key] for key in keys if key in series}
            for series in figure.to_dict()["series"]]
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def shrunk(fig_id):
    """An :data:`EXTENSIONS` row at the retired sweeps' pinned scale."""
    spec = EXTENSIONS[fig_id]
    fleet = {"fleet__num_clients": 30, "fleet__think_time": 120.0}
    return replace(regrid(spec, RETIRED_XS[fig_id]), series=tuple(
        replace(s, overrides={**s.overrides, **fleet}) for s in spec.series))


#: The ablation benches' scale (``PUSH_BENCH``): Pure-Push runs take the
#: analytic shortcut, so paper-scale samples cost about a second.
PUSH_BENCH = Profile(settle_accesses=1000, measure_accesses=20_000,
                     replicates=3, base_seed=11)
#: Curve label -> mean at ``PUSH_BENCH``, as the hand-written ablation
#: loops archived them (``ablation_cache_policy.txt``,
#: ``ablation_offset.txt``, ``ablation_disk_layout.txt``).
ABLATION_MEANS = {
    "cache-policy": {"pix all-access mean": 288.6,
                     "p all-access mean": 304.7,
                     "lru all-access mean": 309.5},
    "push-program": {"Offset 100/400/500": 454.6, "no Offset": 515.3,
                     "square-root 100/100/800": 475.0,
                     "flat single disk": 520.0},
}


class TestExtensions:
    @pytest.mark.parametrize("fig_id", RETIRED_DIGESTS)
    def test_matches_the_retired_sweep(self, fig_id):
        figure = run_figure(shrunk(fig_id), RETIRED_PROFILE)
        assert figure.figure_id == fig_id
        assert series_digest(figure) == RETIRED_DIGESTS[fig_id]

    def test_rows_keep_the_retired_sweeps_scale(self):
        fleet = EXTENSIONS["fleet-pullbw"].representative_config()
        assert fleet.fleet.num_clients == 100_000
        assert fleet.fleet.think_time == 80_000.0  # ThinkTimeRatio 25
        assert "fleet of 100000 clients" in EXTENSIONS["fleet-pullbw"].title
        for discipline in ("fifo", "rxw", "lwf"):
            config = EXTENSIONS["sched-pullbw"].config(discipline, 0.1)
            assert config.scheduler.discipline == discipline
            assert config.scheduler.aging == 1.0
            assert config.fleet.num_clients == 2000
            assert config.fleet.think_time == 1600.0

    def test_ids_do_not_collide_with_the_papers(self):
        assert not set(EXTENSIONS) & set(FIGURES)

    def test_every_representative_names_a_series_and_an_x(self):
        for fig_id, spec in EXTENSIONS.items():
            label, x = spec.representative
            assert label in [s.label for s in spec.series], fig_id
            assert x in spec.xs, fig_id
            assert spec.representative_config() == spec.config(label, x)

    @pytest.mark.parametrize("fig_id", ABLATION_MEANS)
    def test_ablation_row_reproduces_the_archived_means(self, fig_id):
        figure = run_figure(EXTENSIONS[fig_id], PUSH_BENCH)
        means = {s.label: s.y[0] for s in figure.series}
        assert means == pytest.approx(ABLATION_MEANS[fig_id], abs=0.1)

    def test_push_program_split_is_the_square_root_rules(self):
        searched, _ = optimal_disk_split(zipf_probabilities(1000, 0.95),
                                         (3, 2, 1), granularity=100)
        spec = EXTENSIONS["push-program"]
        config = spec.config("square-root 100/100/800", spec.xs[0])
        assert config.server.disk_sizes == tuple(searched)
        assert config.server.rel_freqs == (3, 2, 1)

"""Unit tests for sweep infrastructure."""

import math
import re
from dataclasses import fields, replace

import pytest

from repro.core.algorithms import Algorithm
from repro.experiments.base import (
    FigureResult,
    FigureSeries,
    PointStats,
    Profile,
    run_points,
    run_replicated,
    run_sweep,
)
from repro.experiments.figures import FigureSpec, SeriesSpec, run_figure
from tests.conftest import small_config

TINY = Profile(settle_accesses=20, measure_accesses=60, replicates=2,
               base_seed=3)


def small_curve(label, xs, metrics=None):
    """One IPP curve of the miniature system over ThinkTimeRatio ``xs``."""
    config = small_config()
    overrides = {f.name: getattr(config, f.name) for f in fields(config)}
    return FigureSpec(
        "small", "small", "TTR", "y", x_key="client__think_time_ratio",
        xs=tuple(xs), series=(SeriesSpec(label, Algorithm.IPP, overrides),),
        representative=(label, xs[0]), metrics=metrics)


class TestProfile:
    def test_apply_stamps_run_settings(self):
        config = TINY.apply(small_config(), seed=9)
        assert config.run.settle_accesses == 20
        assert config.run.measure_accesses == 60
        assert config.run.seed == 9

    @pytest.mark.parametrize("knob, value, message", [
        ("replicates", 0, "replicates must be an int >= 1, got 0"),
        ("base_seed", -1, "run.seed must be an int >= 0, got -1"),
        ("settle_accesses", -1, "run.settle_accesses must be"),
        ("measure_accesses", 0, "run.measure_accesses must be"),
        ("max_slots", 0, "run.max_slots must be"),
    ])
    def test_bad_knob_rejected_naming_it(self, knob, value, message):
        """Regression: ``replicates=0`` reached ``point_stats`` as an
        empty point and a negative seed failed inside the first sweep;
        a profile is now checked where it is built.  The error names
        ``profile.<knob>`` and states the domain in the words of
        ``message``, the ``run.*`` field's whose domain a run knob
        shares."""
        _, _, domain = message.partition(" ")
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"profile.{knob} {domain}")):
            replace(TINY, **{knob: value})

    def test_builtin_profiles_match_methodology(self):
        """FULL mirrors Section 4's methodology (4000 settle accesses);
        QUICK is a strictly smaller shape-check."""
        from repro.experiments.base import FULL, QUICK

        assert FULL.settle_accesses == 4000
        assert FULL.measure_accesses == 5000
        assert FULL.replicates >= 2
        assert QUICK.settle_accesses < FULL.settle_accesses
        assert QUICK.measure_accesses < FULL.measure_accesses


class TestRunSweep:
    def test_sequential_runs_all(self):
        configs = [TINY.apply(small_config(), seed=s) for s in (1, 2)]
        results = run_sweep(configs)
        assert len(results) == 2
        assert {r.seed for r in results} == {1, 2}

    def test_warmup_mode(self):
        configs = [TINY.apply(small_config(), seed=1)]
        results = run_sweep(configs, warmup=True)
        assert results[0].warmup_times

    def test_process_pool_matches_sequential(self):
        configs = [TINY.apply(small_config(), seed=s) for s in (1, 2)]
        sequential = run_sweep(configs)
        pooled = run_sweep(configs, workers=2)
        assert sequential == pooled


class TestPointStats:
    def test_empty_results_raise_value_error(self):
        """Regression: StatisticsError leaked from statistics.fmean."""
        with pytest.raises(ValueError, match="empty results"):
            PointStats.of([], metric=lambda r: 0.0)


class TestRunReplicated:
    def test_aggregates_replicates(self):
        stats = run_replicated(small_config(), TINY)
        assert stats.replicates == 2
        assert not math.isnan(stats.mean)
        assert stats.stddev >= 0.0
        assert len(stats.results) == 2

    def test_custom_metric(self):
        stats = run_replicated(small_config(), TINY,
                               metric=lambda r: float(r.mc_hits))
        assert stats.mean >= 0

    def test_replicates_use_distinct_seeds(self):
        stats = run_replicated(small_config(Algorithm.PURE_PULL), TINY)
        seeds = {r.seed for r in stats.results}
        assert seeds == {3, 4}

    def test_nan_metric_rejected_and_named(self):
        """Regression: the guard only inspected the mean; it now names
        every NaN aggregate (stddev goes NaN alongside the mean here)."""
        with pytest.raises(RuntimeError, match="NaN mean"):
            run_replicated(small_config(), TINY, metric=lambda r: math.nan)


class TestSweepSeries:
    """A figure's curve, as :func:`run_figure` reduces it."""

    def test_series_shape(self):
        [series] = run_figure(small_curve("ipp", (2, 5)), TINY).series
        assert series.label == "ipp"
        assert series.x == [2, 5]
        assert len(series.points) == 2
        assert len(series.y) == 2

    def test_nan_points_no_longer_flow_into_series(self):
        """Regression: sweep_series had no NaN guard at all — NaN points
        flowed silently into saved figures."""
        spec = small_curve("x", (1,), metrics={"nan": lambda r: math.nan})
        with pytest.raises(RuntimeError, match="produced NaN"):
            run_figure(spec, TINY)

    def test_bad_config_rejected_before_any_run(self, sweeps):
        with pytest.raises(ValueError, match="client.think_time_ratio"):
            run_figure(small_curve("x", (2, math.nan)), TINY)
        assert sweeps == []


class TestRunPoints:
    def test_one_sweep_chunks_replicates_per_config(self, sweeps):
        """The primitive under run_replicated / run_figure: every point's
        replicates in one run_sweep, handed back per config with seeds
        base_seed + r."""
        configs = [small_config(client__think_time_ratio=ttr)
                   for ttr in (2, 5, 7)]
        runs = run_points(configs, TINY)
        assert [[c.run.seed for c in sweep] for sweep in sweeps] \
            == [[3, 4] * 3]
        for config, results in zip(configs, runs):
            assert results == run_sweep(
                [TINY.apply(config, seed) for seed in (3, 4)])


class TestSweepSeriesMulti:
    """``FigureSpec.metrics``: several statistics of one set of runs."""

    def test_series_share_one_set_of_runs(self, sweeps):
        metrics = {"mean": lambda r: r.response_miss.mean,
                   "hits": lambda r: float(r.mc_hits),
                   "slots": lambda r: float(r.total_slots)}
        figure = run_figure(small_curve("ipp", (2, 5), metrics), TINY)
        # points x replicates runs, whatever the number of metrics.
        assert [len(sweep) for sweep in sweeps] == [2 * TINY.replicates]
        mean, hits, slots = figure.series
        assert (mean.label, hits.label, slots.label) \
            == ("ipp mean", "ipp hits", "ipp slots")
        assert mean.x == hits.x == slots.x == [2, 5]
        for a, b, c in zip(mean.points, hits.points, slots.points):
            assert a.results and a.results == b.results == c.results
        [plain] = run_figure(small_curve("ipp", (2, 5)), TINY).series
        assert mean.y == plain.y

    def test_unlabelled_series_is_labelled_by_metric_alone(self):
        figure = run_figure(
            small_curve("", (2,), {"hits": lambda r: float(r.mc_hits)}),
            TINY)
        assert [s.label for s in figure.series] == ["hits"]


class TestFigureResult:
    def make(self):
        point = PointStats(mean=1.0, stddev=0.0, replicates=1,
                           drop_rate=0.25)
        return FigureResult(
            figure_id="3a", title="t", x_label="x", y_label="y",
            series=[FigureSeries("Push", [1, 2], [point, point])])

    def test_series_by_label(self):
        figure = self.make()
        assert figure.series_by_label("Push").label == "Push"
        with pytest.raises(KeyError):
            figure.series_by_label("nope")

    def test_to_dict(self):
        data = self.make().to_dict()
        assert data["figure"] == "3a"
        assert data["series"][0]["y"] == [1.0, 1.0]
        assert data["series"][0]["drop_rate"] == [0.25, 0.25]


class TestRunSweepStreaming:
    def test_pooled_results_keep_submission_order(self):
        # Seeds double as identity: completion order under the pool is
        # arbitrary, the returned list must not be.
        seeds = [5, 1, 4, 2, 3]
        configs = [TINY.apply(small_config(), seed=s) for s in seeds]
        results = run_sweep(configs, workers=3)
        assert [r.seed for r in results] == seeds

    def test_failing_replicate_raises_not_hangs(self):
        from repro.core.fast import SimulationStall

        # max_slots=50 cannot fit settle+measure: the replicate stalls.
        bad = TINY.apply(small_config(), seed=1).with_(run__max_slots=50)
        good = TINY.apply(small_config(), seed=2)
        with pytest.raises(SimulationStall):
            run_sweep([good, bad, good], workers=2)

    def test_ambient_observer_applies_to_nested_sweeps(self, sweeps):
        """A figure's runs go through the module's ``run_sweep``, nested
        under run_figure and run_points, so whatever stands in that name
        sees them all."""
        [series] = run_figure(small_curve("IPP", (1.0,)), TINY).series
        assert [len(sweep) for sweep in sweeps] == [TINY.replicates]
        assert series.points[0].replicates == TINY.replicates

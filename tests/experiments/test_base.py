"""Unit tests for sweep infrastructure."""

import math

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
    sweep_series,
    sweep_series_multi,
)
from tests.conftest import small_config

TINY = Profile(settle_accesses=20, measure_accesses=60, replicates=2,
               base_seed=3)


class TestProfile:
    def test_apply_stamps_run_settings(self):
        config = TINY.apply(small_config(), seed=9)
        assert config.run.settle_accesses == 20
        assert config.run.measure_accesses == 60
        assert config.run.seed == 9

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
    def test_series_shape(self):
        configs = [small_config(client__think_time_ratio=ttr)
                   for ttr in (2, 5)]
        series = sweep_series("ipp", configs, [2, 5], TINY)
        assert series.label == "ipp"
        assert series.x == [2, 5]
        assert len(series.points) == 2
        assert len(series.y) == 2

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep_series("x", [small_config()], [1, 2], TINY)

    def test_nan_points_no_longer_flow_into_series(self):
        """Regression: sweep_series had no NaN guard at all — NaN points
        flowed silently into saved figures."""
        with pytest.raises(RuntimeError, match="produced NaN"):
            sweep_series("x", [small_config()], [1], TINY,
                         metric=lambda r: math.nan)


class TestRunPoints:
    def test_one_sweep_chunks_replicates_per_config(self):
        """The primitive under run_replicated / sweep_series /
        sweep_series_multi / run_figure: every point's replicates in one
        run_sweep, handed back per config with seeds base_seed + r."""
        from repro.experiments.base import sweep_progress

        recorder = _Recorder()
        configs = [small_config(client__think_time_ratio=ttr)
                   for ttr in (2, 5, 7)]
        with sweep_progress(recorder):
            runs = run_points(configs, TINY, label="batch")
        assert recorder.started == [(3 * TINY.replicates, "batch")]
        for config, results in zip(configs, runs):
            assert results == run_sweep(
                [TINY.apply(config, seed) for seed in (3, 4)])


class TestSweepSeriesMulti:
    def test_series_share_one_set_of_runs(self):
        configs = [small_config(client__think_time_ratio=ttr)
                   for ttr in (2, 5)]
        recorder = _Recorder()
        from repro.experiments.base import sweep_progress
        with sweep_progress(recorder):
            mean, hits = sweep_series_multi(
                {"mean": None, "hits": lambda r: float(r.mc_hits)},
                configs, [2, 5], TINY, label="shared")
        assert recorder.started == [(2 * TINY.replicates, "shared")]
        assert (mean.label, hits.label) == ("mean", "hits")
        assert mean.x == hits.x == [2, 5]
        for a, b in zip(mean.points, hits.points):
            assert a.results is not None and a.results == b.results
        assert mean.y == sweep_series("m", configs, [2, 5], TINY).y

    def test_misaligned_or_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="align"):
            sweep_series_multi({"m": None}, [small_config()], [1, 2], TINY)
        with pytest.raises(ValueError, match="metrics"):
            sweep_series_multi({}, [small_config()], [1], TINY)


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


class _Recorder:
    """Minimal SweepProgress implementation for assertions."""

    def __init__(self):
        self.started = []
        self.done = []

    def sweep_started(self, total, label):
        self.started.append((total, label))

    def replicate_done(self, index, result):
        self.done.append((index, result.seed))


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

    def test_progress_observer_sequential(self):
        recorder = _Recorder()
        configs = [TINY.apply(small_config(), seed=s) for s in (1, 2)]
        run_sweep(configs, progress=recorder, label="curve")
        assert recorder.started == [(2, "curve")]
        assert recorder.done == [(0, 1), (1, 2)]

    def test_progress_observer_pooled_sees_every_replicate(self):
        recorder = _Recorder()
        seeds = [1, 2, 3, 4]
        configs = [TINY.apply(small_config(), seed=s) for s in seeds]
        run_sweep(configs, workers=2, progress=recorder)
        assert recorder.started == [(4, None)]
        # Completion order is arbitrary; coverage must be exact.
        assert sorted(recorder.done) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_ambient_observer_applies_to_nested_sweeps(self):
        from repro.experiments.base import sweep_progress

        recorder = _Recorder()
        config = small_config()
        with sweep_progress(recorder):
            sweep_series("IPP", [config], [1.0], TINY)
        assert recorder.started == [(TINY.replicates, "IPP")]
        assert len(recorder.done) == TINY.replicates

    def test_explicit_observer_shadows_the_ambient_one(self):
        from repro.experiments.base import sweep_progress

        ambient, explicit = _Recorder(), _Recorder()
        configs = [TINY.apply(small_config(), seed=1)]
        with sweep_progress(ambient):
            run_sweep(configs, progress=explicit)
        assert not ambient.started and explicit.started == [(1, None)]

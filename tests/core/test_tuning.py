"""Unit tests for the parameter-setting advisor."""

import pytest

from repro.core.algorithms import Algorithm
from repro.experiments.base import Profile
from repro.tuning import Candidate, TuningReport, TuningSpec, recommend
from tests.conftest import small_config

TINY = Profile(settle_accesses=20, measure_accesses=60, replicates=1,
               base_seed=2)


class TestTuningSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuningSpec(loads=())
        with pytest.raises(ValueError):
            TuningSpec(objective="median")
        with pytest.raises(ValueError):
            TuningSpec(pull_bw_grid=())


class TestCandidate:
    def test_aggregates(self):
        candidate = Candidate(0.5, 0.25, 0, (10.0, 30.0))
        assert candidate.worst_case == 30.0
        assert candidate.mean == 20.0

    def test_describe(self):
        assert "PullBW=50%" in Candidate(0.5, 0.25, 0, (1.0,)).describe()
        assert "chop=100" in Candidate(0.5, 0.25, 100, (1.0,)).describe()
        assert "chop" not in Candidate(0.5, 0.25, 0, (1.0,)).describe()


class TestRecommend:
    def spec(self):
        return TuningSpec(loads=(2.0, 30.0), pull_bw_grid=(0.3, 0.5),
                          thresh_grid=(0.0, 0.5), chop_grid=(0,))

    def test_requires_ipp(self):
        with pytest.raises(ValueError, match="IPP"):
            recommend(small_config(Algorithm.PURE_PULL), self.spec(), TINY)

    def test_covers_the_grid(self):
        report = recommend(small_config(), self.spec(), TINY)
        assert len(report.candidates) == 4
        settings = {(c.pull_bw, c.thresh_perc) for c in report.candidates}
        assert settings == {(0.3, 0.0), (0.3, 0.5), (0.5, 0.0), (0.5, 0.5)}

    def test_sorted_by_worst_case(self):
        report = recommend(small_config(), self.spec(), TINY)
        worsts = [c.worst_case for c in report.candidates]
        assert worsts == sorted(worsts)

    def test_mean_objective(self):
        spec = TuningSpec(loads=(2.0, 30.0), pull_bw_grid=(0.3, 0.5),
                          thresh_grid=(0.0, 0.5), objective="mean")
        report = recommend(small_config(), spec, TINY)
        means = [c.mean for c in report.candidates]
        assert means == sorted(means)

    def test_light_load_only_tuning_rejects_thresholds(self):
        """At light load thresholds only constrain clients (§4.2), so a
        tuning sweep restricted to light loads must recommend ThresPerc=0.
        (The converse — wide ranges favouring thresholds — shows at paper
        scale; the miniature system's short cycle caps saturation RTs at
        noise level, see the full-scale tuning bench.)"""
        spec = TuningSpec(loads=(2.0,), pull_bw_grid=(0.5,),
                          thresh_grid=(0.0, 0.5))
        report = recommend(small_config(), spec, TINY)
        assert report.best.thresh_perc == 0.0

    def test_report_format(self):
        report = recommend(small_config(), self.spec(), TINY)
        text = report.format()
        assert "recommended (worst_case)" in text
        assert "TTR 2" in text and "TTR 30" in text

    def test_bad_grid_value_rejected_before_any_run(self, monkeypatch):
        import repro.experiments.base as base

        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(base, "run_sweep", no_runs)
        spec = TuningSpec(loads=(2.0,), pull_bw_grid=(0.5, 1.5))
        with pytest.raises(ValueError, match="^server.pull_bw "):
            recommend(small_config(), spec, TINY)

    def test_empty_report_best_raises(self):
        with pytest.raises(ValueError):
            TuningReport(self.spec()).best

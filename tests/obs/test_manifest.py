"""Run/sweep provenance manifests."""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.experiments.base import Profile
from repro.obs.manifest import (
    MANIFEST_VERSION,
    config_from_dict,
    config_to_dict,
    diff_manifests,
    package_version,
    run_manifest,
    sweep_manifest,
)
from tests.config_strategies import system_configs
from tests.conftest import small_config


class TestConfigToDict:
    def test_flattens_enums(self):
        config = small_config(Algorithm.IPP)
        data = config_to_dict(config)
        assert data["algorithm"] == "ipp"
        json.dumps(data, allow_nan=False)  # strict JSON end to end

    def test_rejects_non_dataclass(self):
        with pytest.raises(TypeError):
            config_to_dict({"not": "a dataclass"})


class TestConfigRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(drawn=system_configs(broken_fields=0), via_json=st.booleans())
    def test_from_dict_inverts_to_dict(self, drawn, via_json):
        algorithm, updates, _ = drawn
        try:
            config = SystemConfig(algorithm=algorithm).with_(**updates)
        except ValueError:
            assume(False)  # a cross-field rule (chop x Pure-Push, ...)
        data = config_to_dict(config)
        if via_json:
            data = json.loads(json.dumps(data))
        assert config_from_dict(data) == config

    def test_a_missing_section_takes_defaults(self):
        # Manifests written before the fleet / scheduler existed.
        data = config_to_dict(SystemConfig())
        del data["fleet"], data["scheduler"]
        assert config_from_dict(data) == SystemConfig()

    def test_an_invalid_value_is_rejected_not_defaulted(self):
        data = config_to_dict(SystemConfig())
        data["scheduler"]["discipline"] = "lifo"
        with pytest.raises(ValueError):
            config_from_dict(data)


class TestRunManifest:
    def test_contains_provenance_fields(self):
        config = small_config(Algorithm.PURE_PULL)
        manifest = run_manifest(config, "fast", elapsed_seconds=1.25)
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["engine"] == "fast"
        assert manifest["seed"] == config.run.seed
        assert manifest["package_version"] == package_version()
        assert manifest["elapsed_seconds"] == 1.25
        assert manifest["config"]["algorithm"] == "pure-pull"
        assert "python_version" in manifest
        assert "numpy_version" in manifest
        assert manifest["created_utc"].endswith("+00:00")
        json.dumps(manifest, allow_nan=False)

    def test_elapsed_optional(self):
        manifest = run_manifest(small_config(), "reference")
        assert "elapsed_seconds" not in manifest
        assert manifest["engine"] == "reference"


class TestSweepManifest:
    def test_profile_is_the_config(self):
        profile = Profile(settle_accesses=10, measure_accesses=20,
                          replicates=2, base_seed=99)
        manifest = sweep_manifest(profile)
        assert manifest["seed"] == 99
        assert manifest["config"]["measure_accesses"] == 20
        assert manifest["engine"] == "fast"
        json.dumps(manifest, allow_nan=False)


class TestDiffManifests:
    def test_identical_manifests_diff_empty(self):
        manifest = sweep_manifest(Profile(settle_accesses=1,
                                          measure_accesses=2, replicates=1))
        assert diff_manifests(manifest, dict(manifest)) == {}

    def test_ephemeral_keys_ignored(self):
        left = {"created_utc": "2026-01-01", "elapsed_seconds": 1.0,
                "engine": "fast"}
        right = {"created_utc": "2026-02-02", "elapsed_seconds": 9.0,
                 "engine": "fast"}
        assert diff_manifests(left, right) == {}

    def test_nested_config_uses_dotted_keys(self):
        left = {"config": {"server": {"pull_bw": 0.5}}, "seed": 42}
        right = {"config": {"server": {"pull_bw": 0.3}}, "seed": 42}
        assert diff_manifests(left, right) == {
            "config.server.pull_bw": (0.5, 0.3)}

    def test_one_sided_keys_pair_with_none(self):
        assert diff_manifests({"engine": "fast"}, {}) == {
            "engine": ("fast", None)}
        assert diff_manifests(None, {"engine": "fast"}) == {
            "engine": (None, "fast")}

    def test_none_manifests_are_empty(self):
        """v1 archives carry no manifest at all."""
        assert diff_manifests(None, None) == {}

    def test_version_delta_surfaces(self):
        left = run_manifest(small_config(), "fast")
        right = dict(left, package_version="99.0.0")
        assert diff_manifests(left, right) == {
            "package_version": (left["package_version"], "99.0.0")}


class TestEngineStamping:
    def test_fast_engine_stamps_manifest(self, pull_config):
        from repro.core.fast import FastEngine

        result = FastEngine(pull_config).run()
        assert result.manifest is not None
        assert result.manifest["engine"] == "fast"
        assert result.manifest["seed"] == pull_config.run.seed
        assert result.manifest["elapsed_seconds"] > 0.0
        assert result.manifest["config"]["server"]["queue_size"] == \
            pull_config.server.queue_size

    def test_reference_engine_stamps_manifest(self, pull_config):
        from repro.core.simulation import ReferenceEngine

        result = ReferenceEngine(pull_config).run()
        assert result.manifest is not None
        assert result.manifest["engine"] == "reference"

    def test_manifest_excluded_from_equality(self, pull_config):
        from dataclasses import replace

        from repro.core.fast import FastEngine

        first = FastEngine(pull_config).run()
        second = replace(first, manifest={"other": "stamp"})
        assert first == second

    def test_result_dict_remains_json(self, pull_config):
        from repro.core.fast import FastEngine

        result = FastEngine(pull_config).run()
        text = json.dumps(result.to_dict(), allow_nan=False)
        assert json.loads(text)["manifest"]["engine"] == "fast"

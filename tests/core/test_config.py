"""Unit tests for configuration dataclasses (Tables 1-3)."""

import math

import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import (
    PAPER_SETTINGS,
    ClientConfig,
    RunConfig,
    ServerConfig,
    SystemConfig,
)
from repro.obs.manifest import config_from_dict, config_to_dict


class TestClientConfig:
    def test_paper_defaults(self):
        client = ClientConfig()
        assert client.cache_size == 100
        assert client.think_time == 20.0
        assert client.steady_state_perc == 0.95
        assert client.zipf_theta == 0.95

    @pytest.mark.parametrize("field,value", [
        ("cache_size", -1),
        ("think_time", 0.0),
        ("think_time_ratio", 0.0),
        ("steady_state_perc", 1.5),
        ("noise", -0.2),
        ("zipf_theta", -1.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ClientConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "think_time", "think_time_ratio", "zipf_theta"])
    def test_non_finite_rejected_naming_the_field(self, field, value):
        # Accepted before, then failing inside numpy at run or build time.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SystemConfig().with_(**{f"client__{field}": value})
        data = config_to_dict(SystemConfig())
        data["client"][field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            config_from_dict(data)


class TestServerConfig:
    def test_paper_defaults(self):
        server = ServerConfig()
        assert server.db_size == 1000
        assert server.disk_sizes == (100, 400, 500)
        assert server.rel_freqs == (3, 2, 1)
        assert server.queue_size == 100
        assert server.offset is True

    def test_disk_sizes_must_sum_to_db(self):
        with pytest.raises(ValueError, match="sum"):
            ServerConfig(db_size=1000, disk_sizes=(100, 400, 400))

    def test_disks_and_freqs_must_align(self):
        with pytest.raises(ValueError, match="align"):
            ServerConfig(disk_sizes=(500, 500), rel_freqs=(3, 2, 1))

    @pytest.mark.parametrize("field,value", [
        ("queue_size", 0),
        ("pull_bw", 1.2),
        ("thresh_perc", -0.1),
        ("chop", 1000),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ServerConfig(**{field: value})


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(settle_accesses=-1)
        with pytest.raises(ValueError):
            RunConfig(measure_accesses=0)
        with pytest.raises(ValueError):
            RunConfig(max_slots=0)


class TestSystemConfig:
    def test_pure_push_cannot_chop(self):
        with pytest.raises(ValueError, match="chop"):
            SystemConfig(algorithm=Algorithm.PURE_PUSH,
                         server=ServerConfig(chop=100))

    def test_cache_must_fit_on_slowest_disk(self):
        with pytest.raises(ValueError, match="slowest disk"):
            SystemConfig(client=ClientConfig(cache_size=600))

    def test_effective_pull_bw_per_algorithm(self):
        assert SystemConfig(algorithm=Algorithm.PURE_PUSH).pull_bw == 0.0
        assert SystemConfig(algorithm=Algorithm.PURE_PULL).pull_bw == 1.0
        ipp = SystemConfig(algorithm=Algorithm.IPP,
                           server=ServerConfig(pull_bw=0.3))
        assert ipp.pull_bw == 0.3

    def test_effective_thresh_perc_only_for_ipp(self):
        base = ServerConfig(thresh_perc=0.25)
        assert SystemConfig(algorithm=Algorithm.IPP,
                            server=base).thresh_perc == 0.25
        assert SystemConfig(algorithm=Algorithm.PURE_PULL,
                            server=base).thresh_perc == 0.0

    def test_with_updates_nested_fields(self):
        config = SystemConfig()
        updated = config.with_(client__think_time_ratio=250,
                               server__pull_bw=0.1,
                               run__seed=99)
        assert updated.client.think_time_ratio == 250
        assert updated.server.pull_bw == 0.1
        assert updated.run.seed == 99
        # Original untouched (frozen dataclasses).
        assert config.client.think_time_ratio == 10.0

    def test_with_top_level_field(self):
        config = SystemConfig().with_(algorithm=Algorithm.PURE_PULL)
        assert config.algorithm is Algorithm.PURE_PULL

    def test_with_unknown_section_rejected(self):
        with pytest.raises(TypeError):
            SystemConfig().with_(bogus__field=1)

    def test_with_revalidates(self):
        with pytest.raises(ValueError):
            SystemConfig().with_(client__cache_size=600)


class TestPaperSettings:
    def test_table3_values(self):
        assert PAPER_SETTINGS["ThinkTimeRatio"] == (10, 25, 50, 100, 250)
        assert PAPER_SETTINGS["PullBW"] == (0.10, 0.20, 0.30, 0.40, 0.50)
        assert PAPER_SETTINGS["ThresPerc"] == (0.0, 0.10, 0.25, 0.35)
        assert PAPER_SETTINGS["DiskSizes"] == ((100, 400, 500),)

    def test_defaults_agree_with_table3(self):
        config = SystemConfig()
        assert config.client.cache_size in PAPER_SETTINGS["CacheSize"]
        assert config.server.queue_size in PAPER_SETTINGS["ServerQSize"]
        assert config.server.rel_freqs in PAPER_SETTINGS["RelFreqs"]

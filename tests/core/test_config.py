"""Unit tests for configuration dataclasses (Tables 1-3)."""

import math
import re
from dataclasses import MISSING, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import Algorithm
from repro.core.build import build_system
from repro.core.config import (
    PAPER_SETTINGS,
    ClientConfig,
    Domain,
    ServerConfig,
    SystemConfig,
    config_field,
)
from repro.obs.manifest import config_from_dict, config_to_dict
from tests.config_strategies import (
    FIELDS,
    SETTINGS,
    SETTINGS_FIELDS,
    SYSTEM_FIELDS,
    constructible,
    illegal,
)


def assert_rejected(dotted, value, says="must be "):
    """``dotted = value`` is rejected by the section's constructor, by
    ``SystemConfig.with_`` and by ``config_from_dict``, each time with a
    message starting ``dotted`` and ``says``."""
    section, name = dotted.split(".")
    pattern = f"^{re.escape(dotted)} {says}"
    with pytest.raises(ValueError, match=pattern):
        type(getattr(SystemConfig(), section))(**{name: value})
    with pytest.raises(ValueError, match=pattern):
        SystemConfig().with_(**{f"{section}__{name}": value})
    data = config_to_dict(SystemConfig())
    data[section][name] = value
    with pytest.raises(ValueError, match=pattern):
        config_from_dict(data)


#: Out-of-domain values probed before each field declared its domain: all
#: but ``server.pull_bw = "0.5"`` (a bare TypeError) were accepted, then
#: spun the settle phase to the ``max_slots`` guard, ran a fleet of NaN
#: statistics, read "no" as true, or died inside numpy naming no field.
PROBED = [
    ("run.settle_accesses", math.nan), ("run.measure_accesses", math.nan),
    ("fleet.think_time", math.nan), ("fleet.think_time", math.inf),
    ("server.offset", "no"), ("run.seed", -1),
    ("client.cache_size", 2.5), ("fleet.num_clients", 2.5),
    ("server.pull_bw", "0.5"), ("run.max_slots", math.nan),
    ("run.vc_closed_loop", 1), ("server.queue_size", 2.5),
    ("server.chop", 1.5), ("server.disk_sizes", (100.5, 399.5, 500)),
    ("server.rel_freqs", (3, 2, 1.5)), ("fleet.cache_size", math.nan),
    ("scheduler.reprogram_min_requests", 2.5), ("scheduler.aging", True),
]


class TestDomains:
    @pytest.mark.parametrize("dotted,value", PROBED,
                             ids=[f"{d}={v!r}" for d, v in PROBED])
    def test_probed_value_rejected_naming_the_field(self, dotted, value):
        assert_rejected(dotted, value)

    def test_every_field_of_every_section_declares_a_domain(self):
        # A field added without one fails here (and at every construction);
        # FIELDS covers the SystemConfig sections and the SETTINGS classes.
        for dotted in FIELDS:
            spec = config_field(dotted)
            domain = spec.metadata.get("domain")
            assert isinstance(domain, Domain), dotted
            assert spec.default is MISSING or domain.admits(spec.default), \
                dotted
            kind = domain.kind.__name__
            if domain.each:
                kind = f"tuple[{kind}, ...]"
            if domain.optional:
                kind = f"Optional[{kind}]"
            assert spec.type == kind, dotted

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dotted=st.sampled_from(SYSTEM_FIELDS))
    def test_an_illegal_value_is_rejected_naming_its_field(self, data,
                                                           dotted):
        value = data.draw(illegal(dotted))
        section, name = dotted.split(".")
        with pytest.raises(ValueError, match=f"^{re.escape(dotted)} "):
            SystemConfig().with_(**{f"{section}__{name}": value})

    @pytest.mark.parametrize("dotted,value,message", [
        ("client.think_time", math.nan, "finite and > 0, got nan"),
        ("client.noise", 2.0, "within [0, 1], got 2.0"),
        ("fleet.think_time_spread", 1.0, "within [0, 1), got 1.0"),
        ("run.seed", -1, "an int >= 0, got -1"),
        ("server.offset", "no", "a bool, got 'no'"),
        ("scheduler.discipline", "lifo",
         "one of 'fifo', 'rxw', 'lwf', got 'lifo'"),
        ("server.rel_freqs", (3, 0),
         "a tuple whose every element is an int >= 1, got (3, 0)"),
    ])
    def test_message_states_the_domain(self, dotted, value, message):
        section, name = dotted.split(".")
        with pytest.raises(ValueError) as excinfo:
            SystemConfig().with_(**{f"{section}__{name}": value})
        assert str(excinfo.value) == f"{dotted} must be {message}"

    def test_values_are_stored_as_given(self):
        config = SystemConfig().with_(client__think_time_ratio=250,
                                      server__pull_bw=1)
        assert type(config.client.think_time_ratio) is int
        assert type(config.server.pull_bw) is int


#: Values each settings class outside SystemConfig accepted before its
#: fields declared a domain, or failed on later with a traceback (a zero
#: self-test think time divided by zero in ``equivalent_ttr``).
SETTINGS_PROBED = [
    ("serve.slot_duration", math.nan), ("serve.slot_duration", math.inf),
    ("serve.send_queue_frames", 2.5), ("serve.port", 99999),
    ("loadgen.think_time", math.nan), ("loadgen.num_clients", 1.5),
    ("selftest.think_time", 0), ("selftest.slot_duration", 0),
    ("selftest.timeout_factor", -1),
    ("adaptive.interval", math.nan), ("serve.max_slots", 0),
    ("adaptive.thresh_step", -0.05), ("adaptive.pull_bw_step", math.nan),
    ("profile.workers", 0), ("profile.workers", -3),
    ("loadgen.duration", math.nan), ("loadgen.duration", -5.0),
    ("compare.alpha", math.nan), ("compare.alpha", 1.0),
    ("compare.tolerance", math.nan), ("compare.tolerance", -1e-9),
]


def _vary(dotted, value):
    """The dotted field's SETTINGS base with the field set to ``value``."""
    prefix, name = dotted.split(".")
    return replace(SETTINGS[prefix], **{name: value})


class TestSettingsDomains:
    """The settings outside SystemConfig: server, load generator,
    self-test, sweep profile, adaptive policy and compare thresholds."""

    def test_the_classes_are_the_settings_of_their_prefix(self):
        from repro.core.adaptive import AdaptivePolicy
        from repro.experiments.base import Profile
        from repro.experiments.compare import CompareSettings
        from repro.net.client import FleetSettings
        from repro.net.selftest import SelfTestSettings
        from repro.net.server import NetServerSettings

        assert {prefix: type(base) for prefix, base in SETTINGS.items()} == {
            "serve": NetServerSettings, "loadgen": FleetSettings,
            "selftest": SelfTestSettings, "profile": Profile,
            "adaptive": AdaptivePolicy, "compare": CompareSettings}

    @pytest.mark.parametrize("dotted,value", SETTINGS_PROBED,
                             ids=[f"{d}={v!r}" for d, v in SETTINGS_PROBED])
    def test_probed_value_rejected_naming_the_field(self, dotted, value):
        with pytest.raises(ValueError, match=f"^{re.escape(dotted)} must be "):
            _vary(dotted, value)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dotted=st.sampled_from(SETTINGS_FIELDS))
    def test_illegal_rejected_naming_the_field_and_legal_constructs(
            self, data, dotted):
        with pytest.raises(ValueError, match=f"^{re.escape(dotted)} "):
            _vary(dotted, data.draw(illegal(dotted)))
        value = data.draw(constructible(dotted))
        assert getattr(_vary(dotted, value), dotted.split(".")[1]) == value

    @pytest.mark.parametrize("dotted,value,message", [
        ("serve.port", 99999, "must be an int within [0, 65535], got 99999"),
        ("serve.max_slots", 0, "must be None or an int >= 1, got 0"),
        ("selftest.profile", None, "must be a Profile, got None"),
        ("adaptive.low_drop", 0.5,
         "must be <= adaptive.high_drop 0.1, got 0.5"),
        ("selftest.pull_bws", (), "must be non-empty"),
    ])
    def test_message(self, dotted, value, message):
        with pytest.raises(ValueError) as excinfo:
            _vary(dotted, value)
        assert str(excinfo.value) == f"{dotted} {message}"


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
        assert_rejected(f"client.{field}", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "think_time", "think_time_ratio", "zipf_theta"])
    def test_non_finite_rejected_naming_the_field(self, field, value):
        # Accepted before, then failing inside numpy at run or build time.
        assert_rejected(f"client.{field}", value, says="must be finite")


class TestServerConfig:
    def test_paper_defaults(self):
        server = ServerConfig()
        assert server.db_size == 1000
        assert server.disk_sizes == (100, 400, 500)
        assert server.rel_freqs == (3, 2, 1)
        assert server.queue_size == 100
        assert server.offset is True

    def test_disk_sizes_must_sum_to_db(self):
        with pytest.raises(ValueError,
                           match="^server.disk_sizes must sum to server"):
            ServerConfig(db_size=1000, disk_sizes=(100, 400, 400))

    def test_disks_and_freqs_must_align(self):
        with pytest.raises(ValueError, match="^server.disk_sizes and "
                                             "server.rel_freqs must align"):
            ServerConfig(disk_sizes=(500, 500), rel_freqs=(3, 2, 1))

    @pytest.mark.parametrize("field,value", [
        ("queue_size", 0),
        ("pull_bw", 1.2),
        ("thresh_perc", -0.1),
        ("chop", 1000),
    ])
    def test_validation(self, field, value):
        assert_rejected(f"server.{field}", value)


class TestRunConfig:
    def test_validation(self):
        assert_rejected("run.settle_accesses", -1)
        assert_rejected("run.measure_accesses", 0)
        assert_rejected("run.max_slots", 0)


class TestSystemConfig:
    def test_pure_push_cannot_chop(self):
        with pytest.raises(ValueError, match="^server.chop must be 0"):
            SystemConfig(algorithm=Algorithm.PURE_PUSH,
                         server=ServerConfig(chop=100))

    def test_cache_must_fit_on_slowest_disk(self):
        with pytest.raises(ValueError,
                           match="^client.cache_size must fit on the slowest disk"):
            SystemConfig(client=ClientConfig(cache_size=600))

    def test_a_single_disk_cache_leaves_a_page_uncached(self):
        """The one disk is the whole database: a cache of all of it was
        accepted here, then refused by the Offset transform at build."""
        server = ServerConfig(db_size=20, disk_sizes=(20,), rel_freqs=(1,))
        with pytest.raises(ValueError, match="^client.cache_size"):
            SystemConfig(server=server, client=ClientConfig(cache_size=20))
        build_system(SystemConfig(server=server,
                                  client=ClientConfig(cache_size=19)))

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

    def test_with_shorthand_applies_on_top_of_a_given_section(self):
        """Regression: ``with_(client=c, client__noise=...)`` silently
        replaced ``c`` by the default client."""
        config = SystemConfig().with_(client=ClientConfig(cache_size=5),
                                      client__noise=0.15)
        assert config.client == ClientConfig(cache_size=5, noise=0.15)

    def test_with_reaches_every_section(self):
        updates = {dotted.replace(".", "__"): config_field(dotted).default
                   for dotted in SYSTEM_FIELDS}
        assert SystemConfig().with_(**updates) == SystemConfig()

    def test_with_unknown_section_rejected(self):
        with pytest.raises(TypeError):
            SystemConfig().with_(bogus__field=1)

    def test_with_revalidates(self):
        with pytest.raises(ValueError):
            SystemConfig().with_(client__cache_size=600)

    @pytest.mark.parametrize("value", ["bogus", "pure-push", "IPP", None])
    def test_algorithm_rejects_a_non_member_in_one_line(self, value):
        message = ("algorithm must be one of Algorithm.PURE_PUSH, "
                   f"Algorithm.PURE_PULL, Algorithm.IPP, got {value!r}")
        for build in (SystemConfig, SystemConfig().with_):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(algorithm=value)


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

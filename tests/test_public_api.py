"""The public API surface: exports resolve and the figure registry is
complete."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.broadcast",
    "repro.workload",
    "repro.cache",
    "repro.server",
    "repro.client",
    "repro.core",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
    "repro.net",
    "repro.fleet",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert module.__all__, f"{package} exports nothing"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_top_level_quickstart_names(self):
        import repro

        for name in ("Algorithm", "SystemConfig", "simulate",
                     "simulate_warmup", "FastEngine", "ReferenceEngine"):
            assert name in repro.__all__

    def test_sim_kernel_is_only_what_the_reference_engine_uses(self):
        import repro.sim
        import repro.sim.core
        import repro.sim.process

        assert sorted(repro.sim.__all__) == [
            "Environment", "Event", "Process", "SimulationError", "Tally",
            "Timeout"]
        for module, gone in ((repro.sim.core, ("AnyOf", "AllOf")),
                             (repro.sim.process, ("Interrupt",))):
            for name in gone:
                assert not hasattr(module, name)
        assert not hasattr(repro.sim.Process, "interrupt")
        assert not hasattr(repro.sim.Environment, "any_of")

    def test_a_trace_is_only_a_structured_array(self):
        import repro.obs
        import repro.obs.columnar
        import repro.obs.metrics
        import repro.obs.requests
        import repro.obs.trace

        gone = ("TraceSink", "NullSink", "MemorySink", "SlotRecord",
                "records_to_array", "array_to_records", "breakdown_of",
                "NULL_REGISTRY")
        for module in (repro.obs, repro.obs.trace, repro.obs.columnar,
                       repro.obs.requests, repro.obs.metrics):
            for name in gone:
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(repro.obs.metrics, "_NullInstrument")
        assert not hasattr(repro.obs.MetricsRegistry(), "enabled")
        for tracer in (repro.obs.SlotTracer, repro.obs.RequestTracer):
            assert "metrics" not in inspect.signature(tracer).parameters
        sink = inspect.signature(repro.obs.ColumnarSink).parameters
        assert sink["table"].kind is inspect.Parameter.KEYWORD_ONLY
        assert sink["table"].default is inspect.Parameter.empty
        assert "capacity" not in sink

    def test_removed_names_stay_gone(self):
        """Public names deleted because nothing outside their own tests
        called them."""
        import repro.broadcast
        from repro.broadcast.program import DiskAssignment
        from repro.cache.base import Cache
        from repro.client.measured import MeasuredClient
        from repro.server.queue import BoundedRequestQueue

        absent = {
            repro.broadcast: ("assignment_to_dict", "assignment_from_dict",
                              "schedule_to_dict", "schedule_from_dict"),
            BoundedRequestQueue: ("distinct_offers",),
            Cache: ("warm_fraction",),
            MeasuredClient: ("miss_rate",),
            DiskAssignment: ("disk_of",),
        }
        for owner, names in absent.items():
            for name in names:
                assert not hasattr(owner, name), (owner, name)
        with pytest.raises(ImportError):
            importlib.import_module("repro.broadcast.serialization")

    def test_lix_is_gone(self):
        """LIX ran in no row answering a paper claim and lost the only
        one that ran it; its policy, module and config value are gone."""
        import repro.cache

        assert not hasattr(repro.cache, "LixPolicy")
        assert "LixPolicy" not in repro.cache.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.cache.lix")

    def test_telemetry_has_no_registry_mirrors(self):
        """A number a component counts is read from its own snapshot: the
        adapters that mirrored server and fleet counters into a registry,
        the reset-aware mirror counter, gauges and the reader of a
        histogram snapshot's buckets are gone."""
        from pathlib import Path

        import repro
        import repro.fleet
        import repro.obs
        import repro.obs.metrics
        from repro.net.client import ClientFleet
        from repro.obs.metrics import Counter, MetricsRegistry
        from repro.obs.requests import RequestRecord

        for module in ("repro.obs.server_metrics", "repro.fleet.metrics",
                       "repro.obs.profile", "repro.obs.dashboard"):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        absent = {
            repro.obs: ("Gauge", "ServerMetricsAdapter",
                        "bind_server_metrics",
                        "quantiles_from_bucket_snapshot"),
            repro.fleet: ("FleetMetricsAdapter", "bind_fleet_metrics"),
            repro.obs.metrics: ("Gauge",),
            Counter: ("advance_to",),
            MetricsRegistry: ("gauge", "render", "names", "__contains__",
                              "__len__"),
            RequestRecord: ("to_dict",),
        }
        for owner, names in absent.items():
            for name in names:
                assert not hasattr(owner, name), (owner, name)
        assert "registry" not in inspect.signature(ClientFleet).parameters
        for path in Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text()
            for name in ("advance_to", "Gauge",
                         "quantiles_from_bucket_snapshot"):
                assert name not in text, (path, name)

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestFigureRegistry:
    def test_covers_every_paper_figure(self):
        from repro.experiments import FIGURES

        assert list(FIGURES) == [
            "3a", "3b", "4a", "4b", "5a", "5b", "6a", "6b", "7a", "7b", "8"]
        assert all(spec.figure_id == fig_id
                   for fig_id, spec in FIGURES.items())

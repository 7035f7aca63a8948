"""The public API surface: exports resolve and the figure registry is
complete."""

import importlib

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
    "repro.lint",
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

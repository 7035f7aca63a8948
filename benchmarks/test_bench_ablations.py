"""The adaptive-control ablation: the future-work controller (§6)
against static IPP at both ends of the load axis.

It stays a hand loop: the controller is an engine argument, not a config
field, so a figure row cannot set it.  The §6 parameter-setting point is
the worst-case claims on figures 6a / 6b.  The cache-policy (§2.1's
cost-based replacement) and push-program (§3.2's Offset, the
square-root-rule split, a flat broadcast) ablations are
:data:`~repro.experiments.figures.EXTENSIONS` rows with claims, run at
``PUSH_BENCH`` by ``test_bench_figures.py``.
"""

from benchmarks.conftest import BENCH, run_once
from repro.core.algorithms import Algorithm
from repro.core.adaptive import AdaptiveController, AdaptivePolicy
from repro.core.config import SystemConfig
from repro.core.fast import FastEngine
from repro.experiments.base import run_replicated


def test_adaptive_controller_ablation(benchmark, results_dir):
    """The §6 adaptive controller tracks the better static setting on
    both ends of the load axis."""

    def sweep():
        rows = {}
        for ttr in (10, 250):
            base = SystemConfig(algorithm=Algorithm.IPP).with_(
                client__think_time_ratio=ttr, server__pull_bw=0.50)
            static = run_replicated(base, BENCH).mean
            config = BENCH.apply(base, BENCH.base_seed)
            controller = AdaptiveController(
                AdaptivePolicy(interval=2000, high_drop=0.05),
                pull_bw=0.50, thresh_perc=0.0)
            adaptive = FastEngine(
                config, controller=controller).run().response_miss.mean
            rows[ttr] = (static, adaptive)
        return rows

    rows = run_once(benchmark, sweep)
    lines = [f"TTR={ttr:>4}: static={static:8.1f}  adaptive={adaptive:8.1f}"
             for ttr, (static, adaptive) in rows.items()]
    report = "Adaptive control ablation (IPP PullBW=50%):\n" + "\n".join(lines)
    (results_dir / "ablation_adaptive.txt").write_text(report + "\n")
    print(f"\n{report}\n")

    light_static, light_adaptive = rows[10]
    heavy_static, heavy_adaptive = rows[250]
    # At light load the controller must not break responsiveness badly...
    assert light_adaptive < 100
    # ...and under saturation it must improve on the static setting.
    assert heavy_adaptive < heavy_static

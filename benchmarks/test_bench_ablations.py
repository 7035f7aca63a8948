"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper, but direct tests of its design arguments:

- **Tuning** — the §6 parameter-setting advisor across the load range.
- **Adaptive control** — the future-work controller (§6) against static
  IPP across the load axis.  It stays a hand loop: the controller is an
  engine argument, not a config field, so a figure row cannot set it.

The cache-policy (§2.1's cost-based replacement) and push-program
(§3.2's Offset, the square-root-rule split, a flat broadcast) ablations
are :data:`~repro.experiments.figures.EXTENSIONS` rows with claims, run
at ``PUSH_BENCH`` by ``test_bench_figures.py``.
"""

from benchmarks.conftest import BENCH, run_once
from repro.core.algorithms import Algorithm
from repro.core.adaptive import AdaptiveController, AdaptivePolicy
from repro.core.config import SystemConfig
from repro.core.fast import FastEngine
from repro.experiments.base import run_replicated


def test_tuning_advisor(benchmark, results_dir):
    """The §6 parameter-setting tool at full scale: tuned for a wide load
    range, the advisor must pick a non-zero threshold (flooding the
    backchannel loses the worst-case objective once saturation is in
    range), matching Section 4.4's consistency argument."""
    from repro.tuning import TuningSpec, recommend

    spec = TuningSpec(loads=(10.0, 75.0, 250.0),
                      pull_bw_grid=(0.30, 0.50),
                      thresh_grid=(0.0, 0.35))

    report = run_once(
        benchmark,
        lambda: recommend(SystemConfig(algorithm=Algorithm.IPP), spec,
                          BENCH))
    text = report.format()
    (results_dir / "ablation_tuning.txt").write_text(text + "\n")
    print(f"\n{text}\n")

    assert report.best.thresh_perc > 0.0
    # Ranking is coherent: best worst-case really is the minimum.
    assert report.best.worst_case == min(
        c.worst_case for c in report.candidates)


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

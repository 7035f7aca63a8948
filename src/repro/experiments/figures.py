"""The paper's eleven figures as data, and the one function that runs them.

Every figure of Section 4 is the same experiment: a grid of
:class:`~repro.core.config.SystemConfig` along one axis, one curve per
*series*, each point replicated and reduced to a mean.  A
:class:`FigureSpec` states that grid — which ``with_`` key the x value
sets, the x values, and per series the algorithm and the overrides that
distinguish it — and :func:`run_figure` turns any spec into a
:class:`~repro.experiments.base.FigureResult` with a single sweep, so a
process pool is spawned once per figure and never idles between series.

- Experiment 1, basic push/pull tradeoffs (Section 4.1): steady state
  (3a, 3b), cache warm-up time (4a, 4b), Noise sensitivity (5a, 5b);
- Experiment 2, thresholds for backchannel conservation (Section 4.2):
  6a, 6b — each threshold step moves the crossover with Pure-Push to a
  larger client population;
- Experiment 3, restricting the push schedule (Section 4.3): 7a, 7b chop
  pages off the slow end of the broadcast at a fixed load, 8 sweeps the
  load for several chop depths and shows their ordering inverting as the
  server saturates.

:meth:`FigureSpec.config` answers "which system is series S at x?" for
*any* x, not only grid points — what a crossover search between two
series needs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.client.measured import WARMUP_LEVELS
from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.experiments.base import (
    FigureResult,
    FigureSeries,
    PAPER_TTRS,
    PointStats,
    Profile,
    point_stats,
    run_points,
)
from repro.obs.manifest import sweep_manifest

__all__ = ["SeriesSpec", "FigureSpec", "FIGURES", "run_figure"]


@dataclass(frozen=True)
class SeriesSpec:
    """One curve of a figure: an algorithm plus what sets it apart."""

    label: str
    algorithm: Algorithm
    #: ``SystemConfig.with_`` overrides shared by every point of the curve.
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: A reference line (Pure-Push, or Pure-Pull over a push-program
    #: axis) that does not depend on x: run once, repeated along the axis.
    flat: bool = False


@dataclass(frozen=True)
class FigureSpec:
    """One of the paper's figures: axes, x grid and series."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    #: The ``SystemConfig.with_`` key the x value sets; None for the
    #: warm-up figures, whose x axis (cache warm-up %) is measured by a
    #: warm-up run rather than set.
    x_key: Optional[str]
    xs: tuple[float, ...]
    series: tuple[SeriesSpec, ...]
    #: The ``(series label, x)`` coordinate ``trace`` / ``profile`` /
    #: ``sanitize --figure`` stand on: one point of this figure's own
    #: grid that exercises its characteristic behaviour.
    representative: tuple[str, float]

    @property
    def warmup(self) -> bool:
        """Whether the figure plots warm-up times (vs steady-state)."""
        return self.x_key is None

    def config(self, label: str, x: float) -> SystemConfig:
        """The system that series ``label`` simulates at ``x``."""
        [series] = [s for s in self.series if s.label == label]
        overrides = dict(series.overrides)
        if self.x_key is not None and not series.flat:
            overrides[self.x_key] = x
        return SystemConfig(algorithm=series.algorithm).with_(**overrides)

    def representative_config(self) -> SystemConfig:
        """The system at the figure's :attr:`representative` point."""
        return self.config(*self.representative)


def _crossing_times(label: str, results: Sequence[RunResult]) -> FigureSeries:
    """One warm-up curve: per-level crossing-time means over replicates.

    A level no replicate crossed (a run capped by ``max_slots``) is left
    off the curve.
    """
    xs: list[float] = []
    points: list[PointStats] = []
    for level in WARMUP_LEVELS:
        times = [r.warmup_times[level] for r in results
                 if r.warmup_times is not None and level in r.warmup_times]
        if not times:
            continue
        xs.append(level * 100.0)
        points.append(PointStats(
            mean=statistics.fmean(times),
            stddev=(statistics.stdev(times) if len(times) > 1 else 0.0),
            replicates=len(times),
            drop_rate=statistics.fmean(r.drop_rate for r in results),
        ))
    return FigureSeries(label=label, x=xs, points=points)


def run_figure(spec: FigureSpec, profile: Profile) -> FigureResult:
    """Regenerate ``spec`` at ``profile``'s scale, in one sweep.

    Every ``(series, x)`` point of every series — one point for a flat
    series or a warm-up curve — times ``profile.replicates`` goes into a
    single :func:`~repro.experiments.base.run_sweep`, so an observer
    installed with :func:`~repro.experiments.base.sweep_progress` is told
    the figure's whole run count up front.
    """
    plan = [(series, [spec.config(series.label, x)
                      for x in (spec.xs[:1] if series.flat or spec.warmup
                                else spec.xs)])
            for series in spec.series]
    runs = iter(run_points([config for _, configs in plan
                            for config in configs],
                           profile, warmup=spec.warmup, label=spec.title))
    curves = []
    for series, configs in plan:
        if spec.warmup:
            curves.append(_crossing_times(series.label, next(runs)))
            continue
        points = [point_stats(next(runs), config) for config in configs]
        if series.flat:
            points *= len(spec.xs)
        curves.append(FigureSeries(label=series.label, x=list(spec.xs),
                                   points=points))
    return FigureResult(
        figure_id=spec.figure_id, title=spec.title,
        x_label=spec.x_label, y_label=spec.y_label,
        series=curves, manifest=sweep_manifest(profile))


_TTR = "client__think_time_ratio"
_RESPONSE = "Response Time (Broadcast Units)"
#: Figure 6 samples the load axis more densely than Figure 3.
_FIGURE6_TTRS = (10, 25, 35, 50, 75, 100, 250)
#: Figure 7's x axis: number of non-broadcast pages.
_CHOP_STEPS = (0, 100, 200, 300, 400, 500, 600, 700)

_PUSH = SeriesSpec("Push", Algorithm.PURE_PUSH, flat=True)
_PULL = SeriesSpec("Pull", Algorithm.PURE_PULL)


def _steady_state_pairs(**overrides: Any) -> tuple[SeriesSpec, ...]:
    """Pull and IPP (PullBW = 50%) at SteadyStatePerc 0% and 95%."""
    return tuple(
        SeriesSpec(f"{stem} {steady:.0%}", algorithm,
                   {**overrides, "client__steady_state_perc": steady,
                    "server__pull_bw": 0.50})
        for steady in (0.0, 0.95)
        for stem, algorithm in (("Pull", Algorithm.PURE_PULL),
                                ("IPP", Algorithm.IPP)))


def _figure_4(panel: str, ttr: int) -> FigureSpec:
    """Warm-up time at one load: 25 is lightly loaded, 250 heavily."""
    return FigureSpec(
        f"4{panel}",
        f"Client cache warm-up time, IPP PullBW=50%, ThinkTimeRatio={ttr}",
        "Cache Warm Up %", "Time (Broadcast Units)",
        x_key=None, xs=tuple(level * 100.0 for level in WARMUP_LEVELS),
        series=(SeriesSpec("Push", Algorithm.PURE_PUSH, {_TTR: ttr}),
                *_steady_state_pairs(**{_TTR: ttr})),
        representative=("IPP 95%", 95.0))


def _figure_5(panel: str, stem: str, algorithm: Algorithm) -> FigureSpec:
    """Noise sensitivity of one pull-capable algorithm vs Pure-Push."""
    noises = (0.0, 0.15, 0.35)
    return FigureSpec(
        f"5{panel}",
        f"Noise sensitivity: {stem} vs Pure-Push (IPP PullBW=50%)",
        "Think Time Ratio", _RESPONSE, x_key=_TTR, xs=PAPER_TTRS,
        series=(*(SeriesSpec(f"Push Noise {noise:.0%}", Algorithm.PURE_PUSH,
                             {"client__noise": noise}, flat=True)
                  for noise in noises),
                *(SeriesSpec(f"{stem} Noise {noise:.0%}", algorithm,
                             {"client__noise": noise,
                              "server__pull_bw": 0.50})
                  for noise in noises)),
        representative=(f"{stem} Noise 15%", 25))


def _figure_6(panel: str, pull_bw: float) -> FigureSpec:
    """IPP across server loads for ThresPerc in {35, 25, 10, 0}%."""
    return FigureSpec(
        f"6{panel}",
        f"Influence of threshold on response time (PullBW={pull_bw:.0%})",
        "Think Time Ratio", _RESPONSE, x_key=_TTR, xs=_FIGURE6_TTRS,
        series=(_PUSH, _PULL,
                *(SeriesSpec(f"IPP ThresPerc {thresh:.0%}", Algorithm.IPP,
                             {"server__pull_bw": pull_bw,
                              "server__thresh_perc": thresh})
                  for thresh in (0.35, 0.25, 0.10, 0.0))),
        representative=("IPP ThresPerc 25%", 25))


def _figure_7(panel: str, thresh_perc: float) -> FigureSpec:
    """Response time vs pages chopped off the push program, at TTR 25.

    Pure-Push keeps the full database on its program (a client could
    never recover a missing page without a backchannel) and Pure-Pull
    has no program at all, so both are flat reference lines exactly as
    in the paper.
    """
    load = {_TTR: 25}
    return FigureSpec(
        f"7{panel}",
        f"Restricting push contents (ThresPerc={thresh_perc:.0%}, "
        f"ThinkTimeRatio=25)",
        "Number of Non-Broadcast Pages", _RESPONSE,
        x_key="server__chop", xs=_CHOP_STEPS,
        series=(SeriesSpec("Push", Algorithm.PURE_PUSH, load, flat=True),
                SeriesSpec("Pull", Algorithm.PURE_PULL, load, flat=True),
                *(SeriesSpec(f"IPP PullBW {pull_bw:.0%}", Algorithm.IPP,
                             {**load, "server__pull_bw": pull_bw,
                              "server__thresh_perc": thresh_perc})
                  for pull_bw in (0.10, 0.30, 0.50))),
        representative=("IPP PullBW 30%", 300))


#: Figure id -> spec, in the paper's order.
FIGURES: dict[str, FigureSpec] = {spec.figure_id: spec for spec in (
    FigureSpec(
        "3a",
        "Steady-state client performance (IPP PullBW=50%, "
        "SteadyStatePerc varied)",
        "Think Time Ratio", _RESPONSE, x_key=_TTR, xs=PAPER_TTRS,
        series=(_PUSH, *_steady_state_pairs()),
        representative=("IPP 95%", 10)),
    FigureSpec(
        "3b",
        "Steady-state client performance (IPP PullBW varied, "
        "SteadyStatePerc=95%)",
        "Think Time Ratio", _RESPONSE, x_key=_TTR, xs=PAPER_TTRS,
        series=(_PUSH, _PULL,
                *(SeriesSpec(f"IPP PullBW {pull_bw:.0%}", Algorithm.IPP,
                             {"server__pull_bw": pull_bw})
                  for pull_bw in (0.50, 0.30, 0.10))),
        representative=("IPP PullBW 30%", 10)),
    _figure_4("a", 25),
    _figure_4("b", 250),
    _figure_5("a", "Pull", Algorithm.PURE_PULL),
    _figure_5("b", "IPP", Algorithm.IPP),
    _figure_6("a", 0.50),
    _figure_6("b", 0.30),
    _figure_7("a", 0.0),
    _figure_7("b", 0.35),
    FigureSpec(
        "8",
        "Server load sensitivity for restricted push "
        "(PullBW=30%, ThresPerc=35%)",
        "Think Time Ratio", _RESPONSE, x_key=_TTR, xs=PAPER_TTRS,
        series=(_PUSH, _PULL,
                *(SeriesSpec("IPP Full DB" if chop == 0 else f"IPP -{chop}",
                             Algorithm.IPP,
                             {"server__pull_bw": 0.30,
                              "server__thresh_perc": 0.35,
                              "server__chop": chop})
                  for chop in (0, 200, 300, 500, 700))),
        representative=("IPP -300", 50)),
)}

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

:data:`EXTENSIONS` holds figures beyond the paper on the same contract:
per-user fairness and pull-queue disciplines across PullBW, each plotting
several statistics of one set of runs (:attr:`FigureSpec.metrics`), and
the push-side ablations as one-point rows of Pure-Push series.

Each row states what its figure must show as ``claims`` (:class:`Below`,
:class:`Flat`, :class:`Monotone`, :class:`CrossesLater`), judged on the
point means by :func:`evaluate` in ``report`` and the figure bench, never
in :func:`run_figure`.  To add one, append it to its row's tuple, naming
curves by label (``"<series> <metric>"`` under ``metrics``) and points
by x values of the row's grid, and cite the section it checks; a label
naming no curve fails the row's construction.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.client.measured import WARMUP_LEVELS
from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig, config_field
from repro.core.metrics import RunResult
from repro.experiments.base import (
    FigureResult,
    FigureSeries,
    PAPER_PULL_BWS,
    PAPER_TTRS,
    PointStats,
    Profile,
    point_stats,
    run_points,
)
from repro.fleet.fairness import FAIRNESS_METRICS
from repro.obs.events import SCHEDULER_DISCIPLINES
from repro.obs.manifest import sweep_manifest

__all__ = ["SeriesSpec", "FigureSpec", "FIGURES", "EXTENSIONS", "run_figure",
           "Below", "Flat", "Monotone", "CrossesLater", "Gap", "Ratio",
           "Lowest", "Highest", "Verdict", "evaluate"]


# Claims compare terms: a point ``(curve label, x)`` (that curve's mean
# at x), a number, or a Gap, Ratio, Lowest or Highest built from them.
def _value(term: Any, figure: FigureResult) -> float:
    if isinstance(term, tuple):
        label, x = term
        series = figure.series_by_label(label)
        if x not in series.x:
            raise ValueError(f"figure {figure.figure_id}: curve {label!r} "
                             f"has no point at x={x:g}")
        return series.y[series.x.index(x)]
    return term if isinstance(term, (int, float)) else term.value(figure)


def _text(term: Any) -> str:
    if isinstance(term, tuple):
        return f"{term[0]} @ {term[1]:g}"
    return f"{term:g}" if isinstance(term, (int, float)) else str(term)


def _labels(item: Any) -> set[str]:
    """Every curve label a claim or term reads."""
    if isinstance(item, (str, tuple)):
        return {item if isinstance(item, str) else item[0]}
    if is_dataclass(item):
        return {label for spec in fields(item)
                for label in _labels(getattr(item, spec.name))}
    return set()


@dataclass(frozen=True)
class Gap:
    """``|p - q|``."""

    p: Any
    q: Any

    def value(self, figure: FigureResult) -> float:
        return abs(_value(self.p, figure) - _value(self.q, figure))

    def __str__(self) -> str:
        return f"|{_text(self.p)} - {_text(self.q)}|"


@dataclass(frozen=True)
class Ratio:
    """``p / q``."""

    p: Any
    q: Any

    def value(self, figure: FigureResult) -> float:
        return _value(self.p, figure) / _value(self.q, figure)

    def __str__(self) -> str:
        return f"{_text(self.p)} / {_text(self.q)}"


@dataclass(frozen=True)
class Lowest:
    """A curve's minimum over the whole axis."""

    label: str

    def value(self, figure: FigureResult) -> float:
        return min(figure.series_by_label(self.label).y)

    def __str__(self) -> str:
        return f"min {self.label}"


@dataclass(frozen=True)
class Highest:
    """A curve's maximum over the whole axis: its worst case."""

    label: str

    def value(self, figure: FigureResult) -> float:
        return max(figure.series_by_label(self.label).y)

    def __str__(self) -> str:
        return f"max {self.label}"


@dataclass(frozen=True)
class Below:
    """``a * factor < b`` (``<=`` when not ``strict``)."""

    a: Any
    b: Any
    factor: float = 1
    strict: bool = True

    def judge(self, figure: FigureResult) -> tuple[bool, str]:
        lhs = _value(self.a, figure) * self.factor
        rhs = _value(self.b, figure)
        holds = lhs < rhs if self.strict else lhs <= rhs
        return holds, f"{lhs:.4g} vs {rhs:.4g}"

    def __str__(self) -> str:
        scaled = f" x {self.factor:g}" if self.factor != 1 else ""
        return (f"{_text(self.a)}{scaled} {'<' if self.strict else '<='} "
                f"{_text(self.b)}")


@dataclass(frozen=True)
class Flat:
    """The curve takes one value along the whole axis."""

    label: str

    def judge(self, figure: FigureResult) -> tuple[bool, str]:
        values = len(set(figure.series_by_label(self.label).y))
        return values == 1, f"{values} distinct value(s)"

    def __str__(self) -> str:
        return f"{self.label} is flat"


@dataclass(frozen=True)
class Monotone:
    """The curve never decreases along the axis."""

    label: str

    def judge(self, figure: FigureResult) -> tuple[bool, str]:
        y = figure.series_by_label(self.label).y
        return y == sorted(y), f"{len(y)} points"

    def __str__(self) -> str:
        return f"{self.label} is non-decreasing"


@dataclass(frozen=True)
class CrossesLater:
    """Curve ``a`` first rises above Push at a later x than ``b`` does (no
    earlier, when not ``strict``); never rising is infinitely late."""

    a: str
    b: str
    strict: bool = True

    def judge(self, figure: FigureResult) -> tuple[bool, str]:
        push = figure.series_by_label("Push").y
        a, b = (next((x for x, y, ref in zip(series.x, series.y, push)
                      if y > ref), math.inf)
                for series in map(figure.series_by_label, (self.a, self.b)))
        return a > b if self.strict else a >= b, f"x={a:g} vs x={b:g}"

    def __str__(self) -> str:
        when = "later than" if self.strict else "no earlier than"
        return f"{self.a} rises above Push {when} {self.b}"


Claim = Union[Below, Flat, Monotone, CrossesLater]


@dataclass(frozen=True)
class Verdict:
    """One claim judged on one figure, with the values it read."""

    claim: Claim
    holds: bool
    evidence: str

    def __str__(self) -> str:
        mark = "✓" if self.holds else "✗"
        return f"{mark} {self.claim}  ({self.evidence})"


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
    #: The ``(series label, x)`` coordinate ``trace`` / ``sanitize
    #: --figure`` and ``figures --trace`` stand on: one point of this
    #: figure's own grid (checked at construction, so a shrunk grid
    #: states its own) that exercises its characteristic behaviour.
    representative: tuple[str, float]
    #: Statistics plotted per series, each reduced from the series' same
    #: runs into a curve labelled ``"<series label> <metric>"`` (just the
    #: metric for an unlabelled series); None plots the mean miss
    #: response under the series label.
    metrics: Optional[Mapping[str, Callable[[RunResult], float]]] = None
    #: What the figure must show, judged on its curves by
    #: :func:`evaluate` (never by run_figure).
    claims: tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        # Claims read the grid in order (Monotone, CrossesLater).
        axis = self.x_key.replace("__", ".") if self.x_key else "x"
        grid = f"{axis} grid of figure {self.figure_id}"
        if not self.xs:
            raise ValueError(f"{grid} must not be empty")
        if not all(map(math.isfinite, self.xs)):
            raise ValueError(f"{grid} must be finite, got {self.xs}")
        if any(a >= b for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError(
                f"{grid} must be strictly increasing, got {self.xs}")
        label, x = self.representative
        if label not in [series.label for series in self.series]:
            raise ValueError(f"figure {self.figure_id}: representative "
                             f"{label!r} names no series of the figure")
        if x not in self.xs:
            raise ValueError(f"figure {self.figure_id}: representative "
                             f"x={x:g} is not on the grid {self.xs}")
        for claim in self.claims:
            unknown = _labels(claim) - set(self.curves)
            if unknown:
                raise ValueError(
                    f"figure {self.figure_id}: claim '{claim}' names no "
                    f"curve of the figure: {', '.join(sorted(unknown))}")

    @property
    def curves(self) -> list[str]:
        """The labels of :func:`run_figure`'s curves, in its order."""
        return [" ".join(filter(None, (series.label, name)))
                for series in self.series
                for name in (self.metrics or {"": None})]

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
    single :func:`~repro.experiments.base.run_sweep`, so one process
    pool serves the whole figure, and every config is built (and a bad
    one rejected) before the first run.
    """
    plan = [(series, [spec.config(series.label, x)
                      for x in (spec.xs[:1] if series.flat or spec.warmup
                                else spec.xs)])
            for series in spec.series]
    runs = iter(run_points([config for _, configs in plan
                            for config in configs],
                           profile, warmup=spec.warmup))
    curves = []
    names = iter(spec.curves)
    for series, configs in plan:
        if spec.warmup:
            curves.append(_crossing_times(next(names), next(runs)))
            continue
        results = [next(runs) for _ in configs]
        for metric in (spec.metrics or {"": None}).values():
            points = [point_stats(replicates, config, metric)
                      for replicates, config in zip(results, configs)]
            if series.flat:
                points *= len(spec.xs)
            curves.append(FigureSeries(label=next(names), x=list(spec.xs),
                                       points=points))
    return FigureResult(
        figure_id=spec.figure_id, title=spec.title,
        x_label=spec.x_label, y_label=spec.y_label,
        series=curves, manifest=sweep_manifest(profile))


def evaluate(spec: FigureSpec, figure: FigureResult) -> list[Verdict]:
    """Judge each of ``spec``'s claims on ``figure``'s point means.

    Raises :class:`ValueError` when ``figure`` is another figure or
    lacks a point a claim reads, :class:`KeyError` when it lacks a curve.
    """
    if figure.figure_id != spec.figure_id:
        raise ValueError(f"figure {figure.figure_id} is not "
                         f"{spec.figure_id}")
    return [Verdict(claim, *claim.judge(figure)) for claim in spec.claims]


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


def _figure_4(panel: str, ttr: int, *claims: Claim) -> FigureSpec:
    """Warm-up time at one load: 25 is lightly loaded, 250 heavily."""
    return FigureSpec(
        f"4{panel}",
        f"Client cache warm-up time, IPP PullBW=50%, ThinkTimeRatio={ttr}",
        "Cache Warm Up %", "Time (Broadcast Units)",
        x_key=None, xs=tuple(level * 100.0 for level in WARMUP_LEVELS),
        series=(SeriesSpec("Push", Algorithm.PURE_PUSH, {_TTR: ttr}),
                *_steady_state_pairs(**{_TTR: ttr})),
        representative=("IPP 95%", 95.0), claims=claims)


def _figure_5(panel: str, stem: str, algorithm: Algorithm,
              *claims: Claim) -> FigureSpec:
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
        representative=(f"{stem} Noise 15%", 25), claims=claims)


def _figure_6(panel: str, pull_bw: float, *claims: Claim) -> FigureSpec:
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
        representative=("IPP ThresPerc 25%", 25), claims=claims)


#: §4.4's consistency claims, shared by both figure-6 panels.
_CONSISTENT = tuple(Below(Highest("IPP ThresPerc 35%"), Highest(label))
                    for label in ("IPP ThresPerc 0%", "Pull"))


def _figure_7(panel: str, thresh_perc: float, *claims: Claim) -> FigureSpec:
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
        representative=("IPP PullBW 30%", 300), claims=claims)


#: Figure id -> spec, in the paper's order.
FIGURES: dict[str, FigureSpec] = {spec.figure_id: spec for spec in (
    FigureSpec(
        "3a",
        "Steady-state client performance (IPP PullBW=50%, "
        "SteadyStatePerc varied)",
        "Think Time Ratio", _RESPONSE, x_key=_TTR, xs=PAPER_TTRS,
        series=(_PUSH, *_steady_state_pairs()),
        representative=("IPP 95%", 10),
        # §4.1.1: pull wins light loads by far and loses saturated ones,
        # where IPP's push safety net holds and warm peers help pull.
        claims=(Flat("Push"),
                Below(("Pull 95%", 10), Ratio(("Push", 10), 20)),
                Below(("Push", 250), ("Pull 95%", 250)),
                Below(("IPP 95%", 250), ("Pull 95%", 250)),
                Below(("Pull 95%", 250), ("Pull 0%", 250)))),
    FigureSpec(
        "3b",
        "Steady-state client performance (IPP PullBW varied, "
        "SteadyStatePerc=95%)",
        "Think Time Ratio", _RESPONSE, x_key=_TTR, xs=PAPER_TTRS,
        series=(_PUSH, _PULL,
                *(SeriesSpec(f"IPP PullBW {pull_bw:.0%}", Algorithm.IPP,
                             {"server__pull_bw": pull_bw})
                  for pull_bw in (0.50, 0.30, 0.10))),
        representative=("IPP PullBW 30%", 10),
        # §4.1.2: more PullBW tracks Pure-Pull at light load, 10% is
        # sluggish even idle, and every IPP undercuts Pull saturated.
        claims=(Below(Gap(("IPP PullBW 50%", 10), ("Pull", 10)),
                      Gap(("IPP PullBW 10%", 10), ("Pull", 10))),
                Below(("IPP PullBW 50%", 10), ("IPP PullBW 10%", 10),
                      factor=2),
                *(Below((f"IPP PullBW {pull_bw}%", 250), ("Pull", 250))
                  for pull_bw in (50, 30, 10)))),
    # §4.1.3: lightly loaded Pure-Pull warms up fastest; heavily loaded
    # the ordering inverts and Pure-Push warms up best.
    _figure_4("a", 25,
              *map(Monotone, ("Push", "Pull 0%", "IPP 0%", "Pull 95%",
                              "IPP 95%")),
              Below(("Pull 0%", 95), Ratio(("Push", 95), 2))),
    _figure_4("b", 250, Below(("Push", 95), ("Pull 0%", 95)),
              Below(("Push", 95), ("Pull 95%", 95))),
    # §4.1.4: Noise hurts pull at the saturation knee (at TTR 250 the gap
    # is inside run-to-run variance), not light; the safety net bounds IPP's.
    _figure_5("a", "Pull", Algorithm.PURE_PULL,
              Below(Gap(("Pull Noise 35%", 10), ("Pull Noise 0%", 10)), 10.0),
              Below(("Pull Noise 0%", 100), ("Pull Noise 35%", 100),
                    factor=1.02),
              Below(("Push Noise 0%", 250), ("Push Noise 35%", 250))),
    _figure_5("b", "IPP", Algorithm.IPP,
              Below(("IPP Noise 0%", 250), ("IPP Noise 35%", 250),
                    strict=False),
              Below(Ratio(("IPP Noise 35%", 250), ("IPP Noise 0%", 250)),
                    2.5)),
    # §4.2: thresholds only delay clients at light load, but win under
    # heavy load and extend the loads where IPP beats Pure-Push.  §4.4:
    # with a threshold IPP is consistent across the load range, its worst
    # case below the unthresholded IPP's and Pure-Pull's (not Pure-Push's
    # at this scale; EXPERIMENTS.md).
    _figure_6("a", 0.50,
              Below(("IPP ThresPerc 0%", 10), ("IPP ThresPerc 25%", 10)),
              CrossesLater("IPP ThresPerc 25%", "IPP ThresPerc 0%",
                           strict=False),
              Below(("IPP ThresPerc 25%", 250), ("IPP ThresPerc 0%", 250)),
              *_CONSISTENT),
    _figure_6("b", 0.30,
              Below(("IPP ThresPerc 0%", 10), ("IPP ThresPerc 35%", 10)),
              Below(("IPP ThresPerc 35%", 250), ("IPP ThresPerc 0%", 250)),
              CrossesLater("IPP ThresPerc 35%", "IPP ThresPerc 0%"),
              *_CONSISTENT),
    # §4.3: chopped pages need pull bandwidth; with 50% and a threshold,
    # chopping helps (155 -> 63 units in the paper), and 30% gains too.
    _figure_7("a", 0.0,
              Below(("IPP PullBW 10%", 0), ("IPP PullBW 10%", 700), factor=2),
              Below(("IPP PullBW 50%", 700), ("IPP PullBW 10%", 700)),
              Flat("Push"), Flat("Pull")),
    _figure_7("b", 0.35,
              Below(("IPP PullBW 50%", 700), ("IPP PullBW 50%", 0)),
              Below(Lowest("IPP PullBW 30%"), ("IPP PullBW 30%", 0))),
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
        representative=("IPP -300", 50),
        # §4.3: the deepest chop wins underutilized and loses saturated,
        # near Pure-Pull: no safety net for its 700 missing pages.
        claims=(Below(("IPP -700", 25), ("IPP Full DB", 25)),
                Below(("IPP Full DB", 250), ("IPP -700", 250)),
                Below(("Pull", 250), ("IPP -700", 250), factor=0.8))),
)}


def _mean_response(result: RunResult) -> float:
    return float(result.response_miss.mean)


def _all_access_response(result: RunResult) -> float:
    return float(result.response_all.mean)


def _fleet(num_clients: int) -> dict[str, Any]:
    """A heterogeneous fleet presenting a ThinkTimeRatio-25 aggregate
    load, whatever its size (think time scales with the population)."""
    mc_think_time = config_field("client.think_time").default
    return {"fleet__num_clients": num_clients,
            "fleet__think_time": mc_think_time * num_clients / 25.0,
            "fleet__think_time_spread": 0.5,
            "fleet__zipf_offset_spread": 50,
            "fleet__cache_size_spread": 0.5}


_PULL_BW = "server__pull_bw"
#: The ablations' one-point axis: the default CacheSize.
_CACHE_SIZE = "client__cache_size"
_CACHE = config_field("client.cache_size").default
_CACHE_SIZES = (_CACHE,)
#: The square-root-rule disk split for the paper's 3:2:1 program
#: (``optimal_disk_split`` at granularity 100), pinned by a test.
_SQRT_RULE_SIZES = (100, 100, 800)
_SQRT_RULE = f"square-root {'/'.join(map(str, _SQRT_RULE_SIZES))}"

#: Figure id -> spec for the figures beyond the paper: the PullBW sweep
#: re-run with a per-user fleet, plotting fairness (Robert & Schabanel's
#: "be fair to users") and comparing pull-queue disciplines, whose choice
#: only shows where the queue builds depth (the low-PullBW points); and
#: the push-side ablations: cost-based replacement (§2.1, on a non-offset
#: program, where refetch costs differ) and the Offset program (§3.2).
EXTENSIONS: dict[str, FigureSpec] = {spec.figure_id: spec for spec in (
    FigureSpec(
        "fleet-pullbw",
        "Per-user wait vs PullBW, heterogeneous fleet of 100000 clients "
        "(IPP)",
        "PullBW", "Response time (broadcast units) / Jain index",
        x_key=_PULL_BW, xs=PAPER_PULL_BWS,
        series=(SeriesSpec("", Algorithm.IPP, _fleet(100_000)),),
        representative=("", 0.10),
        metrics=FAIRNESS_METRICS),
    FigureSpec(
        "sched-pullbw",
        "Pull-discipline comparison vs PullBW, fleet of 2000 clients (IPP)",
        "PullBW", "Response time / user wait (broadcast units)",
        x_key=_PULL_BW, xs=PAPER_PULL_BWS,
        series=tuple(
            SeriesSpec(discipline, Algorithm.IPP,
                       {**_fleet(2000), "scheduler__discipline": discipline,
                        "scheduler__aging": 1.0})
            for discipline in SCHEDULER_DISCIPLINES),
        representative=("rxw", 0.10),
        metrics={"mean response": _mean_response,
                 "fleet p99 wait": FAIRNESS_METRICS["p99 user wait"],
                 "fleet max wait": FAIRNESS_METRICS["max user wait"]},
        # RxW cuts the fleet's tail at the most saturated point; LWF is
        # not claimed: its p99 beat FIFO's on seeds 42, 0, 1, not on 2.
        claims=tuple(
            Below((f"rxw fleet {stat} wait", PAPER_PULL_BWS[0]),
                  (f"fifo fleet {stat} wait", PAPER_PULL_BWS[0]))
            for stat in ("p99", "max"))),
    FigureSpec(
        "cache-policy",
        "Cache replacement policy (Pure-Push, 12:6:1 non-offset program)",
        "CacheSize", _RESPONSE, x_key=_CACHE_SIZE, xs=_CACHE_SIZES,
        series=tuple(
            SeriesSpec(policy, Algorithm.PURE_PUSH,
                       {"client__cache_policy": policy,
                        "server__offset": False,
                        "server__rel_freqs": (12, 6, 1)})
            for policy in ("pix", "p", "lru")),
        representative=("pix", _CACHE),
        metrics={"all-access mean": _all_access_response},
        # §2.1: cost-based replacement wins (all-access: policies trade
        # miss rate against miss cost).
        claims=tuple(Below(("pix all-access mean", _CACHE),
                           (f"{policy} all-access mean", _CACHE))
                     for policy in ("p", "lru"))),
    FigureSpec(
        "push-program",
        "Push program (Pure-Push): Offset, disk split, flat broadcast",
        "CacheSize", _RESPONSE, x_key=_CACHE_SIZE, xs=_CACHE_SIZES,
        series=(
            SeriesSpec("Offset 100/400/500", Algorithm.PURE_PUSH),
            SeriesSpec("no Offset", Algorithm.PURE_PUSH,
                       {"server__offset": False}),
            SeriesSpec(_SQRT_RULE, Algorithm.PURE_PUSH,
                       {"server__disk_sizes": _SQRT_RULE_SIZES}),
            SeriesSpec("flat single disk", Algorithm.PURE_PUSH,
                       {"server__disk_sizes": (1000,),
                        "server__rel_freqs": (1,)})),
        representative=("Offset 100/400/500", _CACHE),
        # §3.2: Offset beats hottest-first; any multi-disk program, flat.
        claims=(
            Below(("Offset 100/400/500", _CACHE), ("no Offset", _CACHE)),
            *(Below((label, _CACHE), ("flat single disk", _CACHE))
              for label in ("Offset 100/400/500", "no Offset",
                            _SQRT_RULE)))),
)}

"""Parameter-setting advisor — the paper's other future-work tool (§6).

    "Beyond what was presented, we would like to develop tools to make the
    parameter setting decisions for real dissemination-based information
    systems easier."

The paper's own conclusion is that the pure algorithms excel only inside
their niche load ranges, while a well-tuned IPP "can provide reasonably
good performance over the complete range of system loads".  This module
operationalizes that: given the load range a deployment must survive,
sweep the (PullBW, ThresPerc, chop) knob grid and recommend the setting
that minimizes the *worst-case* response time across the range (ties
broken by the mean) — exactly the consistency objective of Section 4.4.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, fields

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.experiments.base import Profile
from repro.experiments.figures import FigureSpec, SeriesSpec, run_figure

__all__ = ["TuningSpec", "Candidate", "TuningReport", "recommend"]


@dataclass(frozen=True)
class TuningSpec:
    """What to sweep and what to optimize for."""

    #: The ThinkTimeRatio range the deployment must handle.
    loads: tuple[float, ...] = (10.0, 50.0, 250.0)
    #: Candidate PullBW settings.
    pull_bw_grid: tuple[float, ...] = (0.30, 0.50)
    #: Candidate ThresPerc settings.
    thresh_grid: tuple[float, ...] = (0.0, 0.25, 0.35)
    #: Candidate chop depths (pages removed from the push program).
    chop_grid: tuple[int, ...] = (0,)
    #: "worst_case" (the paper's consistency goal) or "mean".
    objective: str = "worst_case"

    def __post_init__(self):
        if not self.loads:
            raise ValueError("loads must be non-empty")
        if self.objective not in ("worst_case", "mean"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not (self.pull_bw_grid and self.thresh_grid and self.chop_grid):
            raise ValueError("every knob grid must be non-empty")


@dataclass(frozen=True)
class Candidate:
    """One knob setting with its measured response-time profile."""

    pull_bw: float
    thresh_perc: float
    chop: int
    #: Mean miss response time per load, aligned with the spec's loads.
    response_times: tuple[float, ...]

    @property
    def worst_case(self) -> float:
        """Largest response time across the load range."""
        return max(self.response_times)

    @property
    def mean(self) -> float:
        """Mean response time across the load range."""
        return statistics.fmean(self.response_times)

    def describe(self) -> str:
        """Human-readable knob setting."""
        return (f"PullBW={self.pull_bw:.0%} ThresPerc={self.thresh_perc:.0%}"
                + (f" chop={self.chop}" if self.chop else ""))


@dataclass
class TuningReport:
    """Ranked outcome of a tuning sweep."""

    spec: TuningSpec
    #: Candidates sorted best-first by the spec's objective.
    candidates: list[Candidate] = field(default_factory=list)

    @property
    def best(self) -> Candidate:
        """The top-ranked setting (raises on an empty report)."""
        if not self.candidates:
            raise ValueError("empty tuning report")
        return self.candidates[0]

    def format(self) -> str:
        """Render the ranking as a monospace table."""
        header = (f"{'setting':<38}"
                  + "".join(f"{f'TTR {load:g}':>11}"
                            for load in self.spec.loads)
                  + f"{'worst':>11}{'mean':>11}")
        lines = [header, "-" * len(header)]
        for candidate in self.candidates:
            cells = "".join(f"{rt:>11.1f}" for rt in candidate.response_times)
            lines.append(f"{candidate.describe():<38}{cells}"
                         f"{candidate.worst_case:>11.1f}"
                         f"{candidate.mean:>11.1f}")
        lines.append(f"\nrecommended ({self.spec.objective}): "
                     f"{self.best.describe()}")
        return "\n".join(lines)


def _score(candidate: Candidate, objective: str) -> tuple[float, float]:
    if objective == "worst_case":
        return (candidate.worst_case, candidate.mean)
    return (candidate.mean, candidate.worst_case)


def recommend(base: SystemConfig, spec: TuningSpec,
              profile: Profile) -> TuningReport:
    """Sweep the knob grid over the load range and rank the settings.

    ``base`` supplies everything except the swept knobs; it must be an
    IPP configuration (the pure algorithms have no knobs to tune — run
    them as degenerate grids if a comparison is wanted).  The grid is one
    figure — x the load, one series per (chop, PullBW, ThresPerc)
    setting — so every config is checked before the first run.
    """
    if base.algorithm is not Algorithm.IPP:
        raise ValueError("tuning sweeps IPP's knobs; pass an IPP config")
    settings = [(chop, pull_bw, thresh) for chop in spec.chop_grid
                for pull_bw in spec.pull_bw_grid
                for thresh in spec.thresh_grid]
    # A load's own domain comes before the grid's: ``tune --loads nan``
    # names the field it sets.
    for load in spec.loads:
        base.with_(client__think_time_ratio=load)
    # Every field of ``base``; ``with_`` lays each setting's knobs on top.
    base_fields = {f.name: getattr(base, f.name) for f in fields(base)}
    grid = FigureSpec(
        "tune", "IPP knob settings across the load range",
        "Think Time Ratio", "Response Time (Broadcast Units)",
        x_key="client__think_time_ratio", xs=spec.loads,
        series=tuple(
            SeriesSpec(f"setting {index}", Algorithm.IPP,
                       {**base_fields, "server__chop": chop,
                        "server__pull_bw": pull_bw,
                        "server__thresh_perc": thresh})
            for index, (chop, pull_bw, thresh) in enumerate(settings)),
        representative=("setting 0", spec.loads[0]))
    figure = run_figure(grid, profile)
    candidates = [
        Candidate(pull_bw=pull_bw, thresh_perc=thresh, chop=chop,
                  response_times=tuple(series.y))
        for (chop, pull_bw, thresh), series in zip(settings, figure.series)]
    candidates.sort(key=lambda c: _score(c, spec.objective))
    return TuningReport(spec=spec, candidates=candidates)

"""Sweep infrastructure shared by every experiment.

A figure is a set of *series*; a series is a curve of (x, y) points; each
point aggregates one or more seeded simulation runs.  Runs are independent,
so sweeps optionally fan out over a process pool — every input is a plain
dataclass and every output a :class:`~repro.core.metrics.RunResult`, both
picklable by construction.
"""

from __future__ import annotations

import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.config import Settings, SystemConfig, setting
from repro.core.fast import FastEngine
from repro.core.metrics import RunResult

__all__ = [
    "Profile",
    "QUICK",
    "FULL",
    "PointStats",
    "FigureSeries",
    "FigureResult",
    "FIGURE_SCHEMA_VERSION",
    "figure_from_dict",
    "load_figure",
    "point_stats",
    "run_points",
    "run_replicated",
    "run_sweep",
    "PAPER_PULL_BWS",
    "PAPER_TTRS",
]

#: Version of the ``results/figure_*.json`` layout.  Version 2 added
#: ``schema_version`` itself, the provenance ``manifest``, and per-series
#: ``stddev`` / ``replicates`` / quantile arrays; version-1 files (no
#: ``schema_version`` key) are still loadable via :func:`figure_from_dict`.
FIGURE_SCHEMA_VERSION = 2

#: Table 3's ThinkTimeRatio grid.
PAPER_TTRS: tuple[int, ...] = (10, 25, 50, 100, 250)
#: Table 3's PullBW grid.
PAPER_PULL_BWS: tuple[float, ...] = (0.10, 0.20, 0.30, 0.40, 0.50)


@dataclass(frozen=True)
class Profile(Settings, prefix="profile"):
    """Run-scale knobs applied uniformly across a figure's sweeps; each
    run knob shares its ``run.*`` field's domain."""

    #: MC accesses between cache-full and measurement.
    settle_accesses: int = setting(MISSING, "run.settle_accesses")
    #: MC accesses measured.
    measure_accesses: int = setting(MISSING, "run.measure_accesses")
    #: Independent seeded replicates averaged per point.
    replicates: int = setting(MISSING, int, ge=1)
    #: Process-pool width (None = sequential).
    workers: Optional[int] = setting(None, int, ge=1, optional=True)
    #: Base seed; replicate ``r`` of a point uses ``base_seed + r``.
    base_seed: int = setting(42, "run.seed")
    #: Cap for warm-up runs (broadcast units).
    max_slots: int = setting(50_000_000, "run.max_slots")

    def apply(self, config: SystemConfig, seed: int) -> SystemConfig:
        """Stamp run-scale settings and a seed onto ``config``."""
        return config.with_(
            run__settle_accesses=self.settle_accesses,
            run__measure_accesses=self.measure_accesses,
            run__seed=seed,
            run__max_slots=self.max_slots,
        )


#: Fast shape-check profile (used by the benchmark suite).
QUICK = Profile(settle_accesses=500, measure_accesses=800, replicates=1)
#: Paper-scale profile (used by ``repro-broadcast figures --full``).
#: Paper-scale sweeps are embarrassingly parallel, so the default is the
#: full process pool; pass ``workers=1`` (or ``--workers 1``) to force
#: sequential runs.
FULL = Profile(settle_accesses=4000, measure_accesses=5000, replicates=3,
               workers=os.cpu_count())


@dataclass(frozen=True)
class PointStats:
    """Aggregate of one sweep point's replicates."""

    mean: float
    stddev: float
    replicates: int
    #: Mean server drop rate across replicates.
    drop_rate: float
    #: Mean response-time quantiles across replicates (None when the
    #: underlying runs carried no quantiles, e.g. warm-up sweeps or
    #: points loaded from pre-quantile archives).
    p50: Optional[float] = None
    p90: Optional[float] = None
    p99: Optional[float] = None
    #: The raw per-replicate results (kept for diagnostics).
    results: tuple[RunResult, ...] = field(repr=False, default=())

    @classmethod
    def of(cls, results: Sequence[RunResult],
           metric: Callable[[RunResult], float]) -> "PointStats":
        """Aggregate ``results`` under ``metric``.

        Raises :class:`ValueError` on an empty sequence (a sweep point
        with zero replicates has no statistics to aggregate).
        """
        if not results:
            raise ValueError(
                "PointStats.of: empty results sequence (a point needs at "
                "least one replicate)")
        values = [metric(r) for r in results]

        def stdev(marks: Sequence[float]) -> float:
            if len(marks) < 2:
                return 0.0
            # statistics.stdev on NaN inputs raises (an AttributeError,
            # even) on some Python versions; propagate NaN instead so the
            # sweep-level guard can name the failing field.
            if any(math.isnan(mark) for mark in marks):
                return math.nan
            return statistics.stdev(marks)

        def mean_quantile(name: str) -> Optional[float]:
            marks = [getattr(r.response_miss, name) for r in results]
            if any(mark is None for mark in marks):
                return None
            return statistics.fmean(marks)

        return cls(
            mean=statistics.fmean(values),
            stddev=stdev(values),
            replicates=len(values),
            drop_rate=statistics.fmean(r.drop_rate for r in results),
            p50=mean_quantile("p50"),
            p90=mean_quantile("p90"),
            p99=mean_quantile("p99"),
            results=tuple(results),
        )


@dataclass
class FigureSeries:
    """One labelled curve of a figure."""

    label: str
    x: list[float]
    points: list[PointStats]

    @property
    def y(self) -> list[float]:
        """The curve's y values (point means)."""
        return [p.mean for p in self.points]


@dataclass
class FigureResult:
    """A regenerated figure: the same series the paper plots."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: list[FigureSeries]
    notes: list[str] = field(default_factory=list)
    #: Sweep provenance (:func:`repro.obs.manifest.sweep_manifest`).
    manifest: Optional[dict[str, Any]] = None

    def series_by_label(self, label: str) -> FigureSeries:
        """Find a series by its label (raises KeyError if absent)."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(label)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form of the figure (schema version 2).

        Quantile arrays are emitted only when the series carries them, so
        warm-up figures keep the exact historic key set plus the version
        and provenance fields.
        """
        def series_dict(s: FigureSeries) -> dict[str, Any]:
            data: dict[str, Any] = {
                "label": s.label,
                "x": list(s.x),
                "y": list(s.y),
                "drop_rate": [p.drop_rate for p in s.points],
                "stddev": [p.stddev for p in s.points],
                "replicates": [p.replicates for p in s.points],
            }
            for name in ("p50", "p90", "p99"):
                marks = [getattr(p, name) for p in s.points]
                if any(mark is not None for mark in marks):
                    data[name] = marks
            return data

        return {
            "schema_version": FIGURE_SCHEMA_VERSION,
            "figure": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "notes": list(self.notes),
            "manifest": self.manifest,
            "series": [series_dict(s) for s in self.series],
        }


def _required(data: Any, key: str, context: str, kind: type = object) -> Any:
    """Fetch a mandatory figure-JSON key or raise a naming ValueError.

    ``data`` must be a JSON object and the value a ``kind``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected a JSON object, got "
                         f"{type(data).__name__}")
    if key not in data:
        raise ValueError(f"{context}: missing field {key!r}")
    if not isinstance(data[key], kind):
        raise ValueError(f"{context}: field {key!r} must be a "
                         f"{kind.__name__}, got {type(data[key]).__name__}")
    return data[key]


def figure_from_dict(data: dict[str, Any]) -> FigureResult:
    """Rebuild a :class:`FigureResult` from its :meth:`~FigureResult.to_dict`.

    Accepts both schema version 2 and the version-1 layout (no
    ``schema_version`` key, no stddev/replicates/quantiles/manifest) that
    pre-provenance archives under ``results/`` use.  Loaded points carry
    no raw :class:`~repro.core.metrics.RunResult` objects.

    Truncated or malformed input never surfaces as a bare
    ``IndexError``/``KeyError``/``TypeError``: the top level and every
    series must be objects, ``series`` and every series array lists, and
    each array as long as its ``x`` grid; a :class:`ValueError` naming
    the series and the offending field is raised instead (the
    ``compare`` harness relies on this to classify bad files as load
    errors).
    """
    entries = _required(data, "series", "figure JSON", list)
    version = data.get("schema_version", 1)
    if not isinstance(version, int) or not 1 <= version <= FIGURE_SCHEMA_VERSION:
        raise ValueError(f"unsupported figure schema_version {version!r}")
    series = []
    for position, s in enumerate(entries):
        label = _required(s, "label", f"figure series #{position}", str)
        context = f"figure series {label!r}"
        x = _required(s, "x", context, list)
        count = len(x)
        y = _required(s, "y", context)
        drop_rate = _required(s, "drop_rate", context)
        stddev = s.get("stddev", [0.0] * count)
        replicates = s.get("replicates", [0] * count)
        quantiles = {name: s.get(name, [None] * count)
                     for name in ("p50", "p90", "p99")}
        arrays: dict[str, Any] = {
            "y": y, "drop_rate": drop_rate, "stddev": stddev,
            "replicates": replicates, **quantiles,
        }
        for name, values in arrays.items():
            if not isinstance(values, list):
                raise ValueError(f"{context}: field {name!r} must be a "
                                 f"list, got {type(values).__name__}")
            if len(values) != count:
                raise ValueError(
                    f"{context}: field {name!r} has {len(values)} values, "
                    f"expected {count} (the length of 'x')")
        points = [
            PointStats(mean=y[i], stddev=stddev[i],
                       replicates=replicates[i],
                       drop_rate=drop_rate[i],
                       p50=quantiles["p50"][i], p90=quantiles["p90"][i],
                       p99=quantiles["p99"][i])
            for i in range(count)
        ]
        series.append(FigureSeries(label=label, x=list(x), points=points))
    return FigureResult(
        figure_id=_required(data, "figure", "figure JSON"),
        title=_required(data, "title", "figure JSON"),
        x_label=_required(data, "x_label", "figure JSON"),
        y_label=_required(data, "y_label", "figure JSON"),
        series=series,
        notes=list(data.get("notes", [])),
        manifest=data.get("manifest"),
    )


def load_figure(path) -> FigureResult:
    """Load a saved ``results/figure_*.json`` (any schema version).

    A file that is not a figure raises ``ValueError`` naming ``path``.
    """
    import json
    from pathlib import Path

    try:
        return figure_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _execute(task: tuple[SystemConfig, bool]) -> RunResult:
    """Process-pool entry point: run one configured simulation."""
    config, warmup = task
    engine = FastEngine(config)
    return engine.run_warmup() if warmup else engine.run()


def run_sweep(configs: Sequence[SystemConfig], warmup: bool = False,
              workers: Optional[int] = None) -> list[RunResult]:
    """Run many independent simulations, optionally on a process pool.

    Results come back in ``configs`` order regardless of completion
    order.  Pooled runs are submitted individually and consumed as they
    complete (``submit`` + ``as_completed`` rather than a buffered
    ``pool.map``), which buys two things: a failing replicate raises as
    soon as *it* finishes instead of after everything queued before it;
    and Ctrl-C cancels the queued tail immediately instead of stalling
    behind the full map.
    """
    tasks = [(config, warmup) for config in configs]
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return [_execute(task) for task in tasks]
    ordered: list[Optional[RunResult]] = [None] * len(tasks)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(_execute, task): index
                   for index, task in enumerate(tasks)}
        for future in as_completed(futures):
            ordered[futures[future]] = future.result()
    except BaseException:
        # Includes KeyboardInterrupt and a replicate's own exception:
        # drop everything still queued so the pool exits promptly.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return ordered  # type: ignore[return-value]  # every slot is filled


def run_points(configs: Sequence[SystemConfig], profile: Profile,
               warmup: bool = False) -> list[list[RunResult]]:
    """Run every point's replicates in ONE :func:`run_sweep`.

    The (point × replicate) grid is flattened so a process pool chews the
    whole batch — a curve, or every curve of a figure — without idling
    between points; replicate ``r`` of every point runs under seed
    ``base_seed + r``.  Returns one list of replicate results per config,
    in ``configs`` order.
    """
    flat = [profile.apply(config, profile.base_seed + r)
            for config in configs for r in range(profile.replicates)]
    results = run_sweep(flat, warmup=warmup, workers=profile.workers)
    n = profile.replicates
    return [results[i * n:(i + 1) * n] for i in range(len(configs))]


def point_stats(results: Sequence[RunResult], config: SystemConfig,
                metric: Callable[[RunResult], float] | None = None,
                ) -> PointStats:
    """Aggregate one point's replicates (default: mean miss response).

    A NaN mean, stddev, *or* drop rate silently poisons every downstream
    consumer (saved figures, charts, the compare harness), so all three
    are inspected and the failing fields are named.
    """
    if metric is None:
        metric = lambda r: r.response_miss.mean  # noqa: E731
    stats = PointStats.of(results, metric)
    bad = [name for name in ("mean", "stddev", "drop_rate")
           if math.isnan(getattr(stats, name))]
    if bad:
        raise RuntimeError(
            f"sweep point produced NaN {'/'.join(bad)}: {config}")
    return stats


def run_replicated(config: SystemConfig, profile: Profile,
                   metric: Callable[[RunResult], float] | None = None,
                   ) -> PointStats:
    """Run one sweep point's replicates and aggregate them."""
    [results] = run_points([config], profile)
    return point_stats(results, config, metric)

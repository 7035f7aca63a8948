"""Noise-aware cross-run regression differ for saved figure JSONs.

Two runs of the same figure under different code versions should produce
statistically indistinguishable series; the paper's conclusions are
curve *shapes*, so silent series drift is the reproduction's real
regression risk.  This module diffs two ``results/figure_*.json`` files
(any schema version) in three layers:

1. **Structure** — series are aligned by label and points by x value.
   Missing/extra series, x values present on one side only, and a
   mismatched figure id are *structural* findings: the comparison is
   not meaningful point-for-point and the harness exits 2.
2. **Statistics** — per aligned point, a two-sided Welch's t-test over
   the recorded (mean, stddev, replicates) flags mean drift beyond
   replicate noise at significance ``alpha``.  Points without usable
   noise estimates (v1 archives with no stddev, single replicates,
   zero variance on both sides) fall back to a combined
   absolute/relative tolerance:  ``|a - b| <= tolerance * max(1, |a|,
   |b|)``.  Drop rates and quantile marks (p50/p90/p99) carry no
   recorded spread, so they always use the tolerance rule; quantiles
   absent on either side are skipped, not flagged.
3. **Provenance** — the two manifests are diffed key-by-key
   (:func:`repro.obs.manifest.diff_manifests`); run timestamps and
   wall times are ignored.  Manifest deltas are reported, never fatal:
   comparing two *code versions* is the whole point.

Exit-code contract (shared with ``repro-broadcast compare``):
0 = no drift, 1 = statistical drift, 2 = structural mismatch or a file
that fails to load.

The t-distribution survival function is evaluated with the regularized
incomplete beta function (Lentz's continued fraction), so the harness
needs nothing beyond the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.experiments.base import (
    FigureResult,
    FigureSeries,
    PointStats,
    load_figure,
)
from repro.obs.manifest import diff_manifests

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_TOLERANCE",
    "OK",
    "DRIFT",
    "STRUCTURAL",
    "PointDrift",
    "SeriesComparison",
    "FigureComparison",
    "welch_t",
    "student_t_sf",
    "compare_figures",
    "compare_files",
]

#: Default two-sided significance for the per-point Welch's t-test.
DEFAULT_ALPHA = 0.01
#: Default combined absolute/relative tolerance for the fallback rule.
DEFAULT_TOLERANCE = 1e-6

#: Verdict labels, in increasing severity (also the exit-code order).
OK = "OK"
DRIFT = "DRIFT"
STRUCTURAL = "STRUCTURAL"


# --------------------------------------------------------------------------
# Student's t survival function (no scipy: regularized incomplete beta).

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # Use the continued fraction on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """One-sided survival ``P(T >= t)`` of Student's t with ``df`` dof."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * _betainc(df / 2.0, 0.5, x)
    return tail if t >= 0 else 1.0 - tail


def welch_t(mean_a: float, std_a: float, n_a: int,
            mean_b: float, std_b: float, n_b: int,
            ) -> Optional[tuple[float, float]]:
    """Welch's unequal-variance t statistic and Satterthwaite dof.

    Returns ``None`` when the test is not applicable: fewer than two
    replicates on either side, or zero variance on both (the archives
    then carry no noise estimate and the tolerance rule applies).
    """
    if n_a < 2 or n_b < 2:
        return None
    var_a = (std_a * std_a) / n_a
    var_b = (std_b * std_b) / n_b
    se2 = var_a + var_b
    if se2 <= 0.0:
        return None
    t = (mean_a - mean_b) / math.sqrt(se2)
    denominator = 0.0
    if var_a > 0.0:
        denominator += var_a * var_a / (n_a - 1)
    if var_b > 0.0:
        denominator += var_b * var_b / (n_b - 1)
    if denominator <= 0.0:
        # var**2 underflowed to zero (subnormal stddevs): no usable dof.
        return None
    df = se2 * se2 / denominator
    return t, df


# --------------------------------------------------------------------------
# Comparison results.

@dataclass(frozen=True)
class PointDrift:
    """One flagged (series, x, metric) deviation."""

    series: str
    x: float
    metric: str
    left: float
    right: float
    #: Two-sided Welch p-value (None on the tolerance path).
    p_value: Optional[float]
    #: ``"welch"`` or ``"tolerance"``.
    method: str

    @property
    def delta(self) -> float:
        return self.right - self.left

    def to_dict(self) -> dict[str, Any]:
        return {
            "series": self.series, "x": self.x, "metric": self.metric,
            "left": self.left, "right": self.right, "delta": self.delta,
            "p_value": self.p_value, "method": self.method,
        }


@dataclass
class SeriesComparison:
    """Outcome for one label-aligned series pair."""

    label: str
    #: Structural findings (x-grid mismatches); non-empty => STRUCTURAL.
    issues: list[str]
    drifts: list[PointDrift]
    #: Aligned points actually compared.
    points_compared: int
    #: Informational skips (e.g. quantiles absent on one side).
    skipped: list[str]

    @property
    def verdict(self) -> str:
        if self.issues:
            return STRUCTURAL
        return DRIFT if self.drifts else OK

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label, "verdict": self.verdict,
            "points_compared": self.points_compared,
            "issues": list(self.issues),
            "skipped": list(self.skipped),
            "drifts": [d.to_dict() for d in self.drifts],
        }


@dataclass
class FigureComparison:
    """Full outcome of comparing two figure files."""

    left: str
    right: str
    alpha: float
    tolerance: float
    #: Figure-level structural findings (missing series, id mismatch).
    issues: list[str]
    #: Provenance deltas (dotted key -> (left value, right value)).
    manifest_diff: dict[str, tuple[Any, Any]]
    series: list[SeriesComparison]

    @property
    def verdict(self) -> str:
        verdicts = {s.verdict for s in self.series}
        if self.issues or STRUCTURAL in verdicts:
            return STRUCTURAL
        return DRIFT if DRIFT in verdicts else OK

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 = match, 1 = drift, 2 = structural."""
        return {OK: 0, DRIFT: 1, STRUCTURAL: 2}[self.verdict]

    @property
    def drifts(self) -> list[PointDrift]:
        return [d for s in self.series for d in s.drifts]

    def to_dict(self) -> dict[str, Any]:
        return {
            "left": self.left, "right": self.right,
            "verdict": self.verdict, "exit_code": self.exit_code,
            "alpha": self.alpha, "tolerance": self.tolerance,
            "issues": list(self.issues),
            "manifest_diff": {key: list(values) for key, values
                              in self.manifest_diff.items()},
            "series": [s.to_dict() for s in self.series],
        }


# --------------------------------------------------------------------------
# The differ.

def _within_tolerance(a: float, b: float, tolerance: float) -> bool:
    """Combined absolute/relative closeness (NaN == NaN for archives)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def _compare_mean(label: str, x: float, a: PointStats, b: PointStats,
                  alpha: float, tolerance: float) -> Optional[PointDrift]:
    """Welch's t-test on the point means, tolerance fallback."""
    test = welch_t(a.mean, a.stddev, a.replicates,
                   b.mean, b.stddev, b.replicates)
    if test is not None:
        t, df = test
        p_value = 2.0 * student_t_sf(abs(t), df)
        if p_value < alpha:
            return PointDrift(series=label, x=x, metric="mean",
                              left=a.mean, right=b.mean,
                              p_value=p_value, method="welch")
        return None
    if not _within_tolerance(a.mean, b.mean, tolerance):
        return PointDrift(series=label, x=x, metric="mean",
                          left=a.mean, right=b.mean,
                          p_value=None, method="tolerance")
    return None


def _compare_series(sa: FigureSeries, sb: FigureSeries, alpha: float,
                    tolerance: float) -> SeriesComparison:
    """Align one series pair by x value and compare every shared point."""
    issues: list[str] = []
    skipped: list[str] = []
    right_by_x = dict(zip(sb.x, sb.points))
    left_xs = set(sa.x)
    only_left = [x for x in sa.x if x not in right_by_x]
    only_right = [x for x in sb.x if x not in left_xs]
    if only_left:
        issues.append("x values only in left: "
                      + ", ".join(f"{x:g}" for x in only_left))
    if only_right:
        issues.append("x values only in right: "
                      + ", ".join(f"{x:g}" for x in only_right))

    drifts: list[PointDrift] = []
    compared = 0
    quantiles_skipped = False
    for x, pa in zip(sa.x, sa.points):
        pb = right_by_x.get(x)
        if pb is None:
            continue
        compared += 1
        drift = _compare_mean(sa.label, x, pa, pb, alpha, tolerance)
        if drift is not None:
            drifts.append(drift)
        if not _within_tolerance(pa.drop_rate, pb.drop_rate, tolerance):
            drifts.append(PointDrift(series=sa.label, x=x,
                                     metric="drop_rate",
                                     left=pa.drop_rate, right=pb.drop_rate,
                                     p_value=None, method="tolerance"))
        for name in ("p50", "p90", "p99"):
            qa, qb = getattr(pa, name), getattr(pb, name)
            if qa is None or qb is None:
                quantiles_skipped = quantiles_skipped or (qa is not qb)
                continue
            if not _within_tolerance(qa, qb, tolerance):
                drifts.append(PointDrift(series=sa.label, x=x, metric=name,
                                         left=qa, right=qb,
                                         p_value=None, method="tolerance"))
    if quantiles_skipped:
        skipped.append("quantiles present on one side only (pre-v2 "
                       "archive?) — not compared")
    return SeriesComparison(label=sa.label, issues=issues, drifts=drifts,
                            points_compared=compared, skipped=skipped)


def compare_figures(a: FigureResult, b: FigureResult, *,
                    alpha: float = DEFAULT_ALPHA,
                    tolerance: float = DEFAULT_TOLERANCE,
                    series: Optional[Sequence[str]] = None,
                    left: str = "left", right: str = "right",
                    ) -> FigureComparison:
    """Diff two loaded figures; see the module docstring for the model.

    Args:
        a, b: the figures to compare (``a`` is the reference side).
        alpha: two-sided significance for the Welch's t-test on means.
        tolerance: combined absolute/relative tolerance for points
            without noise estimates, drop rates, and quantiles.
        series: restrict the comparison to these labels (a label missing
            from either figure is a structural finding).
        left, right: display names for the two sides (file paths).
    """
    if alpha <= 0 or alpha >= 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    issues: list[str] = []
    if a.figure_id != b.figure_id:
        issues.append(f"figure id mismatch: {a.figure_id!r} vs "
                      f"{b.figure_id!r}")

    labels_a = [s.label for s in a.series]
    labels_b = [s.label for s in b.series]
    if series is not None:
        requested = list(series)
        for label in requested:
            for name, labels in ((left, labels_a), (right, labels_b)):
                if label not in labels:
                    issues.append(f"requested series {label!r} missing "
                                  f"from {name}")
        shared = [label for label in requested
                  if label in labels_a and label in labels_b]
    else:
        shared = [label for label in labels_a if label in labels_b]
        for label in labels_a:
            if label not in labels_b:
                issues.append(f"series {label!r} missing from {right}")
        for label in labels_b:
            if label not in labels_a:
                issues.append(f"series {label!r} missing from {left}")

    compared = [
        _compare_series(a.series_by_label(label), b.series_by_label(label),
                        alpha, tolerance)
        for label in shared
    ]
    return FigureComparison(
        left=left, right=right, alpha=alpha, tolerance=tolerance,
        issues=issues,
        manifest_diff=diff_manifests(a.manifest, b.manifest),
        series=compared,
    )


def compare_files(path_a, path_b, *, alpha: float = DEFAULT_ALPHA,
                  tolerance: float = DEFAULT_TOLERANCE,
                  series: Optional[Sequence[str]] = None,
                  ) -> FigureComparison:
    """Load and compare two figure JSON files.

    Load failures (missing file, bad JSON, truncated series) raise
    ``OSError``/``ValueError`` naming the path
    (:func:`~repro.experiments.base.load_figure`); the CLI maps them to
    exit code 2.
    """
    figure_a, figure_b = load_figure(path_a), load_figure(path_b)
    return compare_figures(figure_a, figure_b, alpha=alpha,
                           tolerance=tolerance, series=series,
                           left=str(path_a), right=str(path_b))

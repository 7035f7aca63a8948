"""Fairness statistics over per-user outcomes.

A mean response time can hide a population where a few clients starve:
the PullBW sweeps read identically in aggregate while the tail user waits
an order of magnitude longer than the median.  Jain's fairness index is
the standard scalar for this — 1.0 when every user experiences the same
wait, approaching ``1/n`` as one user dominates.  :data:`FAIRNESS_METRICS`
reads these statistics off a run, one figure series each.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.core.metrics import RunResult

__all__ = ["FAIRNESS_METRICS", "jain_index"]


def jain_index(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    Args:
        values: per-user non-negative quantities (e.g. mean waits).

    Returns:
        A value in ``(0, 1]``; 1.0 for a perfectly even allocation
        (including the all-zero one — nobody waits is perfectly fair),
        NaN for an empty population.

    Raises:
        ValueError: on negative or non-finite inputs — the index is only
            meaningful over non-negative allocations.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return math.nan
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value in fairness input")
    if (arr < 0).any():
        raise ValueError("negative value in fairness input")
    sum_sq = float(np.square(arr).sum())
    if sum_sq == 0.0:
        return 1.0
    total = float(arr.sum())
    return total * total / (arr.size * sum_sq)


def _fleet_stat(name: str) -> Callable[[RunResult], float]:
    def metric(result: RunResult) -> float:
        if result.fleet is None:
            raise ValueError("run carried no fleet statistics")
        return float(result.fleet[name])
    return metric


#: The fairness series of a fleet figure, all reduced from the same runs
#: (``FigureSpec.metrics``).
FAIRNESS_METRICS: Mapping[str, Callable[[RunResult], float]] = {
    "mean user wait": _fleet_stat("user_wait_mean"),
    "p99 user wait": _fleet_stat("user_wait_p99"),
    "max user wait": _fleet_stat("user_wait_max"),
    "min user wait": _fleet_stat("user_wait_min"),
    "jain index": _fleet_stat("jain_index"),
}

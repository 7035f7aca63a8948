"""``REPRESENTATIVE_POINTS`` under the name the benchmark spine imports.

``benchmarks/spine/workloads.py`` (not editable outside a ``benchmark``
PR) reads entries ``"3a"`` and ``"4b"`` from here; that is this module's
only reason to exist.  The table is derived: each figure's
representative point is a ``(series label, x)`` coordinate on its
:class:`~repro.experiments.figures.FigureSpec`.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.experiments.figures import FIGURES

__all__ = ["REPRESENTATIVE_POINTS"]

#: Figure id -> the configuration at that figure's representative point.
REPRESENTATIVE_POINTS: dict[str, SystemConfig] = {
    fig_id: spec.representative_config() for fig_id, spec in FIGURES.items()
}

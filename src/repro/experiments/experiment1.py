"""``figure_3a`` under the name the benchmark spine imports.

``benchmarks/spine/run.py`` (not editable outside a ``benchmark`` PR)
imports this module by path; it is the name's only reason to exist.
Everything else goes through :data:`repro.experiments.figures.FIGURES`
and :func:`~repro.experiments.figures.run_figure`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.base import FigureResult, PAPER_TTRS, Profile
from repro.experiments.figures import FIGURES, run_figure

__all__ = ["figure_3a"]


def figure_3a(profile: Profile, ttrs=PAPER_TTRS) -> FigureResult:
    """Figure 3(a) over the ``ttrs`` load grid (spine import contract)."""
    return run_figure(replace(FIGURES["3a"], xs=tuple(ttrs)), profile)

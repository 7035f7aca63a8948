"""The paper's experiments (Section 4): a table of figures, one sweep.

:data:`~repro.experiments.figures.FIGURES` holds the eleven figures of
Experiments 1–3 (3a … 8) as :class:`~repro.experiments.figures.FigureSpec`
rows — x axis, series, overrides — and
:func:`~repro.experiments.figures.run_figure` regenerates any of them at
a :class:`~repro.experiments.base.Profile` (``QUICK`` for fast
shape-checks, ``FULL`` for paper-scale runs), returning a
:class:`~repro.experiments.base.FigureResult` that renders as the same
series the paper plots.  :data:`~repro.experiments.figures.EXTENSIONS`
holds the figures beyond the paper on the same contract:
``fleet-pullbw`` (per-user fairness) and ``sched-pullbw`` (FIFO / RxW /
LWF pull disciplines), both across PullBW, and the push-side ablations.
Each row carries the shape claims its figure must show, judged by
:func:`~repro.experiments.figures.evaluate`.
"""

from repro.experiments.base import (
    FIGURE_SCHEMA_VERSION,
    FigureResult,
    FigureSeries,
    Profile,
    QUICK,
    FULL,
    figure_from_dict,
    load_figure,
    run_replicated,
    run_sweep,
)
from repro.experiments.compare import (
    FigureComparison,
    compare_figures,
    compare_files,
)
from repro.experiments.figures import (
    EXTENSIONS,
    FIGURES,
    FigureSpec,
    SeriesSpec,
    evaluate,
    run_figure,
)
from repro.experiments.reporting import render_figure
from repro.experiments.tracing import write_request_trace, write_slot_trace

__all__ = [
    "FIGURE_SCHEMA_VERSION",
    "FigureResult",
    "FigureSeries",
    "Profile",
    "QUICK",
    "FULL",
    "figure_from_dict",
    "load_figure",
    "run_replicated",
    "run_sweep",
    "FigureComparison",
    "compare_figures",
    "compare_files",
    "evaluate",
    "EXTENSIONS",
    "FIGURES",
    "FigureSpec",
    "SeriesSpec",
    "run_figure",
    "render_figure",
    "write_request_trace",
    "write_slot_trace",
]

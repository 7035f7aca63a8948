"""The paper's experiments (Section 4), one function per figure.

- Experiment 1 (:mod:`~repro.experiments.experiment1`): basic push/pull
  tradeoffs — Figures 3(a), 3(b), 4(a), 4(b), 5(a), 5(b),
- Experiment 2 (:mod:`~repro.experiments.experiment2`): reducing
  backchannel usage with thresholds — Figures 6(a), 6(b),
- Experiment 3 (:mod:`~repro.experiments.experiment3`): restricting the
  push schedule — Figures 7(a), 7(b), 8.

Each figure function takes a :class:`~repro.experiments.base.Profile`
(``QUICK`` for fast shape-checks, ``FULL`` for paper-scale runs) and
returns a :class:`~repro.experiments.base.FigureResult` that renders as the
same series the paper plots.
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
    sweep_series,
    sweep_series_multi,
)
from repro.experiments.compare import (
    FigureComparison,
    compare_figures,
    compare_files,
)
from repro.experiments.experiment1 import (
    figure_3a,
    figure_3b,
    figure_4,
    figure_5,
)
from repro.experiments.experiment2 import figure_6
from repro.experiments.experiment3 import figure_7, figure_8
from repro.experiments.points import REPRESENTATIVE_POINTS, representative_config
from repro.experiments.reporting import render_figure
from repro.experiments.schedulers import (
    discipline_summary,
    sched_sweep_figure,
)
from repro.experiments.tracing import (
    trace_representative,
    write_request_trace,
    write_slot_trace,
)

ALL_FIGURES = {
    "3a": figure_3a,
    "3b": figure_3b,
    "4a": lambda profile, **kw: figure_4(profile, think_time_ratio=25, **kw),
    "4b": lambda profile, **kw: figure_4(profile, think_time_ratio=250, **kw),
    "5a": lambda profile, **kw: figure_5(profile, variant="pull", **kw),
    "5b": lambda profile, **kw: figure_5(profile, variant="ipp", **kw),
    "6a": lambda profile, **kw: figure_6(profile, pull_bw=0.50, **kw),
    "6b": lambda profile, **kw: figure_6(profile, pull_bw=0.30, **kw),
    "7a": lambda profile, **kw: figure_7(profile, thresh_perc=0.0, **kw),
    "7b": lambda profile, **kw: figure_7(profile, thresh_perc=0.35, **kw),
    "8": figure_8,
}

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
    "sweep_series",
    "sweep_series_multi",
    "FigureComparison",
    "compare_figures",
    "compare_files",
    "figure_3a",
    "figure_3b",
    "figure_4",
    "figure_5",
    "figure_6",
    "figure_7",
    "figure_8",
    "render_figure",
    "sched_sweep_figure",
    "discipline_summary",
    "ALL_FIGURES",
    "REPRESENTATIVE_POINTS",
    "representative_config",
    "trace_representative",
    "write_request_trace",
    "write_slot_trace",
]

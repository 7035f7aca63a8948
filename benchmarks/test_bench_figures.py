"""Regenerate every figure of Section 4, and the push-side ablation rows,
and judge each row's claims on it.

What each figure must show is data on its row (``FigureSpec.claims`` in
``repro/experiments/figures.py``); this bench fails if any claim is
false at the bench's scale.
"""

import pytest

from benchmarks.conftest import BENCH, BENCH5, PUSH_BENCH, run_once
from repro.experiments import EXTENSIONS, FIGURES, evaluate, run_figure

#: Each bench row's profile, when not ``BENCH``.
PROFILES = {"5a": BENCH5, "5b": BENCH5,
            "cache-policy": PUSH_BENCH, "push-program": PUSH_BENCH}
ROWS = {**FIGURES, "cache-policy": EXTENSIONS["cache-policy"],
        "push-program": EXTENSIONS["push-program"]}


@pytest.mark.parametrize("figure_id", ROWS)
def test_figure(benchmark, record_figure, figure_id):
    spec = ROWS[figure_id]
    profile = PROFILES.get(figure_id, BENCH)
    figure = record_figure(run_once(benchmark,
                                    lambda: run_figure(spec, profile)))
    verdicts = evaluate(spec, figure)
    print("\n".join(map(str, verdicts)))
    assert all(verdict.holds for verdict in verdicts), \
        [str(verdict) for verdict in verdicts if not verdict.holds]

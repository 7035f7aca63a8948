"""The figure rows' claims and their one evaluator, without simulating."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.algorithms import Algorithm
from repro.experiments import EXTENSIONS, FIGURES, evaluate, load_figure
from repro.experiments.base import FigureResult, FigureSeries, PointStats
from repro.experiments.figures import (
    Below,
    CrossesLater,
    FigureSpec,
    Flat,
    Gap,
    Highest,
    Lowest,
    Monotone,
    Ratio,
    SeriesSpec,
)
from tests.conftest import regrid

RESULTS = Path(__file__).resolve().parents[2] / "results"
#: Every row with an archive: the fleet and discipline sweeps have none.
ARCHIVED = {**FIGURES, "cache-policy": EXTENSIONS["cache-policy"],
            "push-program": EXTENSIONS["push-program"]}


def test_every_paper_figure_and_ablation_row_is_archived():
    assert len(FIGURES) == 11 and len(ARCHIVED) == 13
    assert all((RESULTS / f"figure_{fig_id}.json").is_file()
               for fig_id in ARCHIVED)


@pytest.mark.parametrize("fig_id", ARCHIVED)
def test_claims_hold_on_the_archived_figure(fig_id):
    spec = ARCHIVED[fig_id]
    verdicts = evaluate(spec, load_figure(RESULTS / f"figure_{fig_id}.json"))
    assert len(verdicts) == len(spec.claims) > 0
    assert [str(v) for v in verdicts if not v.holds] == []


def toy_spec(*claims):
    return FigureSpec(
        "toy", "toy", "x", "y", x_key="client__think_time_ratio",
        xs=(1, 2, 3), series=tuple(SeriesSpec(label, Algorithm.IPP)
                                   for label in ("A", "B", "Push")),
        representative=("A", 1), claims=claims)


def toy_figure(**curves):
    """Curve label -> its y at x = 1, 2, 3 (Push: 5 throughout)."""
    curves.setdefault("Push", [5, 5, 5])
    return FigureResult("toy", "toy", "x", "y", series=[
        FigureSeries(label, [1, 2, 3], [
            PointStats(mean=y, stddev=0.0, replicates=1, drop_rate=0.0)
            for y in ys])
        for label, ys in curves.items()])


#: ``(claim, curves it holds on, curves it fails on)``, each kind and
#: term at least once.
CASES = [
    (Below(("A", 1), ("B", 1)), dict(A=[1, 0, 0], B=[2, 0, 0]),
     dict(A=[2, 0, 0], B=[2, 0, 0])),
    (Below(("A", 1), ("B", 1), strict=False), dict(A=[2, 0, 0], B=[2, 0, 0]),
     dict(A=[3, 0, 0], B=[2, 0, 0])),
    (Below(("A", 2), ("B", 3), factor=2), dict(A=[0, 1, 0], B=[0, 0, 3]),
     dict(A=[0, 1, 0], B=[0, 0, 2])),
    (Below(Gap(("A", 1), ("B", 1)), 1.0), dict(A=[4, 0, 0], B=[4.5, 0, 0]),
     dict(A=[4, 0, 0], B=[3, 0, 0])),
    (Below(Ratio(("A", 3), ("B", 3)), 2), dict(A=[0, 0, 3], B=[0, 0, 2]),
     dict(A=[0, 0, 4], B=[0, 0, 2])),
    (Below(Lowest("A"), ("A", 1)), dict(A=[3, 4, 2]), dict(A=[3, 4, 3])),
    # A peak mid-axis: neither the first nor the last point is the max.
    (Below(("B", 1), Highest("A")), dict(A=[1, 5, 2], B=[3, 0, 0]),
     dict(A=[1, 2, 2], B=[3, 0, 0])),
    (Flat("A"), dict(A=[1, 1, 1]), dict(A=[1, 1, 1.5])),
    (Monotone("A"), dict(A=[1, 2, 2]), dict(A=[1, 3, 2])),
    (CrossesLater("A", "B"), dict(A=[1, 1, 6], B=[1, 6, 6]),
     dict(A=[1, 6, 6], B=[1, 6, 6])),
    (CrossesLater("A", "B", strict=False), dict(A=[1, 1, 1], B=[1, 6, 6]),
     dict(A=[6, 6, 6], B=[1, 6, 6])),
]


@pytest.mark.parametrize("claim, holds, fails", CASES,
                         ids=[str(case[0]) for case in CASES])
def test_each_kind_judges_true_and_false(claim, holds, fails):
    spec = toy_spec(claim)
    [verdict] = evaluate(spec, toy_figure(**holds))
    assert verdict.holds and str(verdict).startswith("✓ ")
    [verdict] = evaluate(spec, toy_figure(**fails))
    assert not verdict.holds and str(verdict).startswith("✗ ")


def test_a_claim_naming_no_curve_fails_construction_in_one_line():
    with pytest.raises(ValueError) as exc:
        replace(FIGURES["3a"], claims=(Below(("Push", 10), ("Pull 5%", 10)),))
    [line] = str(exc.value).splitlines()
    assert line.endswith("names no curve of the figure: Pull 5%")
    with pytest.raises(ValueError):  # the curve is "pix all-access mean"
        replace(EXTENSIONS["cache-policy"], claims=(Flat("pix"),))
    for xs in ((10, 25, 50), (2, 5)):  # x values are not checked
        assert regrid(FIGURES["3a"], xs).claims == FIGURES["3a"].claims


#: A row that constructed and must not -> the one line it now raises.
#: Claims read the grid in order; ``trace`` / ``sanitize --figure`` and
#: ``figures --trace`` stand on the representative point.
BAD_ROWS = {
    "empty grid": (
        "3a", {"xs": ()},
        "client.think_time_ratio grid of figure 3a must not be empty"),
    "non-finite x": (
        "3a", {"xs": (10, 25, math.nan)},
        "client.think_time_ratio grid of figure 3a must be finite, "
        "got (10, 25, nan)"),
    "decreasing grid": (
        "3a", {"xs": (25, 10)},
        "client.think_time_ratio grid of figure 3a must be strictly "
        "increasing, got (25, 10)"),
    "repeated x": (
        "4a", {"xs": (10.0, 95.0, 95.0)},
        "x grid of figure 4a must be strictly increasing, "
        "got (10.0, 95.0, 95.0)"),
    "representative names no series": (
        "3a", {"representative": ("IPP 5%", 10)},
        "figure 3a: representative 'IPP 5%' names no series of the figure"),
    "representative off the grid": (
        "3a", {"representative": ("IPP 95%", 30)},
        "figure 3a: representative x=30 is not on the grid "
        "(10, 25, 50, 100, 250)"),
}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_a_malformed_grid_or_representative_fails_construction(case):
    fig_id, changes, message = BAD_ROWS[case]
    with pytest.raises(ValueError) as exc:
        replace(FIGURES[fig_id], **changes)
    assert str(exc.value).splitlines() == [message]


def test_a_missing_point_raises_never_holds():
    spec = toy_spec(Below(("A", 1), ("B", 4)))
    with pytest.raises(ValueError, match="'B' has no point at x=4"):
        evaluate(spec, toy_figure(A=[0, 0, 0], B=[1, 1, 1]))
    with pytest.raises(KeyError):
        evaluate(spec, toy_figure(A=[0, 0, 0]))
    with pytest.raises(ValueError, match="figure 3a is not toy"):
        evaluate(spec, load_figure(RESULTS / "figure_3a.json"))


def test_report_prints_a_verdict_per_claim_and_exits_1_on_a_false_one(
        tmp_path, capsys):
    data = json.loads((RESULTS / "figure_7a.json").read_text())
    data["series"][0]["y"][-1] += 1.0  # Push is no longer flat
    (tmp_path / "7a.json").write_text(json.dumps(data))
    assert main(["report", str(RESULTS / "figure_7a.json")]) == 0
    assert main(["report", str(tmp_path / "7a.json")]) == 1
    out = capsys.readouterr().out
    assert out.count("  ✓ ") == 2 * len(FIGURES["7a"].claims) - 1
    assert "  ✗ Push is flat  (2 distinct value(s))" in out

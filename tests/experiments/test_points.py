"""Each figure's representative point, and the table derived from them.

``REPRESENTATIVE_POINTS`` is a comprehension over ``FIGURES`` (kept for
the benchmark spine), so the two cannot drift apart; what can go wrong
is a ``(series label, x)`` coordinate that names nothing on its figure.
"""

from repro.experiments.figures import FIGURES
from repro.experiments.points import REPRESENTATIVE_POINTS


def test_every_figure_has_a_representative_point():
    for fig_id, spec in FIGURES.items():
        label, x = spec.representative
        assert label in [s.label for s in spec.series], fig_id
        assert x in spec.xs, fig_id
        assert spec.representative_config() == spec.config(label, x)
        # A point worth tracing has a backchannel.
        assert spec.representative_config().algorithm.value \
            in ("ipp", "pure-pull"), fig_id


def test_representative_configs_are_runnable():
    # Cheap structural check: every point is a complete SystemConfig whose
    # algorithm/figure pairing makes sense for tracing.
    assert len(REPRESENTATIVE_POINTS) == 11
    for fig_id, config in REPRESENTATIVE_POINTS.items():
        assert config.client.cache_size > 0, fig_id
        assert config.run.seed is not None, fig_id

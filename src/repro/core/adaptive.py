"""Dynamic PullBW / threshold control — the paper's future work (§6).

    "We also see the utility in developing more dynamic algorithms that can
    adjust to changes in the system load.  For example, as the contention
    on the server increases, a dynamic algorithm might automatically reduce
    the pull bandwidth at the server and also use a larger threshold at the
    client."

:class:`AdaptiveController` implements exactly that policy as an
additive-increase / additive-decrease loop over one observed signal:
the backchannel queue's window **drop rate**, computed over *distinct*
offers (``enqueued + dropped``; duplicates neither take a slot nor can
be dropped, so counting them would dilute the signal — at high load
most offers for hot pages are duplicates).

Under saturation it steps the threshold up and the pull bandwidth down
(strengthening the push safety net); when the drop rate reads idle it
relaxes both so light-load responsiveness returns.  A window with zero
distinct offers carries *no signal* — the clients may simply be blocked
on long waits — so parameters hold and the window is traced as
``no-signal`` (relaxing on silence was a bug: a saturated system whose
clients are all stuck waiting looks exactly like an idle one through the
drop-rate lens).

The fast engine hands a supplied controller to its
:class:`~repro.core.runtime.ControlPlane`, which calls :meth:`decide`
every ``interval`` slots and applies the result.

On the re-checked ``high_drop`` / ``low_drop`` defaults: moving to the
distinct-offers denominator can only *raise* a window's measured drop
rate (the denominator shrinks, the numerator is unchanged), so the
historic 0.10 / 0.01 cut points now trigger the saturation response
earlier and hold the idle response longer — the conservative direction.
They remain the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import Settings, setting

__all__ = ["AdaptivePolicy", "AdaptiveController"]

#: Trace reasons a control decision can record.
_SATURATED, _IDLE, _HOLD, _NO_SIGNAL = (
    "saturated", "idle", "hold", "no-signal")


@dataclass(frozen=True)
class AdaptivePolicy(Settings, prefix="adaptive"):
    """Tuning knobs for the adaptive controller."""

    #: Slots between control decisions.
    interval: int = setting(2000, int, ge=1)
    #: Window drop rate (over distinct offers) above which the system is
    #: considered saturated.
    high_drop: float = setting(0.10, float, ge=0, le=1)
    #: Window drop rate below which the system is considered idle.
    low_drop: float = setting(0.01, float, ge=0, le=1)
    #: Per-decision adjustment of ThresPerc (fraction of the major cycle).
    thresh_step: float = setting(0.05, float, ge=0, le=1)
    #: Per-decision adjustment of PullBW.
    pull_bw_step: float = setting(0.05, float, ge=0, le=1)
    #: Bounds for the controlled parameters.
    min_pull_bw: float = setting(0.10, float, ge=0, le=1)
    max_pull_bw: float = setting(0.90, float, ge=0, le=1)
    min_thresh: float = setting(0.0, float, ge=0, le=1)
    max_thresh: float = setting(0.75, float, ge=0, le=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        for low, high in (("low_drop", "high_drop"),
                          ("min_pull_bw", "max_pull_bw"),
                          ("min_thresh", "max_thresh")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(
                    f"adaptive.{low} must be <= adaptive.{high} "
                    f"{getattr(self, high)!r}, got {getattr(self, low)!r}")


class AdaptiveController:
    """Feedback loop over the queue's drop rate → (PullBW, ThresPerc).

    The engine calls :meth:`decide` once per control interval with the
    queue's cumulative *distinct* counters; the controller differences
    them into windows and returns the parameters to apply next.
    """

    def __init__(self, policy: AdaptivePolicy, pull_bw: float,
                 thresh_perc: float):
        self.policy = policy
        self.pull_bw = min(max(pull_bw, policy.min_pull_bw),
                           policy.max_pull_bw)
        self.thresh_perc = min(max(thresh_perc, policy.min_thresh),
                               policy.max_thresh)
        self._last_offers = 0
        self._last_dropped = 0
        #: (time, pull_bw, thresh_perc, window_drop_rate, reason) per
        #: decision; drop rate is NaN for no-signal windows, and reason
        #: is one of "saturated" / "idle" / "hold" / "no-signal".
        self.trace: list[tuple[float, float, float, float, str]] = []

    def _window(self, total: int, last: int) -> int:
        """Difference a cumulative counter, tolerating engine resets."""
        window = total - last
        # A negative window means the engine reset its cumulative
        # counters at a measurement phase boundary; the window restarts
        # from the new totals.
        return total if window < 0 else window

    def decide(self, now: float, total_offers: int,
               total_dropped: int) -> tuple[float, float]:
        """One control decision; returns ``(pull_bw, thresh_perc)``.

        Args:
            now: decision time (slots).
            total_offers: cumulative *distinct* offers
                (``queue.enqueued + queue.dropped``).
            total_dropped: cumulative dropped offers.
        """
        window_offers = self._window(total_offers, self._last_offers)
        window_dropped = self._window(total_dropped, self._last_dropped)
        self._last_offers = total_offers
        self._last_dropped = total_dropped

        if window_offers == 0:
            # Zero distinct offers carry no signal: the backchannel may be
            # silent because clients are blocked waiting, not because the
            # system is idle.  Hold everything (relaxing here was a bug).
            self.trace.append((now, self.pull_bw, self.thresh_perc,
                               math.nan, _NO_SIGNAL))
            return self.pull_bw, self.thresh_perc

        policy = self.policy
        drop_rate = window_dropped / window_offers
        if drop_rate > policy.high_drop:
            # Conserve the backchannel, strengthen the push safety net.
            self.thresh_perc = min(self.thresh_perc + policy.thresh_step,
                                   policy.max_thresh)
            self.pull_bw = max(self.pull_bw - policy.pull_bw_step,
                               policy.min_pull_bw)
            reason = _SATURATED
        elif drop_rate < policy.low_drop:
            # Relax toward responsive pull-heavy operation.
            self.thresh_perc = max(self.thresh_perc - policy.thresh_step,
                                   policy.min_thresh)
            self.pull_bw = min(self.pull_bw + policy.pull_bw_step,
                               policy.max_pull_bw)
            reason = _IDLE
        else:
            reason = _HOLD
        self.trace.append((now, self.pull_bw, self.thresh_perc, drop_rate,
                           reason))
        return self.pull_bw, self.thresh_perc

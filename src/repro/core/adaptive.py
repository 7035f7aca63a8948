"""Dynamic PullBW / threshold control — the paper's future work (§6).

    "We also see the utility in developing more dynamic algorithms that can
    adjust to changes in the system load.  For example, as the contention
    on the server increases, a dynamic algorithm might automatically reduce
    the pull bandwidth at the server and also use a larger threshold at the
    client."

:class:`AdaptiveController` implements exactly that policy as an
additive-increase / additive-decrease loop over three observed signals:

- the backchannel queue's window **drop rate**, computed over *distinct*
  offers (``enqueued + dropped``; duplicates neither take a slot nor can
  be dropped, so counting them would dilute the signal — at high load
  most offers for hot pages are duplicates),
- optionally the request tracer's **wait decomposition**: the share of
  measured queue wait spent in the pull queue vs waiting for the push
  program.  A pull-dominated share means the backchannel is the
  bottleneck even while the queue is deep-but-not-dropping, which window
  drop rate alone cannot see,
- optionally the fleet's **tail wait** (per-user p99) against a budget,
  so PullBW reacts to tail users, not just the aggregate mean.

Under saturation it steps the threshold up and the pull bandwidth down
(strengthening the push safety net); when every signal reads idle it
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
from typing import Optional

__all__ = ["AdaptivePolicy", "AdaptiveController"]

#: Trace reasons a control decision can record.
_SATURATED, _IDLE, _HOLD, _NO_SIGNAL = (
    "saturated", "idle", "hold", "no-signal")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Tuning knobs for the adaptive controller."""

    #: Slots between control decisions.
    interval: int = 2000
    #: Window drop rate (over distinct offers) above which the system is
    #: considered saturated.
    high_drop: float = 0.10
    #: Window drop rate below which the drop signal reads idle.
    low_drop: float = 0.01
    #: Pull share of the window's queue wait (pull / (pull + push)) above
    #: which the backchannel counts as the bottleneck even without drops.
    #: The default 1.0 can never be exceeded, i.e. the decomposition
    #: signal is opt-in; it only acts when the engine feeds wait totals
    #: from a request tracer.
    high_pull_share: float = 1.0
    #: Fleet per-user p99 wait (broadcast units) above which the tail is
    #: considered saturated; None disables the tail-wait input.
    tail_wait_budget: Optional[float] = None
    #: Per-decision adjustment of ThresPerc (fraction of the major cycle).
    thresh_step: float = 0.05
    #: Per-decision adjustment of PullBW.
    pull_bw_step: float = 0.05
    #: Bounds for the controlled parameters.
    min_pull_bw: float = 0.10
    max_pull_bw: float = 0.90
    min_thresh: float = 0.0
    max_thresh: float = 0.75

    def __post_init__(self):
        if self.interval < 1:
            raise ValueError("interval must be positive")
        if not 0.0 <= self.low_drop <= self.high_drop <= 1.0:
            raise ValueError("need 0 <= low_drop <= high_drop <= 1")
        if not 0.0 < self.high_pull_share <= 1.0:
            raise ValueError("high_pull_share must be within (0, 1]")
        if self.tail_wait_budget is not None and self.tail_wait_budget <= 0:
            raise ValueError("tail_wait_budget must be positive")
        if not 0.0 <= self.min_pull_bw <= self.max_pull_bw <= 1.0:
            raise ValueError("invalid pull_bw bounds")
        if not 0.0 <= self.min_thresh <= self.max_thresh <= 1.0:
            raise ValueError("invalid threshold bounds")


class AdaptiveController:
    """Feedback loop over traced signals → (PullBW, ThresPerc).

    The engine calls :meth:`decide` once per control interval with the
    queue's cumulative *distinct* counters (and, when available, the
    request tracer's cumulative wait decomposition and the fleet's
    current per-user p99); the controller differences the cumulative
    inputs into windows and returns the parameters to apply next.
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
        self._last_push_wait = 0.0
        self._last_pull_wait = 0.0
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

    def decide(self, now: float, total_offers: int, total_dropped: int, *,
               push_wait: Optional[float] = None,
               pull_wait: Optional[float] = None,
               tail_wait: Optional[float] = None) -> tuple[float, float]:
        """One control decision; returns ``(pull_bw, thresh_perc)``.

        Args:
            now: decision time (slots).
            total_offers: cumulative *distinct* offers
                (``queue.enqueued + queue.dropped``).
            total_dropped: cumulative dropped offers.
            push_wait / pull_wait: cumulative wait decomposition totals
                from a request tracer (``WaitBreakdown.push_wait`` /
                ``.pull_wait``), or None when no tracer is attached.
            tail_wait: the fleet's current per-user p99 wait, or None.
        """
        window_offers = self._window(total_offers, self._last_offers)
        window_dropped = self._window(total_dropped, self._last_dropped)
        self._last_offers = total_offers
        self._last_dropped = total_dropped

        pull_share: Optional[float] = None
        if push_wait is not None and pull_wait is not None:
            window_push = push_wait - self._last_push_wait
            window_pull = pull_wait - self._last_pull_wait
            if window_push < 0 or window_pull < 0:  # tracer was swapped
                window_push, window_pull = push_wait, pull_wait
            self._last_push_wait = push_wait
            self._last_pull_wait = pull_wait
            window_wait = window_push + window_pull
            if window_wait > 0:
                pull_share = window_pull / window_wait

        policy = self.policy
        tail_over = (tail_wait is not None
                     and policy.tail_wait_budget is not None
                     and tail_wait > policy.tail_wait_budget)

        if window_offers == 0 and not tail_over:
            # Zero distinct offers carry no signal: the backchannel may be
            # silent because clients are blocked waiting, not because the
            # system is idle.  Hold everything (relaxing here was a bug).
            self.trace.append((now, self.pull_bw, self.thresh_perc,
                               math.nan, _NO_SIGNAL))
            return self.pull_bw, self.thresh_perc

        drop_rate = (window_dropped / window_offers
                     if window_offers else 0.0)
        saturated = (drop_rate > policy.high_drop
                     or (pull_share is not None
                         and pull_share > policy.high_pull_share)
                     or tail_over)
        idle = (not saturated
                and drop_rate < policy.low_drop
                and (pull_share is None
                     or pull_share <= policy.high_pull_share))

        if saturated:
            # Conserve the backchannel, strengthen the push safety net.
            self.thresh_perc = min(self.thresh_perc + policy.thresh_step,
                                   policy.max_thresh)
            self.pull_bw = max(self.pull_bw - policy.pull_bw_step,
                               policy.min_pull_bw)
            reason = _SATURATED
        elif idle:
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

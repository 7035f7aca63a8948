"""Live terminal telemetry: sweep progress and net STATS frames.

One rendering vocabulary for both halves of the system:

- :class:`SweepMonitor` implements the
  :class:`~repro.experiments.base.SweepProgress` protocol, so
  ``figures --watch`` streams per-replicate completions (completed /
  total, running means, p50/p90 of replicate means, ETA) onto the
  terminal while a sweep runs;
- :func:`render_stats_frame` renders the STATS payload shape the
  ``repro.net`` server and client fleet already exchange
  (:meth:`~repro.net.server.NetServer.stats_snapshot`), so ``serve
  --watch`` and ``loadgen --watch`` reuse the same frame writer.

The :class:`Dashboard` frame writer redraws in place on a tty (cursor-up
+ clear-line ANSI, no external deps) and degrades to throttled plain
frames when the stream is a pipe or file.

This module measures wall-clock time by design (frame throttling, ETA),
so it is on the host-clock allowlist in ``tests/lint/test_repo_clean.py``.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Optional, TextIO

from repro.sim.monitor import Histogram

__all__ = [
    "Dashboard",
    "SweepMonitor",
    "render_stats_frame",
]


class Dashboard:
    """In-place multi-line terminal frame writer.

    On a tty, each :meth:`show` repaints the previous frame's lines
    (cursor-up + erase-line); elsewhere it appends whole frames,
    throttled by ``interval`` seconds so a pipe does not fill with
    thousands of near-identical frames.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 interval: float = 0.5):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        isatty = getattr(self.stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False
        self._lines = 0
        self._last = -math.inf

    def show(self, frame: str, force: bool = False) -> bool:
        """Render ``frame`` (multi-line text); returns False if throttled."""
        now = time.monotonic()
        if not force and now - self._last < self.interval:
            return False
        self._last = now
        lines = frame.splitlines() or [""]
        if not self._tty:
            self.stream.write(frame + "\n")
            self.stream.flush()
            return True
        parts = []
        if self._lines:
            parts.append(f"\x1b[{self._lines}F")  # up to the frame's top
        parts.extend(f"\x1b[2K{line}\n" for line in lines)
        stale = self._lines - len(lines)
        if stale > 0:  # the old frame was taller: blank the leftovers
            parts.append("\x1b[2K\n" * stale)
            parts.append(f"\x1b[{stale}F")
        self.stream.write("".join(parts))
        self.stream.flush()
        self._lines = len(lines)
        return True

    def close(self, frame: Optional[str] = None) -> None:
        """Paint a final frame (unthrottled) and stop tracking lines.

        The final frame is left on screen; subsequent output continues
        below it.
        """
        if frame is not None:
            self.show(frame, force=True)
        self._lines = 0


def _hms(seconds: float) -> str:
    if not math.isfinite(seconds):
        return "--:--"
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(min(1.0, max(0.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


class SweepMonitor:
    """Aggregates per-replicate sweep completions for live display.

    Satisfies :class:`~repro.experiments.base.SweepProgress`: install it
    with :func:`~repro.experiments.base.sweep_progress` (or pass it to
    ``run_sweep(progress=...)``) and every replicate completion updates
    its counts, a histogram of replicate mean waits and the optional
    :class:`Dashboard`: a progress bar, running mean / p50 / p90 of the
    completed replicates' mean waits, and a rate-based ETA.

    ``run_figure`` announces a figure's every run in one sweep, so
    ``figures --watch`` totals the whole figure from its first frame.  A
    monitor left installed across several sweeps adds each announcement
    to its total (the ETA is then a lower bound until the last one).
    """

    def __init__(self, dashboard: Optional[Dashboard] = None,
                 title: str = "sweep"):
        self.dashboard = dashboard
        self.title = title
        #: Replicates announced / finished so far.
        self.total = 0
        self.completed = 0
        #: Label of the sweep announced last, and its latest mean wait.
        self.label: Optional[str] = None
        self.last_mean = math.nan
        self._hist = Histogram(
            "sweep_replicate_mean_wait", "per-replicate mean response times")
        self._started_at = time.monotonic()

    # -- SweepProgress protocol --------------------------------------------
    def sweep_started(self, total: int, label: Optional[str]) -> None:
        self.total += total
        self.label = label
        if self.dashboard is not None:
            self.dashboard.show(self.render())

    def replicate_done(self, index: int, result) -> None:
        self.completed += 1
        mean = getattr(getattr(result, "response_miss", None), "mean",
                       math.nan)
        if mean is not None and not math.isnan(mean):
            self.last_mean = mean
            self._hist.observe(mean)
        if self.dashboard is not None:
            self.dashboard.show(self.render())

    # -- derived views -----------------------------------------------------
    def overall_histogram(self) -> Histogram:
        """Every completed replicate's mean wait, across all sweeps."""
        return self._hist

    def eta_seconds(self) -> Optional[float]:
        """Rate-based remaining time over the *announced* replicates.

        None before the first completion.
        """
        if self.completed == 0:
            return None
        elapsed = time.monotonic() - self._started_at
        remaining = max(0, self.total - self.completed)
        return remaining * elapsed / self.completed

    def render(self) -> str:
        """The dashboard frame (also the final summary on finish)."""
        fraction = self.completed / self.total if self.total else 0.0
        elapsed = time.monotonic() - self._started_at
        eta = self.eta_seconds()
        lines = [
            f"{self.title}  [{_bar(fraction)}] {self.completed}/{self.total} "
            f"replicates  elapsed {_hms(elapsed)}  eta "
            f"{_hms(eta) if eta is not None else '--:--'}"
        ]
        if self._hist.count:
            lines.append(
                f"  mean wait {self._hist.mean:.1f}  "
                f"p50 {self._hist.quantile(0.5):.1f}  "
                f"p90 {self._hist.quantile(0.9):.1f}  (broadcast units, over "
                f"replicate means)")
        if self.label is not None or not math.isnan(self.last_mean):
            detail = (f"  last mean {self.last_mean:.1f}"
                      if not math.isnan(self.last_mean) else "")
            lines.append(f"  current: {self.label or 'sweep'}{detail}")
        return "\n".join(lines)

    def finish(self) -> None:
        """Paint the final frame and release the dashboard."""
        if self.dashboard is not None:
            self.dashboard.close(self.render())


# -- net STATS frames --------------------------------------------------------

def _metric_value(metrics: dict, name: str) -> Optional[float]:
    state = metrics.get(name)
    if isinstance(state, dict) and "value" in state:
        return state["value"]
    return None


def render_stats_frame(stats: dict, title: str = "server") -> str:
    """Render one STATS payload as a dashboard frame.

    ``stats`` is the :meth:`~repro.net.server.NetServer.stats_snapshot`
    shape — ``{"slot", "slot_duration", "connected_clients", "server",
    "metrics"}`` — but every key is optional, so the fleet side can
    render partial payloads (its own registry snapshot plus whatever the
    server reported) through the same function.
    """
    lines = [f"{title}  slot {stats.get('slot', '-')}"
             + (f"  clients {stats['connected_clients']}"
                if "connected_clients" in stats else "")]
    server = stats.get("server") or {}
    queue = server.get("queue") or {}
    if queue:
        depth = queue.get("depth", "-")
        capacity = queue.get("capacity", "-")
        drop_rate = queue.get("drop_rate", 0.0)
        lines.append(f"  queue {depth}/{capacity}  served "
                     f"{queue.get('served', '-')}  drop rate "
                     f"{drop_rate:.1%}")
    slots = server.get("slots") or {}
    if slots:
        mix = "  ".join(f"{kind} {count}" for kind, count in
                        sorted(slots.items()))
        lines.append(f"  slots {mix}")
    metrics = stats.get("metrics") or {}
    counters = [(name.removeprefix("net_").removesuffix("_total"), value)
                for name in ("net_frames_sent_total", "net_frames_shed_total",
                             "net_requests_received_total",
                             "net_clients_dropped_total",
                             "net_lagging_slots_total")
                if (value := _metric_value(metrics, name)) is not None]
    if counters:
        lines.append("  net " + "  ".join(f"{name} {value:g}"
                                          for name, value in counters))
    latency = metrics.get("fleet_latency_seconds") or {}
    if latency.get("count"):
        lines.append("  fleet latency (s)  " + "  ".join(
            f"{key} {latency[key]:.4g}" for key in ("p50", "p90", "p99")))
    return "\n".join(lines)

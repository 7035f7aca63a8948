"""Loopback self-test: server + fleet in one process, checked against sim.

``repro-broadcast serve --self-test`` runs, for each PullBW in a small
sweep, a :class:`~repro.net.server.NetServer` on an ephemeral loopback
port with a :class:`~repro.net.client.ClientFleet` driving it, and a
:class:`~repro.core.fast.FastEngine` simulation of the *same*
``SystemConfig`` at the equivalent load.  It then:

- emits one figure-schema JSON (two series — the fleet's wall-clock
  p90 in slot units, and the simulator's p90 — over the PullBW grid)
  that ``repro-broadcast report`` renders like any archived figure, and
- checks that the fleet's p90 *ordering* across the PullBW grid matches
  the simulator's.  Wall-clock magnitudes wobble with host load; the
  ordering is the physics the serving layer must preserve (this is the
  paper's Figure-7-style monotonicity, observed on real sockets).

Load equivalence: a fleet of N clients with mean think time T broadcast
units offers N/T requests per unit; the simulator's virtual client at
ThinkTimeRatio t with MCThinkTime m (``client.think_time``) offers t/m.
The sim series therefore runs at ``ttr = N * m / T``.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from repro.core.config import Settings, SystemConfig, setting
from repro.experiments.base import (
    QUICK,
    FigureResult,
    FigureSeries,
    PointStats,
    Profile,
)
from repro.experiments.figures import FigureSpec, SeriesSpec, run_figure
from repro.net.client import ClientFleet, FleetResult, FleetSettings
from repro.net.server import NetServer, NetServerSettings
from repro.obs.manifest import run_manifest

__all__ = ["SelfTestSettings", "SelfTestResult", "run_selftest"]

#: Label of the wall-clock series in the emitted figure.
FLEET_LABEL = "fleet (wall clock)"
#: Label of the simulated series.
SIM_LABEL = "simulator (fast engine)"


@dataclass(frozen=True)
class SelfTestSettings(Settings, prefix="selftest"):
    """Scale knobs for the loopback self-test."""

    num_clients: int = setting(200, "loadgen.num_clients")
    slots: int = setting(2000, int, ge=1)
    slot_duration: float = setting(0.005, "serve.slot_duration")
    #: Mean fleet-client think time in broadcast units.
    think_time: float = setting(200.0, "loadgen.think_time")
    pull_bws: tuple[float, ...] = setting((0.0, 0.5, 1.0), float, ge=0,
                                          le=1, each=True)
    seed: int = setting(42, "run.seed")
    #: Fraction of the slots treated as settling (latencies excluded).
    settle_fraction: float = setting(0.25, float, ge=0, lt=1)
    #: Simulation profile for the comparison series.
    profile: Profile = setting(QUICK, Profile)
    #: Hard wall-clock ceiling per sweep point, as a multiple of the
    #: nominal duration ``slots * slot_duration``.
    timeout_factor: float = setting(5.0, float, gt=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.pull_bws:
            raise ValueError("selftest.pull_bws must be non-empty")

    def equivalent_ttr(self, config: SystemConfig) -> float:
        """The ThinkTimeRatio at which ``config``'s virtual client offers
        the fleet's load."""
        return self.num_clients * config.client.think_time / self.think_time

    @property
    def point_timeout(self) -> float:
        return self.slots * self.slot_duration * self.timeout_factor + 10.0


@dataclass
class SelfTestResult:
    """Everything one self-test produced."""

    figure: FigureResult
    fleet_p90: list[float]
    sim_p90: list[float]
    #: Per-point raw diagnostics (fleet result dicts + server stats).
    diagnostics: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ordering_ok(self) -> bool:
        """Does the fleet's p90 ordering over PullBW match the sim's?"""
        if (not self.fleet_p90 or len(self.fleet_p90) != len(self.sim_p90)
                or any(math.isnan(v) for v in self.fleet_p90)
                or any(math.isnan(v) for v in self.sim_p90)):
            return False

        def order(values: list[float]) -> list[int]:
            return sorted(range(len(values)), key=values.__getitem__)

        return order(self.fleet_p90) == order(self.sim_p90)

    @property
    def ok(self) -> bool:
        return self.ordering_ok

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "ordering_ok": self.ordering_ok,
            "fleet_p90": self.fleet_p90,
            "sim_p90": self.sim_p90,
            "figure": self.figure.to_dict(),
            "diagnostics": self.diagnostics,
        }


async def _run_point(config: SystemConfig, settings: SelfTestSettings,
                     pull_bw: float) -> tuple[FleetResult, dict[str, Any]]:
    """One loopback run: server + fleet until ``slots`` slots elapsed."""
    point_config = config.with_(server__pull_bw=pull_bw,
                                run__seed=settings.seed)
    server = NetServer(
        point_config,
        NetServerSettings(slot_duration=settings.slot_duration,
                          max_slots=settings.slots))
    # The fleet needs the port, and no slot may tick during its
    # synchronous build (every client's warmed cache): bind, build, then
    # start the clock.
    await server.bind()
    try:
        fleet = ClientFleet(
            point_config, server.settings.host, server.port,
            settings.slot_duration,
            FleetSettings(
                num_clients=settings.num_clients,
                think_time=settings.think_time,
                settle_slots=int(settings.slots * settings.settle_fraction)),
            seed=settings.seed)
        await server.start()
        await fleet.start()
        await asyncio.wait_for(server.wait_finished(),
                               timeout=settings.point_timeout)
        # Grace for the last slots' frames to cross the loopback.
        await asyncio.sleep(10 * settings.slot_duration)
        result = await fleet.stop()
        stats = server.stats_snapshot()
    finally:
        await server.stop()
    return result, stats


def _fleet_point(result: FleetResult, stats: dict[str, Any]) -> PointStats:
    quantiles = result.quantiles() or {}
    drop_rate = stats["server"]["queue"]["drop_rate"]
    return PointStats(
        mean=result.mean_latency,
        stddev=0.0,
        replicates=1,
        drop_rate=drop_rate if drop_rate is not None else math.nan,
        p50=quantiles.get("p50"),
        p90=quantiles.get("p90"),
        p99=quantiles.get("p99"),
    )


def run_selftest(config: Optional[SystemConfig] = None,
                 settings: Optional[SelfTestSettings] = None,
                 ) -> SelfTestResult:
    """Run the full loopback sweep and the matching simulations."""
    if config is None:
        config = SystemConfig()
    if settings is None:
        settings = SelfTestSettings()
    ttr = settings.equivalent_ttr(config)
    pull_bws = list(settings.pull_bws)

    fleet_points: list[PointStats] = []
    diagnostics: list[dict[str, Any]] = []
    for pull_bw in pull_bws:
        result, stats = asyncio.run(_run_point(config, settings, pull_bw))
        fleet_points.append(_fleet_point(result, stats))
        diagnostics.append({
            "pull_bw": pull_bw,
            "fleet": result.to_dict(),
            "server_stats": stats,
        })

    # One sweep over PullBW of every field of ``config`` at that load.
    config_fields = {f.name: getattr(config, f.name) for f in fields(config)}
    [sim] = run_figure(FigureSpec(
        "net_selftest", SIM_LABEL, "PullBW", "Response time",
        x_key="server__pull_bw", xs=settings.pull_bws,
        series=(SeriesSpec(SIM_LABEL, config.algorithm,
                           {**config_fields,
                            "client__think_time_ratio": ttr}),),
        representative=(SIM_LABEL, settings.pull_bws[0])),
        settings.profile).series

    manifest = run_manifest(config.with_(run__seed=settings.seed),
                            engine="net")
    manifest["selftest"] = {
        "num_clients": settings.num_clients,
        "slots": settings.slots,
        "slot_duration": settings.slot_duration,
        "think_time": settings.think_time,
        "equivalent_ttr": ttr,
    }
    figure = FigureResult(
        figure_id="net_selftest",
        title="Serving-layer self-test: wall-clock vs simulated p90",
        x_label="PullBW",
        y_label="Response time p90 (broadcast units)",
        series=[
            FigureSeries(label=FLEET_LABEL, x=pull_bws, points=fleet_points),
            sim,
        ],
        notes=[
            f"fleet: {settings.num_clients} clients over loopback TCP, "
            f"{settings.slots} slots of {settings.slot_duration}s",
            f"simulator: fast engine at ThinkTimeRatio {ttr:g} "
            f"(equivalent offered load)",
        ],
        manifest=manifest,
    )

    def p90s(points: list[PointStats]) -> list[float]:
        return [p.p90 if p.p90 is not None else math.nan for p in points]

    return SelfTestResult(
        figure=figure,
        fleet_p90=p90s(fleet_points),
        sim_p90=p90s(sim.points),
        diagnostics=diagnostics,
    )

"""The seven workloads: what each runs, and why it is in the set.

Sizes are for a 2-core shared box and the contract's time cap (158
driver runs in 3420 s): one timed repeat is between a third of a second
and a second and a half, so a run of five or more repeats plus its
warm-up and set-up probes stays near ten seconds.  Where the issue's
sizing did not fit the cap, per-run length was cut first (access counts,
then the MC cache that sets the length of the cache-fill phase) and the
repeat count kept; README.md records each such cut.

The program under test receives only the generated ``SystemConfig`` (or
sweep ``Profile``); the seed of repeat *i* comes from
``SeedSequence(--seed).spawn(...)[i]``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.experiments.base import Profile
from repro.experiments.points import REPRESENTATIVE_POINTS
from repro.obs.manifest import config_to_dict

__all__ = ["DEFAULT_SEED", "MAX_REPEATS", "WORKLOADS", "Workload",
           "repeat_seeds"]

#: The seed ``golden.json`` pins every repeat of.
DEFAULT_SEED = 0
#: Upper limit on timed repeats however long ``--seconds`` is.
MAX_REPEATS = 24
#: ``--smoke`` divides access and slot counts by this.
_SMOKE_DIVISOR = 20
#: Fewest measured accesses a smoke run keeps, so that a run with no
#: measured miss (a NaN mean) stays out of reach.
_SMOKE_MEASURE_FLOOR = 12


def repeat_seeds(seed: int, count: int = MAX_REPEATS + 1) -> list[int]:
    """The run seeds of repeats ``0 .. count-1`` under ``--seed``."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


@dataclass(frozen=True)
class Workload:
    """One named set of inputs."""

    name: str
    #: One line for ``BENCHMARK.json``: the layer it stresses.
    why: str
    #: ``"fast"`` / ``"reference"`` (one engine run per repeat),
    #: ``"sweep"`` (one figure per repeat) or ``"net"`` (one loopback
    #: serving pass per repeat).
    kind: str
    base: SystemConfig
    settle: int = 0
    measure: int = 1
    min_repeats: int = 5
    #: Sweep only: the ThinkTimeRatio grid (smoke: its first point).
    ttrs: tuple[int, ...] = ()
    #: Net only: slots the saturated clock ticks, and the audience.
    slots: int = 0
    listeners: int = 0
    requesters: int = 0

    def _lengths(self, smoke: bool) -> tuple[int, int]:
        if not smoke:
            return self.settle, self.measure
        return (self.settle // _SMOKE_DIVISOR,
                max(_SMOKE_MEASURE_FLOOR, self.measure // _SMOKE_DIVISOR))

    def config(self, run_seed: int, smoke: bool = False) -> SystemConfig:
        """The ``SystemConfig`` of one repeat (every kind but sweep)."""
        settle, measure = self._lengths(smoke)
        return self.base.with_(run__settle_accesses=settle,
                               run__measure_accesses=measure,
                               run__seed=run_seed)

    def profile(self, run_seed: int, smoke: bool = False) -> Profile:
        """The sweep ``Profile`` of one repeat (sweep only)."""
        settle, measure = self._lengths(smoke)
        return Profile(settle_accesses=settle, measure_accesses=measure,
                       replicates=2, workers=min(2, os.cpu_count() or 1),
                       base_seed=run_seed)

    def sweep_ttrs(self, smoke: bool = False) -> tuple[int, ...]:
        """The sweep's x axis (sweep only)."""
        return self.ttrs[:1] if smoke else self.ttrs

    def net_slots(self, smoke: bool = False) -> int:
        """Slots one serving pass ticks (net only).

        Connecting the audience takes about four loop iterations, hence
        four slots of the saturated clock, per client; the floor leaves
        a smoke pass a window of about a hundred slots after that.
        """
        if not smoke:
            return self.slots
        return max(6 * (self.listeners + self.requesters),
                   self.slots // _SMOKE_DIVISOR)

    def describe(self, run_seed: int, smoke: bool = False) -> dict[str, Any]:
        """The full input description stamped into results."""
        inputs: dict[str, Any] = {"kind": self.kind,
                                  "min_repeats": self.min_repeats}
        if self.kind == "sweep":
            inputs["profile"] = config_to_dict(self.profile(run_seed, smoke))
            inputs["ttrs"] = list(self.sweep_ttrs(smoke))
            inputs["figure"] = "3a"
        else:
            inputs["config"] = config_to_dict(self.config(run_seed, smoke))
        if self.kind == "net":
            inputs.update(slots=self.net_slots(smoke),
                          listeners=self.listeners,
                          requesters=self.requesters,
                          request_every=REQUEST_EVERY,
                          slot_duration=SATURATED_SLOT)
        return inputs


#: Net: a requester sends one REQUEST per this many PAGE frames received.
REQUEST_EVERY = 4
#: Net: a slot duration no host can keep, so the clock is the one load
#: driver and runs flat out.
SATURATED_SLOT = 1e-6
#: Net: the paced pass behind ``net.lagging_fraction_paced``.
PACED_SLOT = 0.002
PACED_SLOTS = 500

_IPP_LIGHT = REPRESENTATIVE_POINTS["3a"]

_ALL = (
    Workload(
        name="ipp_light", kind="fast", base=_IPP_LIGHT,
        settle=1000, measure=4000,
        why="figure-3a point, under-loaded IPP on FastEngine: server.tick, "
            "VC and MC share the loop, so no layer hides the others"),
    Workload(
        name="ipp_saturated", kind="fast",
        base=REPRESENTATIVE_POINTS["4b"], settle=0, measure=25,
        why="figure-4b point (TTR 250): VC arrivals and queue.offer with "
            "~74% drops dominate; the FIFO queue is used on its offer/drop "
            "side"),
    Workload(
        name="rxw_deep_queue", kind="fast",
        base=SystemConfig(algorithm=Algorithm.IPP).with_(
            client__think_time_ratio=100, client__cache_size=20,
            server__pull_bw=0.3, server__queue_size=500,
            scheduler__discipline="rxw"),
        settle=10, measure=30,
        why="RxW over a 500-deep queue: the same queue used on its select "
            "side, where the O(depth) scan dominates server.tick"),
    Workload(
        name="fleet_100k", kind="fast",
        base=_IPP_LIGHT.with_(
            fleet__num_clients=100_000, fleet__think_time=150_000.0,
            fleet__think_time_spread=0.5, fleet__zipf_offset_spread=200,
            fleet__cache_size_spread=0.5),
        settle=100, measure=300,
        why="100000 heterogeneous fleet clients: FleetState.generate and "
            "deliver do most of the work and run in no other workload"),
    Workload(
        name="reference_ipp", kind="reference", base=_IPP_LIGHT,
        settle=1000, measure=2000,
        why="the ipp_light point through ReferenceEngine: same substrates, "
            "event heap and generator switches of the sim kernel dominate"),
    Workload(
        name="sweep_fig3a", kind="sweep", base=_IPP_LIGHT,
        settle=10, measure=30, min_repeats=3, ttrs=(10, 25, 50),
        why="figure_3a over the process pool, 26 short runs: the only "
            "workload where build_system, manifests, pickling and pool "
            "spawn are a visible share of wall time"),
    Workload(
        name="net_fanout", kind="net", base=_IPP_LIGHT,
        slots=1500, listeners=48, requesters=2,
        why="NetServer on loopback, saturated slot clock, 48 listeners and "
            "2 requesters on one event loop: encode, put_nowait, sender "
            "wake-ups and drain are the work, server.tick is not"),
)

#: Name -> workload, in the order they run.
WORKLOADS: dict[str, Workload] = {w.name: w for w in _ALL}

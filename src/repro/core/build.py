"""Wire a :class:`~repro.core.config.SystemConfig` into live components.

Randomness discipline: every stochastic component gets its own generator
spawned from one :class:`numpy.random.SeedSequence`, so changing, say, the
Noise setting never shifts the virtual client's draw sequence — sweeps stay
comparable point to point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.broadcast.chopping import chop_assignment
from repro.broadcast.offset import apply_offset
from repro.broadcast.program import DiskAssignment, build_schedule
from repro.broadcast.schedule import Schedule
from repro.cache.base import Cache
from repro.cache.lru import LruPolicy
from repro.cache.p import PPolicy
from repro.cache.pix import PixPolicy
from repro.cache.values import top_valued_pages, value_positions
from repro.client.measured import MeasuredClient
from repro.client.threshold import ThresholdFilter
from repro.client.virtual import VirtualClient
from repro.core.config import SystemConfig
from repro.server.broadcast_server import BroadcastServer
from repro.server.schedulers import (
    PullScheduler,
    PushReprogrammer,
    make_scheduler,
)
from repro.workload.noise import noisy_probabilities
from repro.workload.zipf import zipf_probabilities

if TYPE_CHECKING:
    from repro.core.runtime import ControlPlane
    from repro.fleet.state import FleetState

__all__ = ["SystemState", "build_system", "build_push_program",
           "make_pull_scheduler"]


@dataclass
class SystemState:
    """Everything a simulation engine needs, fully constructed."""

    config: SystemConfig
    #: Aggregate (server-view) access probabilities; page id == rank.
    vc_probabilities: np.ndarray
    #: The measured client's (possibly Noise-perturbed) probabilities.
    mc_probabilities: np.ndarray
    #: The push program, or None for Pure-Pull.
    schedule: Optional[Schedule]
    server: BroadcastServer
    mc: MeasuredClient
    vc: VirtualClient
    #: Threshold filter the MC applies before pulling.
    mc_threshold: ThresholdFilter
    #: Pages a fully-warm aggregate cache holds (VC absorption set).
    steady_set: frozenset[int]
    #: The MC's own top-valued pages (Figure 4's warm-up target).
    warmup_target: frozenset[int]
    #: Individually tracked client population, or None when
    #: ``config.fleet.num_clients`` is 0.
    fleet: Optional["FleetState"] = None
    #: Temperature-driven push-program rebuilder, or None when
    #: ``config.scheduler.reprogram_interval`` is 0.  Every runtime's
    #: :class:`~repro.core.runtime.ControlPlane` polls it each
    #: ``interval`` slots and applies the swap to the server and every
    #: schedule-derived client table.
    reprogrammer: Optional[PushReprogrammer] = None
    #: The :class:`~repro.core.runtime.ControlPlane` of the engine run in
    #: progress (``RunProtocol`` sets and clears it); None outside one.
    control: Optional["ControlPlane"] = None


def build_push_program(config: SystemConfig,
                       vc_probabilities: np.ndarray) -> Optional[Schedule]:
    """Build the (possibly offset and chopped) periodic program."""
    if not config.algorithm.has_push_program:
        return None
    server = config.server
    ranked = list(range(server.db_size))  # page id == aggregate rank
    if server.offset:
        assignment = apply_offset(ranked, server.disk_sizes,
                                  server.rel_freqs, config.client.cache_size)
    else:
        assignment = DiskAssignment.from_ranking(
            ranked, server.disk_sizes, server.rel_freqs)
    if server.chop:
        assignment = chop_assignment(assignment, server.chop,
                                     vc_probabilities)
    return build_schedule(assignment)


def make_pull_scheduler(config: SystemConfig) -> PullScheduler:
    """The pull-queue discipline selected by ``config.scheduler``.

    Temperature tracking is enabled only when reprogramming will consume
    it, so the default path adds no per-offer bookkeeping.
    """
    sched = config.scheduler
    return make_scheduler(sched.discipline, aging=sched.aging,
                          track_temperature=sched.reprogram_interval > 0)


def _make_reprogrammer(config: SystemConfig) -> Optional[PushReprogrammer]:
    """The push-program rebuilder, when ``config.scheduler`` asks for one."""
    sched = config.scheduler
    if sched.reprogram_interval == 0:
        return None
    return PushReprogrammer(
        config.server.db_size, config.server.disk_sizes,
        config.server.rel_freqs, interval=sched.reprogram_interval,
        min_requests=sched.reprogram_min_requests)


def _make_policy(config: SystemConfig, mc_probs: np.ndarray,
                 frequencies, metric: str):
    """The MC's replacement policy (ClientConfig.cache_policy)."""
    choice = config.client.cache_policy
    if choice == "auto":
        choice = metric  # the paper's pairing: PIX unless Pure-Pull
    if choice == "pix":
        return PixPolicy(mc_probs, frequencies or {})
    if choice == "p":
        return PPolicy(mc_probs)
    return LruPolicy()


def build_system(config: SystemConfig) -> SystemState:
    """Construct the complete simulated system for ``config``."""
    seed_seq = np.random.SeedSequence(config.run.seed)
    # The fleet child is spawned LAST so fleet-less configs keep the exact
    # historic draw sequences (archived baselines stay bit-identical).
    noise_rng, mc_rng, vc_rng, mux_rng, fleet_rng = (
        np.random.default_rng(s) for s in seed_seq.spawn(5))

    rank_probs = zipf_probabilities(config.server.db_size,
                                    config.client.zipf_theta)
    vc_probs = rank_probs  # VC: page id == rank
    mc_probs = noisy_probabilities(rank_probs, config.client.noise, noise_rng)

    schedule = build_push_program(config, vc_probs)
    frequencies = schedule.frequencies() if schedule is not None else None
    metric = config.algorithm.cache_metric

    cache_size = config.client.cache_size
    steady_set = top_valued_pages(
        vc_probs, frequencies, max(cache_size - 1, 0), metric)
    warmup_target = top_valued_pages(
        mc_probs, frequencies, cache_size, metric)

    cache = Cache(cache_size,
                  _make_policy(config, mc_probs, frequencies, metric))

    threshold = ThresholdFilter(schedule, config.thresh_perc)
    server = BroadcastServer(schedule, config.server.queue_size,
                             config.pull_bw, mux_rng,
                             scheduler=make_pull_scheduler(config))
    mc = MeasuredClient(mc_probs, cache, config.client.think_time, mc_rng,
                        warmup_target=warmup_target or None)
    vc = VirtualClient(
        vc_probs, steady_set, config.client.steady_state_perc,
        config.client.think_time, config.client.think_time_ratio,
        threshold, vc_rng)

    fleet = None
    if config.fleet.num_clients > 0:
        # Imported here, not at module scope: repro.fleet pulls in the
        # experiments layer, which imports the engines, which import this
        # module — the cycle only resolves with a call-time import.
        from repro.fleet.state import FleetState

        fleet = FleetState(
            num_clients=config.fleet.num_clients,
            mean_think_time=config.fleet.think_time,
            think_time_spread=config.fleet.think_time_spread,
            zipf_offset_spread=config.fleet.zipf_offset_spread,
            cache_size=config.fleet.cache_size,
            cache_size_spread=config.fleet.cache_size_spread,
            steady_state_perc=config.client.steady_state_perc,
            probabilities=vc_probs,
            value_order=value_positions(vc_probs, frequencies, metric),
            threshold=threshold,
            rng=fleet_rng,
        )
    return SystemState(
        config=config,
        vc_probabilities=vc_probs,
        mc_probabilities=mc_probs,
        schedule=schedule,
        server=server,
        mc=mc,
        vc=vc,
        mc_threshold=threshold,
        steady_set=steady_set,
        warmup_target=warmup_target,
        fleet=fleet,
        reprogrammer=_make_reprogrammer(config),
    )

"""The client-fleet load generator.

Drives N concurrent TCP connections against a
:class:`~repro.net.server.NetServer` using the *same* workload model
the simulator uses: per-client Zipf access draws
(:mod:`repro.workload.zipf`), per-client caches with the paper's
replacement policies (PIX, or P for Pure-Pull), and exponential think
times (the virtual client's Poisson model — a fixed think time would
phase-lock the whole fleet on the wall clock).  Each client:

1. draws a page; on a cache hit it just thinks again;
2. on a miss it records the wall-clock instant, sends a REQUEST frame
   (when the algorithm has a backchannel), and waits;
3. its reader task snoops *every* PAGE frame on the frontchannel —
   push or pull, requested by anyone — and completes the wait when the
   awaited page goes by, exactly like the paper's snooping clients;
4. the request-to-page latency lands in the fleet's telemetry, and the
   page is inserted into the client's cache.

Latencies are measured in seconds but reported in **slot units**,
divided by the *effective* slot duration observed from PAGE-frame slot
indices and arrival times — so a loaded host that runs the slot clock
slower than nominal does not inflate the reported latencies.

Determinism note: every client's RNG is spawned from one explicit
``numpy.random.SeedSequence(seed)``; the wall-clock side (think-time
sleeps, socket scheduling) is inherently nondeterministic, which is the
point of the serving layer — hence the module-wide REP001 pragma below.
"""
# lint: allow-file[REP001] -- the serving layer measures wall-clock time by design

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache.base import Cache
from repro.cache.values import top_valued_pages
from repro.core.build import _make_policy, build_push_program
from repro.core.config import SystemConfig
from repro.net.protocol import (
    FrameDecoder,
    FrameError,
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
    write_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.monitor import exact_quantiles, log_buckets
from repro.workload.zipf import ZipfSampler, zipf_probabilities

__all__ = ["ClientFleet", "FleetSettings", "FleetResult"]

#: Bucket bounds (seconds) for the fleet's live latency histogram.
_SECONDS_BUCKETS = log_buckets(1e-4, 1e3)

#: Read-chunk size for the per-client frame decoder.
_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class FleetSettings:
    """Load-generator knobs."""

    #: Number of concurrent client connections.
    num_clients: int = 200
    #: Mean think time between a client's accesses, in broadcast units
    #: (converted to seconds via the slot duration).
    think_time: float = 200.0
    #: Per-client cache capacity (None = the config's CacheSize).
    cache_size: Optional[int] = None
    #: Pre-fill each cache with its top-valued pages, modelling the
    #: steady state the simulator reaches after its warm-up phase.
    warm_caches: bool = True
    #: Latencies for requests issued before this server slot are
    #: settling noise and excluded from the measured aggregates.
    settle_slots: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ValueError("num_clients must be positive")
        if self.think_time <= 0:
            raise ValueError("think_time must be positive")
        if self.settle_slots < 0:
            raise ValueError("settle_slots must be non-negative")


@dataclass
class FleetResult:
    """What the fleet observed, aggregated over all clients."""

    #: Measured request-to-page latencies in slot units.
    latencies_slots: list[float]
    #: All completed miss latencies (slot units), settling included.
    all_latencies_slots: list[float]
    accesses: int
    hits: int
    misses: int
    requests_sent: int
    pages_seen: int
    #: Misses still waiting for their page when the fleet stopped.
    censored: int
    #: Wall-clock seconds one broadcast slot actually took (fitted from
    #: observed PAGE frames; NaN when fewer than two slots were seen).
    effective_slot_duration: float
    first_slot: Optional[int] = None
    last_slot: Optional[int] = None
    #: Server STATS snapshot fetched at shutdown (when requested).
    server_stats: Optional[dict] = None

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else math.nan

    def quantiles(self) -> Optional[dict[str, float]]:
        """Exact p50/p90/p99 of the measured latencies (slot units)."""
        return exact_quantiles(self.latencies_slots)

    @property
    def mean_latency(self) -> float:
        marks = self.latencies_slots
        return sum(marks) / len(marks) if marks else math.nan

    def to_dict(self) -> dict:
        quantiles = self.quantiles()
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "requests_sent": self.requests_sent,
            "pages_seen": self.pages_seen,
            "censored": self.censored,
            "measured_latencies": len(self.latencies_slots),
            "mean_latency_slots": self.mean_latency,
            "quantiles_slots": quantiles,
            "effective_slot_duration": self.effective_slot_duration,
            "first_slot": self.first_slot,
            "last_slot": self.last_slot,
            "server_stats": self.server_stats,
        }


class _FleetClient:
    """One connection's client-side state."""

    __slots__ = ("index", "cache", "sampler", "rng", "reader", "writer",
                 "pending_page", "pending", "reader_task", "behavior_task",
                 "last_stats")

    def __init__(self, index: int, cache: Cache, sampler: ZipfSampler,
                 rng: np.random.Generator):
        self.index = index
        self.cache = cache
        self.sampler = sampler
        self.rng = rng
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending_page: Optional[int] = None
        self.pending: Optional[asyncio.Future] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.behavior_task: Optional[asyncio.Task] = None
        self.last_stats: Optional[dict] = None


class ClientFleet:
    """N concurrent snooping clients driving one broadcast server."""

    def __init__(self, config: SystemConfig, host: str, port: int,
                 slot_duration: float,
                 settings: Optional[FleetSettings] = None,
                 seed: int = 0,
                 registry: Optional[MetricsRegistry] = None):
        if slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        self.config = config
        self.host = host
        self.port = port
        self.slot_duration = slot_duration
        settings = settings if settings is not None else FleetSettings()
        self.settings = settings
        self.registry = registry if registry is not None else MetricsRegistry()
        metrics = self.registry
        self._m_connected = metrics.gauge(
            "fleet_connected_clients", "currently connected fleet clients")
        self._m_accesses = metrics.counter(
            "fleet_accesses_total", "page accesses issued by the fleet")
        self._m_hits = metrics.counter(
            "fleet_hits_total", "accesses satisfied by a client cache")
        self._m_misses = metrics.counter(
            "fleet_misses_total", "accesses that went to the broadcast")
        self._m_requests = metrics.counter(
            "fleet_requests_sent_total", "REQUEST frames sent")
        self._m_pages = metrics.counter(
            "fleet_pages_seen_total", "PAGE frames snooped")
        self._m_latency = metrics.histogram(
            "fleet_latency_seconds", "request-to-page wall-clock latency",
            buckets=_SECONDS_BUCKETS)

        # The same workload construction the simulator's build uses.
        probabilities = zipf_probabilities(config.server.db_size,
                                           config.client.zipf_theta)
        schedule = build_push_program(config, probabilities)
        frequencies = schedule.frequencies() if schedule is not None else None
        metric = config.algorithm.cache_metric
        cache_size = (settings.cache_size if settings.cache_size is not None
                      else config.client.cache_size)
        warm_pages = (top_valued_pages(probabilities, frequencies,
                                       cache_size, metric)
                      if settings.warm_caches else frozenset())
        self._uses_backchannel = config.algorithm.uses_backchannel

        seeds = np.random.SeedSequence(seed).spawn(settings.num_clients)
        self._clients: list[_FleetClient] = []
        for index in range(settings.num_clients):
            rng = np.random.default_rng(seeds[index])
            # The same policy factory the simulator's build uses
            # (respects ClientConfig.cache_policy, incl. "auto").
            policy = _make_policy(config, probabilities, frequencies, metric)
            cache = Cache(cache_size, policy)
            for page in sorted(warm_pages):
                cache.insert(page, 0.0)
            self._clients.append(_FleetClient(
                index, cache, ZipfSampler(probabilities, rng), rng))

        # Shared observation state.
        self.last_seen_slot = -1
        self._first_seen: Optional[tuple[int, float]] = None
        self._last_seen: Optional[tuple[int, float]] = None
        self._latencies: list[tuple[float, bool]] = []  # (seconds, measured)
        self._accesses = 0
        self._hits = 0
        self._misses = 0
        self._requests_sent = 0
        self._pages_seen = 0
        self._slot_waiters: list[tuple[int, asyncio.Future]] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Connect every client and start its reader + behavior tasks."""
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        await asyncio.gather(*(self._connect(c) for c in self._clients))
        for client in self._clients:
            client.reader_task = asyncio.create_task(self._read_loop(client))
            client.behavior_task = asyncio.create_task(
                self._behavior_loop(client))

    async def _connect(self, client: _FleetClient) -> None:
        client.reader, client.writer = await asyncio.open_connection(
            self.host, self.port)
        write_frame(client.writer, Hello(client.index))
        await client.writer.drain()
        self._m_connected.inc()

    async def wait_for_slot(self, slot: int, timeout: float) -> bool:
        """Wait until a PAGE frame with index >= ``slot`` was snooped.

        Returns False when ``timeout`` (seconds) elapsed first.
        """
        if self.last_seen_slot >= slot:
            return True
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._slot_waiters.append((slot, future))
        try:
            await asyncio.wait_for(future, timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self, fetch_stats: bool = False) -> FleetResult:
        """Cancel everything, close connections, aggregate the results."""
        server_stats: Optional[dict] = None
        if fetch_stats and self._clients:
            server_stats = await self._fetch_stats(self._clients[0])
        # Count pending misses before cancelling: Task.cancel() cancels
        # the awaited future synchronously, which would read as "done".
        censored = sum(
            1 for client in self._clients
            if client.pending is not None and not client.pending.done())
        for client in self._clients:
            if client.behavior_task is not None:
                client.behavior_task.cancel()
        for client in self._clients:
            if client.reader_task is not None:
                client.reader_task.cancel()
        tasks = [t for c in self._clients
                 for t in (c.behavior_task, c.reader_task) if t is not None]
        await asyncio.gather(*tasks, return_exceptions=True)
        for client in self._clients:
            if client.writer is not None:
                with contextlib.suppress(Exception):
                    client.writer.close()
        self._m_connected.set(0)
        return self._aggregate(censored, server_stats)

    async def fetch_stats(self, timeout: float = 5.0) -> Optional[dict]:
        """Ask the server for a STATS snapshot mid-run.

        Uses the first client that still has a live connection; None
        when the whole fleet is disconnected or the server does not
        answer within ``timeout``.  The payload is the server's
        :meth:`~repro.net.server.NetServer.stats_snapshot` shape —
        feed it to :func:`repro.obs.dashboard.render_stats_frame` for a
        live view (``loadgen --watch`` does exactly that).
        """
        for client in self._clients:
            if client.writer is not None:
                return await self._fetch_stats(client, timeout)
        return None

    async def _fetch_stats(self, client: _FleetClient,
                           timeout: float = 5.0) -> Optional[dict]:
        """Ask the server for a STATS snapshot through one client."""
        if client.writer is None:
            return None
        client.last_stats = None
        try:
            write_frame(client.writer, StatsRequest())
            await client.writer.drain()
        except (ConnectionError, OSError):
            return None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while client.last_stats is None and loop.time() < deadline:
            await asyncio.sleep(0.01)
        return client.last_stats

    def _aggregate(self, censored: int,
                   server_stats: Optional[dict]) -> FleetResult:
        effective = math.nan
        if (self._first_seen is not None and self._last_seen is not None
                and self._last_seen[0] > self._first_seen[0]):
            effective = ((self._last_seen[1] - self._first_seen[1])
                         / (self._last_seen[0] - self._first_seen[0]))
        scale = effective if effective and not math.isnan(effective) else (
            self.slot_duration)
        measured = [seconds / scale
                    for seconds, is_measured in self._latencies if is_measured]
        everything = [seconds / scale for seconds, _ in self._latencies]
        return FleetResult(
            latencies_slots=measured,
            all_latencies_slots=everything,
            accesses=self._accesses,
            hits=self._hits,
            misses=self._misses,
            requests_sent=self._requests_sent,
            pages_seen=self._pages_seen,
            censored=censored,
            effective_slot_duration=effective,
            first_slot=(self._first_seen[0] if self._first_seen else None),
            last_slot=(self._last_seen[0] if self._last_seen else None),
            server_stats=server_stats,
        )

    # -- per-client tasks ----------------------------------------------------
    def _note_slot(self, slot: int) -> None:
        now = time.monotonic()
        if self._first_seen is None:
            self._first_seen = (slot, now)
        self._last_seen = (slot, now)
        if slot > self.last_seen_slot:
            self.last_seen_slot = slot
            if self._slot_waiters:
                still_waiting = []
                for target, future in self._slot_waiters:
                    if slot >= target:
                        if not future.done():
                            future.set_result(slot)
                    else:
                        still_waiting.append((target, future))
                self._slot_waiters = still_waiting

    async def _read_loop(self, client: _FleetClient) -> None:
        """Snoop the frontchannel: every PAGE frame, from any request."""
        assert client.reader is not None
        decoder = FrameDecoder()
        try:
            while True:
                data = await client.reader.read(_READ_CHUNK)
                if not data:
                    return
                for frame in decoder.feed(data):
                    if isinstance(frame, Page):
                        self._pages_seen += 1
                        self._m_pages.inc()
                        self._note_slot(frame.slot)
                        if (client.pending_page == frame.page
                                and client.pending is not None
                                and not client.pending.done()):
                            client.pending.set_result(frame.slot)
                    elif isinstance(frame, Stats):
                        client.last_stats = frame.payload
        except (ConnectionError, OSError, FrameError,
                asyncio.CancelledError):
            return

    async def _behavior_loop(self, client: _FleetClient) -> None:
        """The access/think loop, mirroring the measured client's."""
        settings = self.settings
        think_seconds = settings.think_time * self.slot_duration
        rng = client.rng
        cache = client.cache
        loop = asyncio.get_running_loop()
        try:
            # Random initial phase: without it all clients fire at once.
            await asyncio.sleep(float(rng.uniform(0.0, think_seconds)))
            while True:
                page = int(client.sampler.sample_one())
                self._accesses += 1
                self._m_accesses.inc()
                if cache.access(page, float(self.last_seen_slot)):
                    self._hits += 1
                    self._m_hits.inc()
                else:
                    self._misses += 1
                    self._m_misses.inc()
                    issued_slot = self.last_seen_slot
                    started = time.monotonic()
                    future: asyncio.Future = loop.create_future()
                    client.pending_page = page
                    client.pending = future
                    if self._uses_backchannel and client.writer is not None:
                        write_frame(client.writer, Request(page))
                        await client.writer.drain()
                        self._requests_sent += 1
                        self._m_requests.inc()
                    await future
                    seconds = time.monotonic() - started
                    client.pending_page = None
                    client.pending = None
                    measured = issued_slot >= settings.settle_slots
                    self._latencies.append((seconds, measured))
                    self._m_latency.observe(seconds)
                    cache.insert(page, float(self.last_seen_slot))
                await asyncio.sleep(float(rng.exponential(think_seconds)))
        except (ConnectionError, OSError, asyncio.CancelledError):
            return

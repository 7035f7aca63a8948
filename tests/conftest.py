"""Shared fixtures: miniature configurations that keep tests fast."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import ClientConfig, RunConfig, ServerConfig, SystemConfig
from repro.obs.attach import Attachment
from repro.obs.columnar import REQUEST_DTYPE, SLOT_DTYPE
from repro.obs.events import SLOT_KINDS
from repro.obs.trace import OPTIONAL_SLOT_FIELDS


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def small_config(algorithm: Algorithm = Algorithm.IPP,
                 **overrides) -> SystemConfig:
    """A 20-page system that simulates in milliseconds."""
    config = SystemConfig(
        algorithm=algorithm,
        client=ClientConfig(cache_size=5, think_time=4.0,
                            think_time_ratio=5.0, steady_state_perc=0.95,
                            zipf_theta=0.95),
        server=ServerConfig(db_size=20, disk_sizes=(4, 6, 10),
                            rel_freqs=(3, 2, 1), queue_size=5,
                            pull_bw=0.5),
        run=RunConfig(settle_accesses=50, measure_accesses=200, seed=7,
                      max_slots=2_000_000),
    )
    if overrides:
        config = config.with_(**overrides)
    return config


def observe_offers(queue, callback) -> Attachment:
    """Report every ``queue.offer`` outcome to ``callback(page, outcome)``
    until the returned attachment is detached."""
    def offer(inner, page):
        outcome = inner(page)
        callback(page, outcome)
        return outcome

    return Attachment([(queue, "offer", offer)])


def slot_row(slot=0, **overrides) -> tuple:
    """One SLOT_DTYPE row tuple from readable values (a kind name, None
    for a missing page / awaited page), encoded as the slot tracer
    encodes them."""
    values = dict(slot=slot, kind="push", page=7, queue_depth=2,
                  enqueued=5, duplicates=1, dropped=0, served=3,
                  mc_waiting=None, mc_arrivals=0, vc_arrivals=4)
    values.update(overrides)
    values["kind"] = SLOT_KINDS.index(values["kind"])
    mask = 0
    for bit, name in enumerate(OPTIONAL_SLOT_FIELDS):
        if values[name] is None:
            mask |= 1 << bit
            values[name] = -1
    return (*values.values(), mask)


def slot_array(rows) -> np.ndarray:
    """A slot trace of ``slot_row`` tuples."""
    return np.array(list(rows), dtype=SLOT_DTYPE)


def request_array(records) -> np.ndarray:
    """A request trace of RequestRecords, each encoded by ``row()``."""
    return np.array([record.row() for record in records],
                    dtype=REQUEST_DTYPE)


@pytest.fixture
def ipp_config():
    return small_config(Algorithm.IPP)


@pytest.fixture
def push_config():
    return small_config(Algorithm.PURE_PUSH)


@pytest.fixture
def pull_config():
    return small_config(Algorithm.PURE_PULL)


@pytest.fixture
def sweeps(monkeypatch):
    """The configs of every ``run_sweep`` the sweep helpers start, one
    list per call, in call order; the sweeps still run."""
    import repro.experiments.base as base

    calls = []
    real = base.run_sweep

    def recording(configs, *args, **kwargs):
        calls.append(list(configs))
        return real(configs, *args, **kwargs)

    monkeypatch.setattr(base, "run_sweep", recording)
    return calls


def regrid(spec, xs):
    """``spec`` over the grid ``xs``, its representative point moved onto
    that grid's first x (a spec's representative must be on its grid)."""
    label, _ = spec.representative
    return replace(spec, xs=tuple(xs), representative=(label, xs[0]))

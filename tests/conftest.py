"""Shared fixtures: miniature configurations that keep tests fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import ClientConfig, RunConfig, ServerConfig, SystemConfig
from repro.obs.attach import Attachment


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


@pytest.fixture
def ipp_config():
    return small_config(Algorithm.IPP)


@pytest.fixture
def push_config():
    return small_config(Algorithm.PURE_PUSH)


@pytest.fixture
def pull_config():
    return small_config(Algorithm.PURE_PULL)

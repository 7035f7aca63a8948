"""Unit tests for buffered access streams and think-time rates."""

import numpy as np
import pytest

from repro.workload.access import AccessStream, think_time_rate
from repro.workload.zipf import ZipfSampler, zipf_probabilities


def make_stream(steady=0.95, seed=1, n=20, absorbing=None):
    """A stream over ``n`` pages; by default a warm cache holds them all."""
    rng = np.random.default_rng(seed)
    sampler = ZipfSampler(zipf_probabilities(n, 0.95), rng)
    if absorbing is None:
        absorbing = np.ones(n, dtype=bool)
    return AccessStream(sampler, steady, rng, absorbing)


class TestThinkTimeRate:
    def test_paper_rates(self):
        # ThinkTime 20, ratio 250 -> 12.5 requests per broadcast unit.
        assert think_time_rate(20.0, 250.0) == pytest.approx(12.5)
        assert think_time_rate(20.0, 10.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            think_time_rate(0.0, 10.0)
        with pytest.raises(ValueError):
            think_time_rate(20.0, 0.0)


class TestAccessStream:
    def test_steady_perc_validated(self):
        rng = np.random.default_rng(0)
        sampler = ZipfSampler(zipf_probabilities(5, 0.5), rng)
        with pytest.raises(ValueError):
            AccessStream(sampler, 1.5, rng, np.zeros(5, dtype=bool))

    def test_take_yields_plain_int_pages(self):
        stream = make_stream(steady=0.5)
        for _ in range(200):
            for page in stream.take(5):
                # A numpy scalar here costs the slot loop a microsecond
                # per comparison; the stream must hand out Python ints.
                assert type(page) is int
                assert 0 <= page < 20

    def test_all_steady_when_perc_is_one(self):
        stream = make_stream(steady=1.0)
        assert len(stream.take(500)) == 0     # every draw is absorbed

    def test_none_steady_when_perc_is_zero(self):
        stream = make_stream(steady=0.0)
        assert len(stream.take(500)) == 500   # no draw is absorbed

    def test_steady_fraction_tracks_parameter(self):
        stream = make_stream(steady=0.3, seed=7)
        survivors = len(stream.take(50_000))
        assert 1 - survivors / 50_000 == pytest.approx(0.3, abs=0.02)

    def test_only_cached_pages_are_absorbed(self):
        absorbing = np.zeros(20, dtype=bool)
        absorbing[:3] = True
        stream = make_stream(steady=1.0, absorbing=absorbing)
        pages = list(stream.take(5000))
        assert pages and min(pages) >= 3

    def test_take_matches_protocol(self):
        stream = make_stream(steady=0.0, seed=11)
        pages = stream.take(10_000)
        assert len(pages) == 10_000
        assert min(pages) >= 0 and max(pages) < 20

    def test_take_negative_rejected(self):
        with pytest.raises(ValueError):
            make_stream().take(-1)

    def test_take_spanning_refills(self):
        stream = make_stream(steady=0.0, seed=3)
        # Larger than one internal buffer; must span refills seamlessly.
        pages = stream.take((1 << 16) + 123)
        assert len(pages) == (1 << 16) + 123

    def test_take_is_independent_of_chunking(self):
        whole = list(make_stream(steady=0.5, seed=5).take((1 << 16) + 50))
        stream = make_stream(steady=0.5, seed=5)
        chunks = [(1 << 16) - 7, 0, 1, 5, 1, 0, 50]
        pieces = [page for count in chunks for page in stream.take(count)]
        assert sum(chunks) == (1 << 16) + 50
        assert pieces == whole

    def test_deterministic_given_seed(self):
        a = make_stream(seed=42)
        b = make_stream(seed=42)
        for _ in range(100):
            assert list(a.take(3)) == list(b.take(3))

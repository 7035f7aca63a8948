"""Unit and property tests for the Zipf distribution and sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.zipf import (
    _CHUNK,
    _GUIDE_MIN_BATCH,
    ZipfSampler,
    zipf_probabilities,
)


class TestZipfProbabilities:
    def test_sums_to_one(self):
        probs = zipf_probabilities(1000, 0.95)
        assert probs.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        probs = zipf_probabilities(100, 0.95)
        assert np.all(np.diff(probs) < 0)

    def test_theta_zero_is_uniform(self):
        probs = zipf_probabilities(10, 0.0)
        assert np.allclose(probs, 0.1)

    def test_known_ratio(self):
        probs = zipf_probabilities(10, 1.0)
        assert probs[0] / probs[1] == pytest.approx(2.0)
        assert probs[0] / probs[9] == pytest.approx(10.0)

    def test_single_page(self):
        assert zipf_probabilities(1, 0.95)[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 0.95)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -0.1)

    @given(st.integers(min_value=1, max_value=500),
           st.floats(min_value=0.0, max_value=2.0))
    def test_always_a_distribution(self, n, theta):
        probs = zipf_probabilities(n, theta)
        assert probs.shape == (n,)
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0)


class TestZipfSampler:
    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            ZipfSampler(np.array([]), rng)
        with pytest.raises(ValueError):
            ZipfSampler(np.array([0.5, 0.6]), rng)
        with pytest.raises(ValueError):
            ZipfSampler(np.array([0.5, -0.5, 1.0]), rng)

    def test_sample_range(self, rng):
        sampler = ZipfSampler(zipf_probabilities(50, 0.95), rng)
        draws = sampler.sample(10_000)
        assert draws.min() >= 0
        assert draws.max() < 50

    def test_deterministic_given_seed(self):
        probs = zipf_probabilities(20, 0.95)
        a = ZipfSampler(probs, np.random.default_rng(9)).sample(100)
        b = ZipfSampler(probs, np.random.default_rng(9)).sample(100)
        assert np.array_equal(a, b)

    def test_empirical_frequencies_track_probabilities(self, rng):
        probs = zipf_probabilities(10, 0.95)
        sampler = ZipfSampler(probs, rng)
        draws = sampler.sample(200_000)
        counts = np.bincount(draws, minlength=10) / draws.size
        assert np.allclose(counts, probs, atol=0.01)

    def test_sample_one_matches_domain(self, rng):
        sampler = ZipfSampler(zipf_probabilities(5, 0.5), rng)
        for _ in range(100):
            assert 0 <= sampler.sample_one() < 5

    def test_degenerate_distribution(self, rng):
        sampler = ZipfSampler(np.array([0.0, 1.0, 0.0]), rng)
        assert set(sampler.sample(1000).tolist()) == {1}

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=50))
    def test_num_pages_property(self, n):
        sampler = ZipfSampler(zipf_probabilities(n, 0.95),
                              np.random.default_rng(0))
        assert sampler.num_pages == n

    @pytest.mark.parametrize("size", [1, _GUIDE_MIN_BATCH, 5000])
    def test_zero_probability_tail_never_drawn(self, size):
        # Before the fix only cdf[-1] was set to 1, so the top uniform
        # fell into the shortfall and drew the p = 0 page (190 of these).
        for n in range(2, 400):
            probabilities = np.append(zipf_probabilities(n, 0.95), 0.0)
            sampler = ZipfSampler(probabilities, Uniforms([_TOP] * size))
            assert set(sampler.sample(size).tolist()) == {n - 1}
            assert ZipfSampler(probabilities,
                               Uniforms([_TOP])).sample_one() == n - 1


#: The largest double the generator returns, 1 - 2**-53.
_TOP = np.nextafter(1.0, 0.0)


class Uniforms:
    """Stub generator: hands out the given uniforms, in order."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)

    def random(self, size=None, out=None):
        if out is not None:
            out[...] = self._next(out.size)
            return out
        if size is None:
            return float(self._next(1)[0])
        return self._next(size)

    def _next(self, count):
        batch, self._values = self._values[:count], self._values[count:]
        assert batch.size == count
        return batch


def reference_cdf(probabilities):
    """The CDF the sampler inverts: exactly 1 from the last page that has
    positive probability on."""
    cdf = np.cumsum(probabilities)
    cdf[np.flatnonzero(probabilities)[-1]:] = 1.0
    return cdf


def with_zeros(probabilities, head, middle, tail):
    """``probabilities`` with runs of zero-probability pages inserted."""
    half = probabilities.size // 2
    return np.concatenate([np.zeros(head), probabilities[:half],
                           np.zeros(middle), probabilities[half:],
                           np.zeros(tail)])


@st.composite
def page_distributions(draw):
    n = draw(st.integers(min_value=1, max_value=3000))
    if draw(st.booleans()):
        probabilities = zipf_probabilities(
            n, draw(st.floats(min_value=0.0, max_value=3.0)))
    else:  # near-uniform
        jitter = draw(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3]))
        weights = 1.0 + jitter * np.random.default_rng(
            draw(st.integers(0, 2**32 - 1))).random(n)
        probabilities = weights / weights.sum()
    zeros = st.integers(min_value=0, max_value=40)
    # A middle run is that many steps over one CDF value: past the step
    # bound it leaves the guide path, so keep most runs short.
    middle = st.integers(min_value=0, max_value=12)
    return with_zeros(probabilities, draw(zeros), draw(middle), draw(zeros))


def adversarial_uniforms(sampler):
    """0, the top double, every bucket edge k / M and every CDF value with
    its neighbours, all in [0, 1)."""
    cdf = reference_cdf(sampler.probabilities)
    buckets = sampler._guide[2]
    values = np.concatenate([
        [0.0, _TOP], np.arange(buckets) / buckets,
        np.nextafter(cdf, 0.0), cdf, np.nextafter(cdf, 2.0)])
    values = values[(values >= 0.0) & (values < 1.0)]
    # Long enough for the guide path, whatever the page count.
    return np.resize(values, max(values.size, _GUIDE_MIN_BATCH))


BATCH_SIZES = st.one_of(
    st.integers(min_value=0, max_value=2 * _GUIDE_MIN_BATCH),
    st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]))


class TestIdenticalDraws:
    """The guide table answers exactly what ``searchsorted`` over the
    CDF answers, from the same uniforms, for every batch size."""

    @settings(max_examples=150, deadline=None)
    @given(page_distributions(), st.lists(BATCH_SIZES, min_size=1,
                                          max_size=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_searchsorted_and_generator_state(self, probabilities,
                                                      sizes, seed):
        sampler = ZipfSampler(probabilities, np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        cdf = reference_cdf(probabilities)
        for size in sizes:
            pages = sampler.sample(size)
            expected = np.searchsorted(cdf, twin.random(size), side="right")
            assert pages.dtype == expected.dtype
            assert np.array_equal(pages, expected)
            assert (sampler._rng.bit_generator.state
                    == twin.bit_generator.state)
        assert sampler.sample_one() == np.searchsorted(
            cdf, twin.random(), side="right")

    @pytest.mark.parametrize("probabilities", [
        pytest.param(zipf_probabilities(1000, 0.95), id="paper"),
        pytest.param(zipf_probabilities(1, 0.95), id="one-page"),
        pytest.param(zipf_probabilities(1000, 1.5), id="five-steps"),
        pytest.param(with_zeros(zipf_probabilities(500, 0.95), 7, 5, 9),
                     id="zero-runs"),
        # Sums to 1 within tolerance, but the CDF passes 1 early.
        pytest.param(np.array([0.5, 0.5 + 4e-10, 1e-12, 1e-12]),
                     id="sum-above-one"),
        # CDF values land on and next to bucket edges.
        *(pytest.param(np.full(n, 1.0 / n), id=f"uniform-{n}")
          for n in (3, 10, 100, 125, 1000, 3000)),
    ])
    def test_adversarial_uniforms(self, probabilities):
        sampler = ZipfSampler(probabilities, np.random.default_rng(0))
        uniforms = adversarial_uniforms(sampler)
        sampler = ZipfSampler(probabilities, Uniforms(uniforms))
        assert np.array_equal(
            sampler.sample(uniforms.size),
            np.searchsorted(reference_cdf(probabilities), uniforms,
                            side="right"))

    @pytest.mark.parametrize("num_pages", [3, 100])
    def test_cdf_values_beside_bucket_edges(self, num_pages):
        # The first page's CDF value is k / M or one of its neighbours: a
        # bucket index or table count that rounds puts it on the wrong
        # side of the uniforms next to it.
        buckets = ZipfSampler(np.full(num_pages, 1 / num_pages),
                              np.random.default_rng(0))._guide[2]
        for k in range(1, min(buckets, 64)):
            edge = k / buckets
            for first in (np.nextafter(edge, 0.0), edge,
                          np.nextafter(edge, 1.0)):
                probabilities = np.append(first, np.full(
                    num_pages - 1, (1 - first) / (num_pages - 1)))
                uniforms = np.resize(
                    [np.nextafter(first, 0.0), first,
                     np.nextafter(first, 1.0), edge], _GUIDE_MIN_BATCH)
                sampler = ZipfSampler(probabilities, Uniforms(uniforms))
                assert np.array_equal(
                    sampler.sample(uniforms.size),
                    np.searchsorted(reference_cdf(probabilities), uniforms,
                                    side="right"))

    def test_paper_table_is_one_step(self):
        guide, steps, buckets = ZipfSampler(
            zipf_probabilities(1000, 0.95), np.random.default_rng(0))._guide
        assert (buckets, steps, guide.size) == (16384, 1, 16384)

    def test_heavy_skew_keeps_the_binary_search(self):
        sampler = ZipfSampler(zipf_probabilities(3000, 3.0),
                              np.random.default_rng(0))
        assert sampler._guide is None
        assert sampler.sample(_CHUNK).max() < 3000


class TestPageOf:
    """``page_of`` — one uniform, bisected over the CDF as Python floats —
    answers what ``searchsorted(side="right")`` answers."""

    @settings(max_examples=150, deadline=None)
    @given(page_distributions(),
           st.lists(st.floats(min_value=0.0, max_value=_TOP), max_size=20))
    def test_matches_searchsorted(self, probabilities, drawn):
        twin = np.random.default_rng(5)
        sampler = ZipfSampler(probabilities, np.random.default_rng(5))
        cdf = reference_cdf(probabilities)
        # Every CDF value, its neighbours either side, 0 and the top
        # double; zero-probability runs repeat CDF values, and a zero
        # tail's CDF is exactly 1, which no uniform reaches.
        uniforms = np.concatenate([
            [0.0, _TOP], np.nextafter(cdf, 0.0), cdf,
            np.nextafter(cdf, 2.0), drawn])
        uniforms = uniforms[uniforms < 1.0]
        pages = [sampler.page_of(u) for u in uniforms.tolist()]
        assert all(type(page) is int for page in pages)
        assert pages == np.searchsorted(cdf, uniforms, side="right").tolist()
        assert max(pages) < probabilities.size
        assert probabilities[pages].min() > 0
        assert sampler._rng.bit_generator.state == twin.bit_generator.state

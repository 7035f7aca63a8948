"""Digest stability and sensitivity; the accounting identities; the pin."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from benchmarks.spine import run
from benchmarks.spine.checks import (
    canonical,
    digest,
    run_digest,
    run_failures,
)
from benchmarks.spine.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    repeat_seeds,
)
from repro.core.fast import FastEngine


@pytest.fixture(scope="module")
def light():
    config = WORKLOADS["ipp_light"].config(11, smoke=True)
    return config, FastEngine(config).run()


def test_digest_ignores_provenance_and_key_order(light):
    config, result = light
    again = FastEngine(config).run()
    assert again.manifest["created_utc"] is not None
    assert again.manifest["elapsed_seconds"] != result.manifest[
        "elapsed_seconds"]
    assert run_digest(again) == run_digest(result)
    assert digest({"a": 1, "b": [1.5, None]}) == digest(
        {"b": (1.5, None), "a": 1})


def test_digest_moves_with_any_statistic(light):
    _, result = light
    base = run_digest(result)
    assert run_digest(dataclasses.replace(
        result, requests_dropped=result.requests_dropped + 1)) != base
    nudged = dataclasses.replace(result.response_miss,
                                 mean=result.response_miss.mean * (1 + 1e-6))
    assert run_digest(dataclasses.replace(
        result, response_miss=nudged)) != base
    other_seed = FastEngine(
        WORKLOADS["ipp_light"].config(12, smoke=True)).run()
    assert run_digest(other_seed) != base


def test_canonical_absorbs_last_bit_noise_only():
    assert canonical(0.1 + 0.2) == canonical(0.3)
    assert canonical(1.0000001) != canonical(1.0)
    assert canonical(math.nan) == "nan"
    assert canonical(-math.inf) == "-inf"
    assert canonical(True) is True
    assert json.dumps(canonical({1: (math.nan, 2)})) == '{"1": ["nan", 2]}'


def test_identities_hold_on_sound_runs_and_name_a_break(light):
    config, result = light
    accesses, capacity = config.run.measure_accesses, config.server.queue_size
    assert run_failures(result, accesses, capacity) == []
    lost = dataclasses.replace(result,
                               requests_dropped=result.requests_dropped + 1)
    assert any("offers sent" in text
               for text in run_failures(lost, accesses, capacity))
    skipped = dataclasses.replace(result, slots_push=result.slots_push + 9)
    assert any("slot kinds" in text
               for text in run_failures(skipped, accesses, capacity))
    empty = dataclasses.replace(
        result, response_miss=dataclasses.replace(result.response_miss,
                                                  mean=math.nan))
    assert any("response_miss.mean is nan" in text
               for text in run_failures(empty, accesses, capacity))
    assert any("measure_accesses" in text
               for text in run_failures(result, accesses + 1, capacity))


@pytest.mark.parametrize("name", ["ipp_light", "rxw_deep_queue",
                                  "reference_ipp", "sweep_fig3a"])
def test_smoke_pin_matches_golden(name):
    golden = run.load_golden(smoke=True)
    workload = WORKLOADS[name]
    seed = repeat_seeds(DEFAULT_SEED, 1)[0]
    repeat = run.run_repeat(workload, seed, smoke=True)
    assert repeat.failures == []
    assert repeat.digest == golden[name][0]
    ledger = run.Ledger()
    ledger.add("pinned", repeat, golden[name][0])
    ledger.add("wrong pin", repeat, "0" * 16)
    assert (ledger.attempted, ledger.failed) == (
        2 * repeat.attempted, 1)
    assert "!= pinned" in ledger.failures[0]


def test_repeat_seeds_are_a_prefix_stable_function_of_the_seed():
    assert repeat_seeds(5, 3) == repeat_seeds(5, 8)[:3]
    assert repeat_seeds(5, 3) != repeat_seeds(6, 3)
    assert len(set(repeat_seeds(5))) == len(repeat_seeds(5))

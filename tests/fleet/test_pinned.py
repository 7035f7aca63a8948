"""The fleet's numbers, pinned per seed through both engines.

Every fleet draw is handed out by position — the i-th Zipf rank and the
i-th think time of a slot go to the i-th due client — so one client
leaving or joining a slot's due set, or the set changing order, moves
every later number of the run.  These four small configurations pin
``RunResult.fleet`` (plus the MC's mean response and the run length) so
such a change fails tier-1, not only the benchmark spine's digests.

``pinned.json`` was captured on the commit before the slot calendar
replaced the per-slot population scan; a deliberate model change
re-captures it with ``PYTHONPATH=src:. python tests/fleet/test_pinned.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core import ENGINES
from repro.core.algorithms import Algorithm
from tests.conftest import small_config

_HETEROGENEOUS = dict(fleet__think_time_spread=0.5,
                      fleet__zipf_offset_spread=5,
                      fleet__cache_size_spread=0.5)

CONFIGS = {
    # 300 clients at 0.25 accesses/slot: most slots have nobody due.
    "ipp_heterogeneous": small_config(
        Algorithm.IPP, fleet__num_clients=300, fleet__think_time=1200.0,
        fleet__cache_size=5, server__thresh_perc=0.25, **_HETEROGENEOUS),
    # The general loop with no backchannel: survivors are discarded.
    "pure_push": small_config(
        Algorithm.PURE_PUSH, fleet__num_clients=40,
        fleet__think_time=160.0, fleet__cache_size=5),
    # No push program, so no distance table and no threshold filter.
    "pure_pull": small_config(
        Algorithm.PURE_PULL, fleet__num_clients=40,
        fleet__think_time=160.0, fleet__cache_size=5),
    # Program swaps mid-run: FleetState.set_schedule is exercised.
    "ipp_reprogrammed": small_config(
        Algorithm.IPP, fleet__num_clients=30, fleet__think_time=30.0,
        fleet__cache_size=3, server__thresh_perc=0.25,
        scheduler__reprogram_interval=40,
        scheduler__reprogram_min_requests=5),
}

PINNED_PATH = Path(__file__).with_name("pinned.json")


def measure(name: str, engine: str) -> dict:
    result = ENGINES[engine](CONFIGS[name]).run()
    return {**result.fleet,
            "response_miss_mean": result.response_miss.mean,
            "total_slots": result.total_slots}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fleet_numbers_are_pinned(name, engine):
    want = json.loads(PINNED_PATH.read_text())[name][engine]
    # Counts compare exactly under this tolerance; sums may differ in
    # the last bits across numpy builds, and a moved draw changes the
    # counts long before that.
    assert measure(name, engine) == pytest.approx(want, rel=1e-9,
                                                  nan_ok=True)


if __name__ == "__main__":
    PINNED_PATH.write_text(json.dumps(
        {name: {engine: measure(name, engine) for engine in sorted(ENGINES)}
         for name in sorted(CONFIGS)}, indent=1) + "\n")

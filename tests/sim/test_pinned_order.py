"""The reference engine's calendar, pinned event for event.

The spine's golden digests and ``tests/fleet/pinned.json`` pin *results*;
two kernels that fire the same events in a different same-instant order
can agree on those for a long time.  This pins the calendar itself: the
``(time, priority, seq)`` heap entry of every event ``Environment.step``
fires during three small runs, hashed.

``seq`` enters the hash as its rank among the *fired* events' seqs, so an
event that is scheduled but never fires (the engine's ``max_slots``
sentinel) does not move it; the relative scheduling order of everything
that does fire is what the kernel's FIFO tie-break is made of.

``pinned_order.json`` was captured on the commit before the kernel's
per-event path was shortened (f30d26e); a deliberate model change
re-captures it with ``PYTHONPATH=src:. python tests/sim/test_pinned_order.py``.
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro.core.algorithms import Algorithm
from repro.core.simulation import ReferenceEngine
from tests.conftest import small_config

CONFIGS = {
    # ~10^4 fired events each.
    "ipp_underloaded": small_config(
        Algorithm.IPP, run__settle_accesses=200, run__measure_accesses=600),
    "ipp_saturated_ttr250": small_config(
        Algorithm.IPP, client__think_time_ratio=250.0,
        run__settle_accesses=0, run__measure_accesses=4),
    "pure_pull": small_config(
        Algorithm.PURE_PULL, run__settle_accesses=200,
        run__measure_accesses=600),
}

PINNED_PATH = Path(__file__).with_name("pinned_order.json")


def fired_entries(config) -> list[tuple[float, int, int]]:
    """``(time, priority, seq)`` of every event one run fires, in order."""
    engine = ReferenceEngine(config)
    env = engine.env
    entries = []
    step = env.step

    def logging_step():
        entries.append(env._queue[0][:3])
        step()

    env.step = logging_step  # the engine resolves ``step`` on the instance
    engine.run()
    return entries


def order_digest(entries) -> dict:
    rank = {seq: i for i, seq in enumerate(sorted(e[2] for e in entries))}
    digest = hashlib.sha256()
    for time, priority, seq in entries:
        digest.update(struct.pack("<dqq", time, priority, rank[seq]))
    return {"events": len(entries), "sha256": digest.hexdigest()}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fired_events_match_the_pinned_calendar(name):
    pinned = json.loads(PINNED_PATH.read_text())
    assert order_digest(fired_entries(CONFIGS[name])) == pinned[name]


if __name__ == "__main__":  # pragma: no cover - re-capture
    PINNED_PATH.write_text(json.dumps(
        {name: order_digest(fired_entries(CONFIGS[name]))
         for name in sorted(CONFIGS)}, indent=2) + "\n")
    print(PINNED_PATH.read_text())

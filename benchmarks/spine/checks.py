"""Correctness of a measured run: statistic digests and accounting
identities.

A change meant only to speed the simulator up must leave every
simulated statistic identical, so each engine run is reduced to a
digest of its ``RunResult`` (provenance stripped) and compared with the
pinned one in ``golden.json``.  Runs on seeds that have no pin are
still held to the identities the counters must satisfy whatever the
seed; :func:`run_failures` names the ones a result breaks.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

__all__ = ["canonical", "digest", "figure_digest", "run_digest",
           "run_failures"]

#: Significant digits a float keeps in a digest.  Counters and slot
#: times are exact; means and standard deviations are accumulated sums
#: whose last bits may depend on the SIMD width numpy dispatched to.
_DIGITS = 10


def canonical(value: Any) -> Any:
    """``value`` with floats rounded to :data:`_DIGITS` significant
    digits, non-finite floats spelled out, and containers normalised."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.{_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if hasattr(value, "item"):  # numpy scalar
        return canonical(value.item())
    return value


def digest(payload: Any) -> str:
    """16 hex characters identifying ``payload``'s canonical form."""
    text = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(result: Any) -> str:
    """Digest of one ``RunResult``: every simulated statistic, no
    provenance (the manifest carries a timestamp and the wall time)."""
    data = result.to_dict()
    data.pop("manifest", None)
    return digest(data)


def figure_digest(figure: Any) -> str:
    """Digest of one ``FigureResult``'s series (manifest stripped)."""
    data = figure.to_dict()
    data.pop("manifest", None)
    return digest(data)


def run_failures(result: Any, measure_accesses: int,
                 queue_size: int) -> list[str]:
    """The accounting identities ``result`` breaks (empty when sound).

    ``measure_accesses`` and ``queue_size`` are the simulated config's.
    The identities hold for both engines and for the Pure-Push analytic
    shortcut, on any seed:

    - no headline statistic is NaN and the run advanced simulated time,
    - measured accesses split into hits and misses, and every miss was
      answered (steady-state runs stop on a completed access),
    - slot kinds sum to the measured interval (the fast loop's exit tick
      allows one slot of slack either way),
    - every pull slot served exactly one queued request,
    - offers presented to the queue equal what the sources sent: VC
      requests that survived the cache and the threshold, MC pulls, and
      fleet offers — i.e. ``enqueued + duplicate + dropped == offers``
      with the right-hand side counted where the requests originate,
    - the queue never held more than its capacity.
    """
    broken: list[str] = []
    for label, value in (
            ("response_miss.mean", result.response_miss.mean),
            ("response_all.mean", result.response_all.mean),
            ("total_slots", result.total_slots),
            ("measured_slots", result.measured_slots),
            ("queue_length_mean", result.queue_length_mean)):
        if not math.isfinite(value):
            broken.append(f"{label} is {value}")
    if not result.total_slots > 0:
        broken.append("total_slots is not positive")
    accesses = result.mc_hits + result.mc_misses
    if accesses != measure_accesses:
        broken.append(f"hits+misses={accesses} != measure_accesses="
                      f"{measure_accesses}")
    if result.response_miss.count != result.mc_misses:
        broken.append(f"answered misses {result.response_miss.count} != "
                      f"mc_misses {result.mc_misses}")
    kinds = (result.slots_push + result.slots_pull + result.slots_padding
             + result.slots_idle)
    if abs(kinds - result.measured_slots) > 2:
        broken.append(f"slot kinds sum to {kinds}, measured_slots="
                      f"{result.measured_slots}")
    if result.requests_served != result.slots_pull:
        broken.append(f"served {result.requests_served} != pull slots "
                      f"{result.slots_pull}")
    if result.vc_generated < result.vc_absorbed + result.vc_filtered:
        broken.append("vc_generated < absorbed + filtered")
    fleet_offered = result.fleet["offered"] if result.fleet else 0
    sent = (result.vc_generated - result.vc_absorbed - result.vc_filtered
            + result.mc_pulls_sent + fleet_offered)
    if result.request_offers != sent:
        broken.append(f"enqueued+duplicate+dropped={result.request_offers}"
                      f" != offers sent {sent}")
    backlog = abs(result.requests_enqueued - result.requests_served)
    if backlog > queue_size:
        broken.append(f"queue backlog {backlog} exceeds capacity "
                      f"{queue_size}")
    return broken

"""The shared event-name registry: every cross-engine vocabulary in one place.

Trace records, metrics, and run results are stringly-typed at their
serialization boundary (trace files, figure JSON, metric names), and the
reference and fast engines must speak *exactly* the same vocabulary or
`repro.obs.compare` and downstream consumers silently diverge.  This module
is the single source of truth for those vocabularies:

- :data:`SLOT_KINDS` — what a broadcast slot carried; mirrors
  :class:`repro.server.broadcast_server.SlotKind` (the enum cannot import
  this module without an obs -> core -> server cycle, so the two are kept
  in sync by a tier-1 test instead, ``tests/lint/test_repo_clean.py``),
- :data:`OFFER_OUTCOMES` — what the server queue did with a request;
  mirrors :class:`repro.server.queue.Offer` (same test),
- :data:`SERVED_KINDS` — what satisfied a measured access
  (:attr:`repro.obs.requests.RequestRecord.served_kind`),
- :data:`ENGINE_NAMES` — engine identifiers stamped into run manifests,
- :data:`SCHEDULER_DISCIPLINES` — selectable pull-queue disciplines;
  mirrors :data:`repro.server.schedulers.DISCIPLINES` (same no-import
  sync, same test, as the enums) and is the vocabulary for the
  ``discipline`` field wherever it crosses a serialization boundary
  (config JSON, queue snapshots, figure labels),
- :data:`SCHEDULER_DECISIONS` — the scheduler decision counters the
  queue snapshot carries and the metrics registry mirrors as
  ``<prefix>_sched_<name>_total`` instruments.

Adding a new event name means adding it here first: the trace encoders
look each name up in these tuples and raise on one they do not know.
"""

from __future__ import annotations

__all__ = [
    "SLOT_KINDS",
    "OFFER_OUTCOMES",
    "SERVED_KINDS",
    "ENGINE_NAMES",
    "SCHEDULER_DISCIPLINES",
    "SCHEDULER_DECISIONS",
]

#: What a broadcast slot carried (SlotKind enum values, in enum order).
SLOT_KINDS: tuple[str, ...] = ("push", "pull", "padding", "idle")

#: What the bounded server queue did with an offered request (Offer values).
OFFER_OUTCOMES: tuple[str, ...] = ("enqueued", "duplicate", "dropped")

#: What satisfied a measured-client access (RequestRecord.served_kind).
SERVED_KINDS: tuple[str, ...] = ("cache", "push", "pull")

#: Engine identifiers as stamped into run-provenance manifests.
ENGINE_NAMES: tuple[str, ...] = ("fast", "reference")

#: Pull-queue scheduling disciplines (``SchedulerConfig.discipline``
#: values; mirrors ``repro.server.schedulers.DISCIPLINES``).
SCHEDULER_DISCIPLINES: tuple[str, ...] = ("fifo", "rxw", "lwf")

#: Scheduler decision counters mirrored into the metrics registry
#: (``<prefix>_sched_<name>_total``): pull services granted, and those
#: that did not take the FIFO head.
SCHEDULER_DECISIONS: tuple[str, ...] = ("pops", "reordered")

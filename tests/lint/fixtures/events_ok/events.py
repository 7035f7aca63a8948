"""Mini registry mirroring repro/obs/events.py (REP005 clean)."""

SLOT_KINDS = ("push", "pull", "padding", "idle")
OFFER_OUTCOMES = ("enqueued", "duplicate", "dropped")
SERVED_KINDS = ("cache", "push", "pull")

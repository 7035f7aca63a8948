"""Simulation logic: the sibling module's allow-file leaves REP001 strict here."""

import time


def tick_duration() -> float:
    return time.time()

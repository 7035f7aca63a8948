"""Wall-clock telemetry: REP001 excused for this module only."""
# lint: allow-file[REP001] -- wall-clock telemetry module, not simulation logic

import time


def stamp() -> float:
    return time.monotonic()


def elapsed(since: float) -> float:
    return time.perf_counter() - since

"""Fixture: a module-level use sees only the bindings made before it."""

import time

STARTED = time.monotonic()

time = None

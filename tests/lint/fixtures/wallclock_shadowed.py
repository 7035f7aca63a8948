"""Fixture: names that shadow the time module are not clocks (REP001)."""

import time


def from_parameter(time):
    return time.time()


def from_local(stub):
    time = stub
    return time.perf_counter()

"""Fixture: a class-body default runs before a later same-named method."""

import time


class Profile:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock

    def time(self):
        return self.clock()

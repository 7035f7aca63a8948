"""The kernel's per-event cost, counted instead of timed.

The reference engine's speed is the kernel's Python frames per fired
event (13.05 before the per-event path was shortened, 3.08 after), and a
layer of calls put back there costs ~10% that no shared CI box can see in
a timing.  A ``sys.setprofile`` count of ``call`` events is exact at a
seed, so it can be a tier-1 assertion: a smoke-length run of the spine's
``reference_ipp`` point, frames whose code lives under ``repro/sim/`` per
``Environment.step``.
"""

import os
import sys

from repro.core.simulation import ReferenceEngine
from repro.experiments.figures import FIGURES
from repro.sim import Environment

KERNEL = os.sep + os.path.join("repro", "sim") + os.sep
#: step -> Process._resume -> the next Timeout's constructor is 3; the
#: MC's arrival events (``Event.__init__``, ``succeed``, ``_schedule``)
#: add the rest.
FRAMES_PER_EVENT_CEILING = 4.0


def test_kernel_frames_per_fired_event():
    config = FIGURES["3a"].representative_config().with_(
        run__settle_accesses=50, run__measure_accesses=100)
    engine = ReferenceEngine(config)
    step_code = Environment.step.__code__
    kernel_frames = fired = 0

    def on_call(frame, event, _arg):
        nonlocal kernel_frames, fired
        if event == "call" and KERNEL in frame.f_code.co_filename:
            kernel_frames += 1
            fired += frame.f_code is step_code

    previous = sys.getprofile()
    sys.setprofile(on_call)
    try:
        result = engine.run()
    finally:
        sys.setprofile(previous)
    assert fired > 10_000
    # Same events as ever: 2.58 per slot at this length (2.56 at full).
    assert 2.5 < fired / result.total_slots < 2.65
    assert kernel_frames / fired <= FRAMES_PER_EVENT_CEILING

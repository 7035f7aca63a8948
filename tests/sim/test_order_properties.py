"""Calendar invariants over random process programs.

A program is a handful of processes, each a short list of operations:
timeouts at either priority with zero and repeated delays, waits on shared
events another process succeeds or fails (pending, triggered or already
processed when waited on), a process waiting on a process, and a crash —
watched by a callback, waited on by a process, or by nobody, in which case
it propagates out of ``step`` and ends the run.

Whatever the program, the clock never decreases, the event ``step`` fires
is the least ``(time, priority, seq)`` on the whole calendar and sits there
at the time and priority the program asked for, a timeout resumes its
process at exactly that instant, a wait on a processed event resumes within
the same instant, and every event's callbacks run exactly once when it is
processed and never before.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.sim.core import NORMAL, URGENT

SHARED = 3
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)

delays = st.sampled_from(DELAYS)
shared_index = st.integers(0, SHARED - 1)
operations = st.one_of(
    st.tuples(st.just("timeout"), delays, st.sampled_from((URGENT, NORMAL))),
    st.tuples(st.just("wait"), shared_index),
    st.tuples(st.just("succeed"), shared_index, delays),
    st.tuples(st.just("fail"), shared_index, delays),
    st.tuples(st.just("join"), st.integers(0, 5)),
    st.tuples(st.just("crash")),
)
#: ``(watched by a callback, operations)`` per process.
programs = st.lists(st.tuples(st.booleans(), st.lists(operations, max_size=8)),
                    min_size=1, max_size=6)


class Crash(Exception):
    """The programs' own failure, told apart from a kernel error."""


class Harness:
    def __init__(self, program):
        self.env = Environment()
        self.violations = []
        #: event -> times its counting callback has run.
        self.calls = {}
        #: event -> the ``(time, priority)`` the program asked for.
        self.asked = {}
        self.shared = [self.counted(self.env.event()) for _ in range(SHARED)]
        self.processes = []
        for index, (watched, ops) in enumerate(program):
            process = self.env.process(self.body(index, ops))
            self.processes.append(self.counted(process) if watched else process)

    def counted(self, event):
        self.calls[event] = 0
        event.add_callback(self.count)
        return event

    def count(self, event):
        self.calls[event] += 1
        if not event.processed:
            self.violations.append("callback ran before processed was set")

    def body(self, index, ops):
        env = self.env
        for op in ops:
            kind = op[0]
            if kind == "crash":
                raise Crash(index)
            try:
                if kind == "timeout":
                    due = env.now + op[1]
                    timeout = self.counted(env.timeout(op[1], priority=op[2]))
                    self.asked[timeout] = (due, op[2])
                    yield timeout
                    if env.now != due:
                        self.violations.append(
                            f"timeout due {due} resumed at {env.now}")
                elif kind == "wait":
                    event = self.shared[op[1]]
                    seen = (event.processed, env.now)
                    yield event
                    if seen[0] and env.now != seen[1]:
                        self.violations.append("processed event made us wait")
                elif kind == "join":
                    target = self.processes[op[1] % len(self.processes)]
                    if target is not self.processes[index]:
                        yield target
                elif not self.shared[op[1]].triggered:
                    event = self.shared[op[1]]
                    self.asked[event] = (env.now + op[2], NORMAL)
                    if kind == "succeed":
                        event.succeed(index, delay=op[2])
                    else:
                        event.fail(Crash(index), delay=op[2])
            except Crash:
                pass  # a failed event, or a crashed process we waited on

    def run(self):
        env = self.env
        while env._queue:
            head = env._queue[0][:3]
            assert head == min(entry[:3] for entry in env._queue)
            assert head[0] >= env.now
            event = env._queue[0][3]
            assert self.asked.get(event, head[:2]) == head[:2]
            try:
                env.step()
            except Crash:
                break  # nobody watched that process: the run is over
            assert env.now == head[0]
        assert not self.violations, self.violations
        for event, calls in self.calls.items():
            assert calls == (1 if event.processed else 0)
            assert (event.callbacks is None) == event.processed


@given(programs)
@settings(max_examples=300, deadline=None)
def test_any_program_keeps_the_calendar_invariants(program):
    Harness(program).run()

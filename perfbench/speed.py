"""Scaling measured times to a reference machine speed.

The machines this benchmark runs on are shared: the same pure-Python
loop takes 20 ms in one minute and 30 ms in the next, and every
operation of a run moves with it.  So the benchmark times a fixed
calibration job, which uses only the standard library, after every
operation, and once the run is over scales each operation's wall time
by the reference job time over the mean of the jobs around it.

The job runs in the benchmark process, between operations: a CPU left
idle for a millisecond, as it would be while another process ran the
job, makes the next operation up to twice as slow on these machines.
So that the program under test cannot slow the job along with itself,
the job runs with garbage collection off (the program's heap size does
not enter) and with no trace or profile hook installed.  What it cannot
shield against is a second thread holding the GIL; the benchmark runs
none.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

#: Seconds the calibration job takes on the reference machine (a
#: 2-vCPU x86-64 VM running CPython 3.11, at its fast end).  Scaled
#: times are "milliseconds on that machine".
REFERENCE_JOB_S = 0.0015


class _Node:
    __slots__ = ("name", "parents", "children")

    def __init__(self, name):
        self.name = name
        self.parents = []
        self.children = {}


def _dispatch_loop(iterations: int) -> int:
    """Closure-threaded dispatch over a register list, like the fast
    engine's inner loop."""
    regs = [0, 0, 0]

    def mul(r):
        r[1] = (r[0] * 7) ^ r[2]
        return 1

    def add(r):
        r[2] = (r[2] + (r[1] & 0xFFFF)) & 0xFFFFFFF
        return 2

    def step(r):
        r[0] += 1
        return 0 if r[0] < iterations else -1

    ops = (mul, add, step)
    pc = 0
    while pc >= 0:
        pc = ops[pc](regs)
    return regs[2]


def _object_graph(nodes: int) -> int:
    """Small objects linked by lists and dicts, like IR construction."""
    graph = [_Node("root")]
    for index in range(nodes):
        node = _Node("n%d" % index)
        parent = graph[index // 3]
        parent.children[node.name] = node
        node.parents.append(parent)
        graph.append(node)
    return sum(len(node.children) for node in graph)


def calibration_job() -> float:
    """Seconds one run of the fixed job takes now."""
    enabled = gc.isenabled()
    tracer, profiler = sys.gettrace(), sys.getprofile()
    gc.disable()
    sys.settrace(None)
    sys.setprofile(None)
    try:
        started = time.perf_counter()
        _dispatch_loop(3000)
        _object_graph(1200)
        return time.perf_counter() - started
    finally:
        sys.setprofile(profiler)
        sys.settrace(tracer)
        if enabled:
            gc.enable()


class Speedometer:
    """The calibration jobs of one run, in order.  An operation is
    scaled by the mean of the ``WINDOW`` jobs on each side of the one
    timed right after it, and that job: a single job is as noisy as a
    single operation, while the machine's speed drifts over seconds.
    The mean rather than the median, because the machine flips between
    a fast and a slow state many times a second, and an operation
    lasting milliseconds runs at the average of the two."""

    WINDOW = 8

    def __init__(self):
        self.jobs = []

    def tick(self) -> int:
        """Time one job; returns its index."""
        self.jobs.append(calibration_job())
        return len(self.jobs) - 1

    def scale(self, seconds: float, index: int) -> float:
        """``seconds`` measured just before job ``index``, scaled to
        the reference machine."""
        window = self.jobs[max(0, index - self.WINDOW):
                           index + self.WINDOW + 1]
        return seconds * REFERENCE_JOB_S / statistics.fmean(window)

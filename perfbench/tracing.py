"""Span tracing for the benchmark's traced run.

Spans are flat ``(name, start, end)`` tuples appended to one list while
an operation runs; the benchmark is single-threaded, so they nest
strictly and the tree is rebuilt afterwards by interval containment.
That keeps each wrapper down to two clock reads and one append, and
lets a wrapper decide *after* a call whether it was worth a span (a
``DecodeCache.decode`` that hit its cache is dispatch, not decoding).

A span's self time is its duration minus the part its direct children
cover.  Summed over an operation's tree, self times add up to the
operation's traced end-to-end time by construction; the operation's
own self time is the part no layer accounts for, reported as
``trace.uncovered_s``.  What can go wrong is the tree itself: a span
that overlaps a sibling or escapes its parent is counted as a
violation.

:func:`instrument` installs wrappers around the public entry points
that ``LLEE`` calls internally, only for the duration of a traced pass,
and restores the originals afterwards.
"""

from __future__ import annotations

import collections
import time
from contextlib import contextmanager

clock = time.perf_counter

#: Name of the root span every operation is recorded under.
ROOT = "op"


def call(spans, name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, recorded as span *name* when tracing
    (*spans* is a list) and called bare otherwise."""
    if spans is None:
        return fn(*args, **kwargs)
    started = clock()
    result = fn(*args, **kwargs)
    spans.append((name, started, clock()))
    return result


class Trace:
    """Spans and counts of the traced operations of one run."""

    def __init__(self):
        #: Spans of the operation in flight (cleared by :meth:`close_op`).
        self.spans = []
        #: Work counts recorded at layer boundaries.
        self.counts = collections.Counter()
        #: (target name, module, function name, machine function) per
        #: online or offline translation, counted after the operation
        #: so the count stays out of the timed region.
        self.translated = []
        #: (operation kind, span name) -> summed self seconds.
        self.self_time = collections.Counter()
        #: operation kind -> summed traced end-to-end seconds.
        self.op_time = collections.Counter()
        #: Spans that overlap a sibling or escape their parent.
        self.violations = 0

    def close_op(self, kind: str, started: float, ended: float) -> None:
        """Fold the spans of one operation (timed ``started`` to
        ``ended`` by the caller) into self times, and check that they
        nest."""
        root = [ROOT, started, ended, 0.0]
        nodes = [root]
        stack = [root]
        for name, start, end in sorted(self.spans,
                                       key=lambda s: (s[1], -s[2])):
            while len(stack) > 1 and stack[-1][2] <= start:
                stack.pop()
            parent = stack[-1]
            if start < parent[1] or end > parent[2]:
                self.violations += 1
            parent[3] += end - start
            node = [name, start, end, 0.0]
            nodes.append(node)
            stack.append(node)
        self.spans.clear()
        for name, start, end, children in nodes:
            self.self_time[(kind, name)] += (end - start) - children
        self.op_time[kind] += ended - started
        for target, module, name, machine in self.translated:
            self.counts["targets.%s.native_insts" % target] += \
                machine.num_instructions()
            self.counts["targets.%s.llva_insts" % target] += \
                module.get_function(name).cached_num_instructions()
        self.translated.clear()


def _spanned(spans, name, original):
    append = spans.append

    def wrapper(*args, **kwargs):
        started = clock()
        result = original(*args, **kwargs)
        append((name, started, clock()))
        return result
    return wrapper


@contextmanager
def instrument(trace: Trace):
    """Wrap the layer entry points LLEE calls internally so their calls
    land in ``trace`` — for the duration of the ``with`` block only."""
    from repro.execution.fastpath import DecodeCache, FastInterpreter
    from repro.execution.machine_sim import MachineSimulator
    from repro.execution.tier2 import Tier2Cache
    from repro.llee import manager
    from repro.llee.jit import FunctionJIT
    from repro.llee.storage import DiskStorage
    from repro.minic import driver
    from repro.transforms.pass_manager import (PipelineReport,
                                               standard_pipeline)

    spans = trace.spans
    append = spans.append
    counts = trace.counts
    translated = trace.translated

    def decode(original):
        def wrapper(self, function):
            stats = self.stats
            before = stats.functions_decoded
            started = clock()
            decoded = original(self, function)
            if stats.functions_decoded != before:
                append(("execution.decode", started, clock()))
                counts["execution.decode.functions"] += 1
            return decoded
        return wrapper

    def codegen(original):
        def wrapper(*args, **kwargs):
            started = clock()
            module = original(*args, **kwargs)
            append(("minic.codegen", started, clock()))
            counts["minic.llva_insts"] += module.num_instructions()
            return module
        return wrapper

    def record(original):
        # The pipeline's own per-pass report: one call per pass run.
        def wrapper(self, name, changed, seconds):
            counts["transforms.pass_runs"] += 1
            counts["transforms.changed_runs"] += bool(changed)
            return original(self, name, changed, seconds)
        return wrapper

    def lookup(original):
        # Called on every call: only a lookup that compiled (or failed
        # to compile and pinned) is tier-2 compile work.
        def wrapper(self, function):
            stats = self.stats
            compiled, warm, pins = (stats.functions_compiled,
                                    stats.warm_compiles, stats.pins)
            started = clock()
            unit = original(self, function)
            if stats.functions_compiled != compiled or stats.pins != pins:
                append(("execution.tier2.compile", started, clock()))
                counts["execution.tier2.functions_compiled"] += \
                    stats.functions_compiled - compiled
                counts["execution.tier2.warm_loads"] += \
                    stats.warm_compiles - warm
            return unit
        return wrapper

    def storage_read(original):
        def wrapper(self, cache, name):
            started = clock()
            data = original(self, cache, name)
            append(("llee.storage.read", started, clock()))
            if data:
                counts["llee.storage.bytes_read"] += len(data)
            return data
        return wrapper

    def storage_write(original):
        def wrapper(self, cache, name, data, timestamp=None):
            started = clock()
            original(self, cache, name, data, timestamp)
            append(("llee.storage.write", started, clock()))
            counts["llee.storage.bytes_written"] += len(data)
        return wrapper

    def translate(original):
        def wrapper(self, name):
            started = clock()
            machine = original(self, name)
            append(("targets.%s.translate" % self.target.name, started,
                    clock()))
            translated.append((self.target.name, self.module, name,
                               machine))
            return machine
        return wrapper

    # Every pass of the -O2 pipeline is a FunctionPass, which
    # PassManager.run calls once per defined function.
    pass_types = {type(pass_): pass_.name for pass_ in standard_pipeline(2)}
    patches = [
        (driver, "parse_program",
         lambda f: _spanned(spans, "minic.parse", f)),
        (driver, "generate", codegen),
        (driver, "verify_module",
         lambda f: _spanned(spans, "ir.verify", f)),
        (PipelineReport, "record", record),
    ] + [
        (pass_type, "run",
         lambda f, name=name: _spanned(spans, "transforms." + name, f))
        for pass_type, name in pass_types.items()
    ] + [
        (manager, "read_module",
         lambda f: _spanned(spans, "bitcode.read", f)),
        (DecodeCache, "decode", decode),
        (Tier2Cache, "lookup", lookup),
        (DiskStorage, "read", storage_read),
        (DiskStorage, "write", storage_write),
        (FunctionJIT, "translate", translate),
        (FastInterpreter, "run",
         lambda f: _spanned(spans, "execution.run", f)),
        (MachineSimulator, "run",
         lambda f: _spanned(spans, "execution.machine_sim.run", f)),
    ]
    saved = []
    try:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

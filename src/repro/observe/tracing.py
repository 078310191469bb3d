"""Nested timed spans and instant events with attributes: one store,
one vocabulary and one export for the timestamped facts of a run.

A *span* is a fact with a duration (a pass, a translation, a tier-2
compile, a run); an *event* is a fact at one instant (a promotion, a
pin, a deopt, a trap delivery, a cache decision).  Events live in a
ring of :data:`EVENT_CAPACITY`; once it is full the oldest fall off,
and the export counts them as dropped.  Every name either kind may
carry is in :data:`VOCABULARY`, with the attributes it requires.

The tracer exports two ways, both stamped with
:data:`TRACE_FORMAT_VERSION`:

* **JSONL** — a header line (the version and the dropped-event count),
  then one JSON object per finished span or buffered event in time
  order (a span at its end, an event at its timestamp); easy to grep
  and to post-process.
* **Chrome ``trace_event`` JSON** — spans as complete (``"X"``) events
  and events as instant (``"i"``) events, loadable in chrome://tracing
  or https://ui.perfetto.dev, which renders the compile -> translate ->
  execute pipeline as a flame graph with the JIT lifecycle marked on it.

Span nesting is tracked with an explicit stack per tracer; the
toolchain is single-threaded, so one stack is enough (the exporter
still stamps pid/tid for the Chrome format).
"""

from __future__ import annotations

import heapq
import json
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

#: Bumped whenever :data:`VOCABULARY` or the shape of an export changes.
TRACE_FORMAT_VERSION = 2

#: Events kept in the ring: the whole JIT lifecycle of a benchsuite run
#: (a few hundred events) with room to spare.
EVENT_CAPACITY = 4096

SPAN = "span"
EVENT = "event"

#: The vocabulary of the trace: name -> (kind, required attributes).
#: Each ``cli.<command>`` span belongs to a subcommand that can observe.
VOCABULARY: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # toolchain entry points
    "cli.cc": (SPAN, ()),
    "cli.opt": (SPAN, ()),
    "cli.run": (SPAN, ()),
    "cli.stats": (SPAN, ()),
    "cli.profile": (SPAN, ()),
    "cli.load_module": (SPAN, ("path",)),
    # MiniC front end
    "minic.compile": (SPAN, ("module", "optimization_level")),
    "minic.lex": (SPAN, ()),
    "minic.parse": (SPAN, ("tokens",)),
    "minic.sema": (SPAN, ("declarations",)),
    "minic.codegen": (SPAN, ("functions",)),
    "minic.verify": (SPAN, ()),
    # optimizer
    "passes.pipeline": (SPAN, ("module", "passes")),
    "pass.run": (SPAN, ("name", "changed")),
    "pass.verify": (SPAN, ("name",)),
    "autovec.loop": (EVENT, ("function", "header", "vectorized")),
    # native translation and the LLEE
    "jit.translate": (SPAN, ("function", "target")),
    "jit.translate_all": (SPAN, ("module", "target")),
    "llee.run_executable": (SPAN, ("target", "entry")),
    "llee.run_interpreted": (SPAN, ("entry", "engine", "tier2")),
    "llee.offline_translate": (SPAN, ("target", "optimize_level")),
    "llee.cache_lookup": (SPAN, ("key",)),
    "llee.cache_store": (SPAN, ("key",)),
    "llee.execute": (SPAN, ("entry",)),
    "llee.cache": (EVENT, ("cache", "event", "key", "target")),
    "llee.storage": (EVENT, ("op", "cache", "name", "hit")),
    "tracecache.form_traces": (SPAN, ("module", "traces")),
    # execution
    "interp.run": (SPAN, ("entry", "engine", "steps")),
    "native.run": (SPAN, ("entry", "target")),
    "tier2.promote": (EVENT, ("function", "reason")),
    "tier2.compile": (SPAN, ("function", "kind", "warm")),
    "tier2.pin": (EVENT, ("function", "reason")),
    "tier2.deopt": (EVENT, ("function", "reason")),
    "trap.deliver": (EVENT, ("engine", "trap", "handler")),
    "trap.unhandled": (EVENT, ("engine", "trap")),
    "smc.invalidate": (EVENT, ("layer", "reason", "function")),
    "san.fault": (EVENT, ("kind", "detail")),
    # the host
    "gc.collect": (SPAN, ("generation", "collected")),
}


def validate(kind: str, name: str, attrs: Mapping[str, object]
             ) -> List[str]:
    """Problems with one span or event (empty if it is well formed):
    its name is in :data:`VOCABULARY` as that kind, it carries the
    required attributes, and they serialize to JSON."""
    entry = VOCABULARY.get(name)
    if entry is None:
        return ["unknown {0} {1!r}".format(kind, name)]
    problems = []
    if entry[0] != kind:
        problems.append("{0!r} is a {1}, not a {2}".format(
            name, entry[0], kind))
    missing = sorted(set(entry[1]) - set(attrs))
    if missing:
        problems.append("{0} {1!r} lacks {2}".format(kind, name, missing))
    try:
        json.dumps(dict(attrs))
    except (TypeError, ValueError) as error:
        problems.append("{0} {1!r}: {2}".format(kind, name, error))
    return problems


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    kind = SPAN

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) \
            - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": SPAN,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


@dataclass
class EventRecord:
    """One instant event, with the span that was open around it."""

    kind = EVENT

    name: str
    ts: float
    parent_id: Optional[int]
    attrs: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": EVENT,
            "name": self.name,
            "ts": self.ts,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
        }


class _SpanContext:
    """The ``with tracer.span(...)`` handle; ``set()`` adds attributes
    mid-span (e.g. a pass recording whether it changed anything)."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self._record = record

    def set(self, **attrs) -> "_SpanContext":
        self._record.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._record)


class NullSpan:
    """The disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def set(self, **attrs) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = NullSpan()


class Tracer:
    """Records the spans and events of one run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._next_id = 1
        self._stack: List[SpanRecord] = []
        self.records: List[SpanRecord] = []
        self.events: Deque[EventRecord] = deque(maxlen=EVENT_CAPACITY)
        self.events_recorded = 0
        self._dumped = False

    def span(self, name: str, /, **attrs) -> _SpanContext:
        # The id is taken before anything is allocated: an allocation
        # can start a collection, whose ``gc.collect`` span takes the
        # next id.
        span_id = self._next_id
        self._next_id += 1
        record = SpanRecord(
            span_id=span_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start=self._clock(),
            attrs=dict(attrs),
        )
        self._stack.append(record)
        return _SpanContext(self, record)

    def _finish(self, record: SpanRecord) -> None:
        record.end = self._clock()
        # Pop through abandoned children so an exception mid-span
        # cannot wedge the stack.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
        self.records.append(record)

    def event(self, name: str, /, **attrs) -> None:
        """Append one event to the ring; the oldest falls off when it
        is full."""
        self.events_recorded += 1
        self.events.append(EventRecord(
            name, self._clock(),
            self._stack[-1].span_id if self._stack else None, attrs))

    @property
    def events_dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.events_recorded - len(self.events)

    def reset(self) -> None:
        self._stack.clear()
        self.records.clear()
        self.events.clear()
        self.events_recorded = 0
        self._dumped = False
        self._next_id = 1

    def autodump(self, reason: str, stream=None) -> None:
        """Write the last 40 events of the ring, for crash forensics:
        at most once per tracer, so a trap storm cannot flood stderr."""
        if self._dumped:
            return
        self._dumped = True
        stream = stream if stream is not None else sys.stderr
        events = list(self.events)[-40:]
        stream.write("== trace events ({0}): last {1} of {2}".format(
            reason, len(events), self.events_recorded))
        if self.events_dropped:
            stream.write(", {0} dropped".format(self.events_dropped))
        stream.write(" ==\n")
        origin = events[0].ts if events else 0.0
        for event in events:
            stream.write("  +{0:.6f}s {1:<16} {2}\n".format(
                event.ts - origin, event.name, " ".join(
                    "{0}={1}".format(k, v)
                    for k, v in event.attrs.items())))

    # -- export --------------------------------------------------------------

    def header(self) -> Dict[str, object]:
        return {"trace": TRACE_FORMAT_VERSION,
                "dropped": self.events_dropped}

    def to_chrome_trace(self) -> Dict[str, object]:
        """The ``trace_event`` "JSON Object Format": complete events
        for spans, instant events for events, the header as
        ``otherData``."""
        pid = os.getpid()
        events = []
        for record in self.records + list(self.events):
            args = {str(k): v for k, v in record.attrs.items()}
            if record.parent_id is not None:
                args["parent_span"] = record.parent_id
            event = {
                "name": record.name,
                "cat": record.name.split(".")[0],
                "pid": pid,
                "tid": 1,
                "args": args,
            }
            if record.kind == SPAN:
                event.update(ph="X", ts=record.start * 1e6,
                             dur=record.duration * 1e6)
            else:
                event.update(ph="i", s="t", ts=record.ts * 1e6)
            events.append(event)
        events.sort(key=lambda event: event["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": self.header()}

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")

    def write_jsonl(self, path: str) -> None:
        """The header, then finished spans and buffered events in time
        order: a span at its end, an event at its timestamp."""
        with open(path, "w") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True))
            handle.write("\n")
            for record in heapq.merge(
                    self.records, self.events,
                    key=lambda r: r.ts if r.kind == EVENT else r.end):
                handle.write(json.dumps(record.to_dict(),
                                        sort_keys=True))
                handle.write("\n")

    def write(self, path: str) -> None:
        """Pick the format from the suffix: ``.jsonl`` -> JSONL,
        anything else -> Chrome trace JSON."""
        if path.endswith(".jsonl"):
            self.write_jsonl(path)
        else:
            self.write_chrome(path)

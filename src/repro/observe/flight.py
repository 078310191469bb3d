"""Flight recorder: a bounded ring buffer of timestamped, structured
events covering the full JIT lifecycle.

Where the metrics registry answers "how many deopts happened?", the
flight recorder answers "*when* did each deopt happen, in what order
relative to the compiles and traps, and *why*".  It is the black-box
recorder for the tiered engine: tier-2 promotion decisions, compile
begin/end with durations, pins and deopts with reasons, trap delivery,
SMC/cache invalidation, and LLEE storage traffic all land here as
small dicts in a ``collections.deque(maxlen=capacity)``.

Contract with the hot paths (mirrors the metrics layer):

* **zero overhead when off** — emit sites guard on a hoisted local
  (``fl = observe.flight()`` / ``st.flight``) and skip entirely when
  it is ``None``;
* recording an event is one dict build + one deque append — no I/O,
  no formatting;
* on a sanitizer fault or an unhandled trap the recorder dumps its
  tail to stderr once (:meth:`FlightRecorder.autodump`), so the
  evidence trail survives even when nobody asked for an export.

Export is JSONL (one event per line, preceded by a header line), the
same grep-friendly shape as the tracer's span log.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

#: Bumped when the event vocabulary or header shape changes.
#: v2: background-compilation events (removed in v7).
#: v3: hosted native execution events (removed in v6).
#: v4: hosted execution backend events (removed in v6).
#: v5: loop autovectorization (``autovec.loop`` recording, per
#: candidate loop, whether it was vectorized — with the lane count —
#: or rejected, with the reason taxonomy of transforms/autovec.py).
#: v6: v3/v4 events removed; ``smc.invalidate`` layers: tier2, native.
#: v7: v2 events and the v1 trace-arm and mid-loop-entry events
#: removed; ``tier2.compile.end`` kinds are ``dispatch``/``error``.
FLIGHT_FORMAT_VERSION = 7

#: Default ring capacity — big enough to hold the full JIT lifecycle
#: of a benchsuite run (a few hundred events) with room to spare,
#: small enough that an always-on recorder stays
#: cheap (< 1 MB of dicts).
DEFAULT_CAPACITY = 4096

#: Event vocabulary: type -> required field names (beyond the
#: envelope's ``seq``/``ts``/``type``).  ``validate_event`` checks
#: incoming events against this; the parity tests check every event
#: an engine run produces.
EVENT_SCHEMA: Dict[str, Set[str]] = {
    # run lifecycle
    "run.begin": {"engine", "entry"},
    "run.end": {"engine", "steps"},
    # tier-2 promotion + compilation
    "tier2.promote": {"function", "reason"},
    "tier2.compile.begin": {"function"},
    "tier2.compile.end": {"function", "kind", "seconds", "warm"},
    "tier2.pin": {"function", "reason"},
    "tier2.deopt": {"function", "reason"},
    # trap delivery
    "trap.deliver": {"engine", "trap", "handler"},
    "trap.unhandled": {"engine", "trap"},
    # self-modifying code / cache invalidation
    "smc.invalidate": {"layer", "reason"},
    # LLEE caches + storage
    "llee.cache": {"cache", "event"},
    "llee.storage": {"op", "cache", "name", "hit"},
    # native (simulated) translation
    "jit.translate.begin": {"function", "target"},
    "jit.translate.end": {"function", "target", "seconds"},
    # loop autovectorization (--vectorize)
    "autovec.loop": {"function", "header", "vectorized"},
    # sanitizer
    "san.fault": {"kind", "detail"},
}


def validate_event(event: Dict[str, object]) -> List[str]:
    """Return a list of problems with one recorded event (empty if it
    is well-formed): known type, envelope present, required fields
    present, JSON-serializable payload."""
    problems: List[str] = []
    for field in ("seq", "ts", "type"):
        if field not in event:
            problems.append("missing envelope field %r" % field)
    type_ = event.get("type")
    if type_ not in EVENT_SCHEMA:
        problems.append("unknown event type %r" % (type_,))
    else:
        missing = EVENT_SCHEMA[type_] - set(event)
        if missing:
            problems.append("type %s missing fields %s"
                            % (type_, sorted(missing)))
    try:
        json.dumps(event)
    except (TypeError, ValueError) as exc:
        problems.append("not JSON-serializable: %s" % exc)
    return problems


class FlightRecorder:
    """Bounded ring buffer of structured events.

    ``record`` is the only hot-path method; everything else is
    post-run analysis/export.  Timestamps are seconds relative to the
    recorder's creation (monotonic), so JSONL diffs are stable across
    runs.
    """

    __slots__ = ("capacity", "_events", "recorded", "epoch", "_clock",
                 "autodump_enabled", "_dumped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 autodump: bool = True, clock=time.perf_counter):
        self.capacity = int(capacity)
        self._events: Deque[Dict[str, object]] = \
            deque(maxlen=self.capacity)
        self.recorded = 0
        self._clock = clock
        self.epoch = clock()
        self.autodump_enabled = autodump
        self._dumped = False

    # -- hot path ------------------------------------------------------------

    def record(self, type_: str, **fields) -> Dict[str, object]:
        """Append one event.  Oldest events fall off when full."""
        self.recorded += 1
        event: Dict[str, object] = {
            "seq": self.recorded,
            "ts": round(self._clock() - self.epoch, 9),
            "type": type_,
        }
        if fields:
            event.update(fields)
        self._events.append(event)
        return event

    # -- reads ---------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.recorded - len(self._events)

    def events(self, type_: Optional[str] = None
               ) -> List[Dict[str, object]]:
        """Events still in the ring, oldest first; optionally
        filtered by exact type or ``"prefix."``-style prefix."""
        if type_ is None:
            return list(self._events)
        if type_.endswith("."):
            return [e for e in self._events
                    if str(e["type"]).startswith(type_)]
        return [e for e in self._events if e["type"] == type_]

    def counts(self) -> Dict[str, int]:
        """Event count per type (ring contents only)."""
        out: Dict[str, int] = {}
        for event in self._events:
            key = str(event["type"])
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def validate(self) -> List[str]:
        """Problems across every buffered event (empty == clean)."""
        problems: List[str] = []
        for event in self._events:
            for problem in validate_event(event):
                problems.append("seq %s: %s" % (event.get("seq"),
                                                problem))
        return problems

    def reset(self) -> None:
        self._events.clear()
        self.recorded = 0
        self.epoch = self._clock()
        self._dumped = False

    # -- export --------------------------------------------------------------

    def header(self) -> Dict[str, object]:
        return {
            "flight": FLIGHT_FORMAT_VERSION,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
        }

    def to_jsonl_lines(self) -> Iterable[str]:
        yield json.dumps(self.header(), sort_keys=True)
        for event in self._events:
            yield json.dumps(event, sort_keys=True)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line)
                handle.write("\n")

    def dump(self, stream=None, last: int = 40,
             reason: str = "") -> None:
        """Human-readable tail of the ring, for crash forensics."""
        stream = stream if stream is not None else sys.stderr
        events = list(self._events)[-last:]
        title = "flight recorder"
        if reason:
            title += " (%s)" % reason
        stream.write("== %s: last %d of %d events"
                     % (title, len(events), self.recorded))
        if self.dropped:
            stream.write(", %d dropped" % self.dropped)
        stream.write(" ==\n")
        for event in events:
            extra = " ".join(
                "%s=%s" % (k, v) for k, v in event.items()
                if k not in ("seq", "ts", "type"))
            stream.write("  [%6d] %10.6fs %-22s %s\n"
                         % (event["seq"], event["ts"],
                            event["type"], extra))

    def autodump(self, reason: str, stream=None) -> None:
        """One-shot crash dump: fires at most once per recorder so a
        trap storm cannot flood stderr."""
        if not self.autodump_enabled or self._dumped:
            return
        self._dumped = True
        self.dump(stream=stream, reason=reason)

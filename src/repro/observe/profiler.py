"""Step-attribution profiler for the tiered execution engine.

Attributes executed V-ISA steps and wall time to ``(function, tier)``
pairs, where tier is one of:

* ``tier1`` — the closure-threaded (or reference) interpreter;
* ``tier2`` — tier-2 compiled (block-dispatch) units.

The scheme is frame-boundary accounting: the engines call
:meth:`StepProfiler.push` / :meth:`pop` at every frame transition
(call, return, unwind), passing the architectural step counter.  The
window of steps since the previous transition is charged to whatever
context sat on top of the stack.
This is exact, not sampled: tier-2 generated code syncs ``st.steps``
before every yield and return, and every frame transition happens at
one of those synced points — so the per-tier totals reconcile exactly
with the engine's own ``tier1_steps`` / ``tier2_steps`` report fields.

With ``record_stack=True`` the same hooks also build a
speedscope-compatible "evented" profile (open/close frame events in
wall-clock seconds), so a hosted run can be flame-graphed at
https://www.speedscope.app — see :meth:`speedscope_document`.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

#: Tier labels, in promotion order.
TIERS: Tuple[str, ...] = ("tier1", "tier2")

#: Ceiling on recorded speedscope open/close events; past it the
#: profiler keeps aggregating but stops growing the event log
#: (balanced: a close is only emitted for a recorded open).
DEFAULT_MAX_STACK_EVENTS = 200_000

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

RowKey = Tuple[str, str]          # (function, tier)
Row = List[float]                 # [steps, seconds, calls]


class StepProfiler:
    """Aggregates steps/time per (function, tier); optionally records
    a frame-stack event log for speedscope export."""

    __slots__ = ("rows", "_stack", "_mark_steps", "_mark_time",
                 "_clock", "record_stack", "start_time", "end_time",
                 "max_stack_events", "_frame_index", "_frame_names",
                 "_stack_events", "_event_recorded")

    def __init__(self, record_stack: bool = False,
                 max_stack_events: int = DEFAULT_MAX_STACK_EVENTS,
                 clock=time.perf_counter):
        self.rows: Dict[RowKey, Row] = {}
        self._stack: List[RowKey] = []
        self._clock = clock
        self._mark_steps = 0
        self._mark_time = clock()
        self.start_time = self._mark_time
        self.end_time: Optional[float] = None
        self.record_stack = record_stack
        self.max_stack_events = max_stack_events
        self._frame_index: Dict[RowKey, int] = {}
        self._frame_names: List[str] = []
        self._stack_events: List[Tuple[str, int, float]] = []
        self._event_recorded: List[Optional[int]] = []

    # -- frame-transition hooks (the hot path) -------------------------------

    def _account(self, steps: int) -> float:
        """Charge the window since the last transition to the top
        context, then advance the marks."""
        now = self._clock()
        if self._stack:
            delta = steps - self._mark_steps
            elapsed = now - self._mark_time
            row = self.rows[self._stack[-1]]
            row[0] += delta
            row[1] += elapsed
        self._mark_steps = steps
        self._mark_time = now
        return now

    def push(self, steps: int, function: str, tier: str) -> None:
        """A frame was pushed; subsequent steps belong to it."""
        now = self._account(steps)
        key = (function, tier)
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = [0, 0.0, 0]
        row[2] += 1
        self._stack.append(key)
        if self.record_stack:
            self._open_frame(key, now)

    def pop(self, steps: int) -> None:
        """The top frame returned (or was unwound)."""
        now = self._account(steps)
        if self._stack:
            self._stack.pop()
            if self.record_stack:
                self._close_frame(now)

    def flush(self, steps: int) -> None:
        """End of run: charge the residual window and close every
        still-open frame (exit intrinsics and traps can strand the
        whole stack)."""
        now = self._account(steps)
        while self._stack:
            self._stack.pop()
            if self.record_stack:
                self._close_frame(now)
        self.end_time = now

    # -- speedscope event log ------------------------------------------------

    def _open_frame(self, key: RowKey, now: float) -> None:
        if len(self._stack_events) >= self.max_stack_events:
            # Past the cap: remember the open was skipped so the
            # matching close is skipped too (keeps O/C balanced).
            self._event_recorded.append(None)
            return
        index = self._frame_index.get(key)
        if index is None:
            index = self._frame_index[key] = len(self._frame_names)
            self._frame_names.append("%s [%s]" % key)
        self._event_recorded.append(index)
        self._stack_events.append(("O", index, now - self.start_time))

    def _close_frame(self, now: float) -> None:
        if not self._event_recorded:
            return
        index = self._event_recorded.pop()
        if index is not None:
            self._stack_events.append(
                ("C", index, now - self.start_time))

    # -- reads ---------------------------------------------------------------

    def total_steps(self) -> int:
        return int(sum(row[0] for row in self.rows.values()))

    def tier_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-tier rollup: steps, seconds, calls."""
        out: Dict[str, Dict[str, float]] = {}
        for (_, tier), (steps, seconds, calls) in self.rows.items():
            bucket = out.setdefault(
                tier, {"steps": 0, "seconds": 0.0, "calls": 0})
            bucket["steps"] += int(steps)
            bucket["seconds"] += seconds
            bucket["calls"] += int(calls)
        return out

    def tier1_steps(self) -> int:
        return int(sum(row[0] for (_, tier), row in self.rows.items()
                       if tier != "tier2"))

    def tier2_steps(self) -> int:
        """Steps the engine books as ``tier2_steps``."""
        return int(sum(row[0] for (_, tier), row in self.rows.items()
                       if tier == "tier2"))

    def function_rows(self) -> List[Dict[str, object]]:
        """Rows sorted hottest-first, JSON-ready."""
        rows = [{"function": function, "tier": tier,
                 "calls": int(calls), "steps": int(steps),
                 "seconds": seconds}
                for (function, tier), (steps, seconds, calls)
                in self.rows.items()]
        rows.sort(key=lambda row: (-row["steps"], row["function"],
                                   row["tier"]))
        return rows

    def to_dict(self) -> Dict[str, object]:
        duration = ((self.end_time if self.end_time is not None
                     else self._mark_time) - self.start_time)
        return {
            "functions": self.function_rows(),
            "tiers": self.tier_totals(),
            "tier1_steps": self.tier1_steps(),
            "tier2_steps": self.tier2_steps(),
            "total_steps": self.total_steps(),
            "duration_seconds": duration,
        }

    # -- speedscope export ---------------------------------------------------

    def speedscope_document(self, name: str = "repro profile"
                            ) -> Dict[str, object]:
        """The speedscope "evented" file format, built from the
        recorded open/close frame events."""
        end = ((self.end_time if self.end_time is not None
                else self._mark_time) - self.start_time)
        events = [{"type": type_, "frame": index, "at": at}
                  for type_, index, at in self._stack_events]
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "shared": {
                "frames": [{"name": frame_name}
                           for frame_name in self._frame_names],
            },
            "profiles": [{
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": max(end, events[-1]["at"] if events
                                else 0.0),
                "events": events,
            }],
        }

    def write_speedscope(self, path: str,
                         name: str = "repro profile") -> None:
        with open(path, "w") as handle:
            json.dump(self.speedscope_document(name), handle, indent=1)
            handle.write("\n")

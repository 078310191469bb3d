"""The software trace cache (Section 4.2, item 3).

"It also lets us develop an aggressive optimization strategy that
operates on traces of LLVA code corresponding to the hot traces of
native code.  We have implemented the tracing strategy and software
trace cache, including the ability to gather cross-procedure traces."

Traces are formed from block-level profiles by the classic
most-frequent-successor walk.  Applying a trace *lays the function's
blocks out in trace order*, which lets the translators delete the
unconditional jumps between consecutive hot blocks (the simulator falls
through) — the software analogue of keeping the hot path straight in a
hardware trace cache.  Cross-procedure traces come from inlining hot
call sites first (see :mod:`repro.llee.pgo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro import observe
from repro.ir.module import BasicBlock, Function, Module
from repro.llee.profile import Profile


@dataclass
class Trace:
    """A hot straight-line path through one function."""

    function: Function
    blocks: List[BasicBlock]
    heat: int

    @property
    def length(self) -> int:
        return len(self.blocks)


class SoftwareTraceCache:
    """Forms, stores, and applies traces for one module."""

    def __init__(self, module: Module,
                 hot_threshold: int = 50,
                 successor_bias: float = 0.4):
        self.module = module
        self.hot_threshold = hot_threshold
        #: A successor must carry at least this fraction of the block's
        #: executions for the trace to continue through it.
        self.successor_bias = successor_bias
        self.traces: List[Trace] = []
        #: Called with each Function whose block layout changed in
        #: :meth:`apply_layout`.  Relayout does not bump ``smc_version``
        #: (the body is unchanged), so caches keyed on decoded block
        #: order — the fast engine's :class:`DecodeCache` — hook in
        #: here, mirroring the ``smc_listeners`` invalidation path.
        self.relayout_listeners: List[Callable[[Function], None]] = []

    # -- formation -----------------------------------------------------------

    def form_traces(self, profile: Profile) -> List[Trace]:
        with observe.span("tracecache.form_traces",
                          module=self.module.name) as span:
            self.traces = []
            for function in self.module.functions.values():
                if function.is_declaration:
                    continue
                self.traces.extend(self._form_in(function, profile))
            self.traces.sort(key=lambda t: -t.heat)
            span.set(traces=len(self.traces))
        if observe.enabled():
            observe.counter("tracecache.traces_formed",
                            len(self.traces))
            for trace in self.traces:
                observe.histogram("tracecache.trace_length",
                                  trace.length)
        return self.traces

    def _form_in(self, function: Function,
                 profile: Profile) -> List[Trace]:
        """The most-frequent-successor walk: seed a trace at each
        still-unclaimed hot block, hottest first, and extend it while
        the best unclaimed successor is hot enough."""
        counts = {
            block.name or "": profile.block_count(function.name,
                                                  block.name or "")
            for block in function.blocks
        }
        claimed: Set[int] = set()
        traces: List[Trace] = []
        seeds = sorted(function.blocks,
                       key=lambda b: -counts[b.name or ""])
        for seed in seeds:
            if id(seed) in claimed:
                continue
            heat = counts[seed.name or ""]
            if heat < self.hot_threshold:
                break
            blocks = [seed]
            claimed.add(id(seed))
            current = seed
            while True:
                successor = self._best_successor_of(current, counts,
                                                    claimed)
                if successor is None:
                    break
                blocks.append(successor)
                claimed.add(id(successor))
                current = successor
            if len(blocks) > 1:
                traces.append(Trace(function, blocks, heat))
        return traces

    def _best_successor_of(self, block: BasicBlock,
                           counts: Dict[str, int],
                           claimed: Set[int]) -> Optional[BasicBlock]:
        successors = [s for s in set(block.successors())
                      if id(s) not in claimed]
        if not successors:
            return None
        best = max(successors, key=lambda s: counts[s.name or ""])
        block_count = max(counts[block.name or ""], 1)
        if counts[best.name or ""] < self.hot_threshold:
            return None
        if counts[best.name or ""] < block_count * self.successor_bias:
            return None
        return best

    # -- application ------------------------------------------------------------

    def apply_layout(self) -> int:
        """Reorder each traced function's blocks so every trace is
        contiguous (entry block stays first).  Returns the number of
        functions relaid."""
        by_function: Dict[int, List[Trace]] = {}
        for trace in self.traces:
            by_function.setdefault(id(trace.function), []).append(trace)
        changed = 0
        for traces in by_function.values():
            function = traces[0].function
            new_order: List[BasicBlock] = []
            placed: Set[int] = set()

            def place(block: BasicBlock) -> None:
                if id(block) not in placed:
                    placed.add(id(block))
                    new_order.append(block)

            place(function.entry_block)
            for trace in traces:
                for block in trace.blocks:
                    place(block)
            for block in function.blocks:
                place(block)
            if new_order != function.blocks:
                function.blocks = new_order
                changed += 1
                for listener in self.relayout_listeners:
                    listener(function)
        observe.counter("tracecache.functions_relaid", changed)
        return changed

    # -- reporting ----------------------------------------------------------------

    def coverage(self, profile: Profile) -> float:
        """Fraction of all block executions that fall inside traces."""
        total = sum(profile.counts.values())
        if total == 0:
            return 0.0
        in_trace = 0
        for trace in self.traces:
            for block in trace.blocks:
                in_trace += profile.block_count(trace.function.name,
                                                block.name or "")
        return in_trace / total

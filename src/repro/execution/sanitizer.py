"""llva-san: ASan-style shadow metadata for LLVA execution.

The paper makes memory faults an architectural event (Section 3.1/3.4:
all memory is explicitly allocated and ``ExceptionsEnabled`` controls
whether a bad ``load``/``store`` traps), but the base :class:`Memory`
only bounds-checks arena edges.  This module layers per-object shadow
metadata on top of it:

* every heap allocation is surrounded by :data:`REDZONE`-byte redzones,
  so an overflow from one object into its neighbour faults instead of
  silently corrupting it;
* ``free`` moves the block into a quarantine — the address range stays
  poisoned and is *never* handed out again, so use-after-free faults
  deterministically instead of aliasing a fresh allocation;
* ``pop_frame`` scrubs the popped stack range (and the live
  ``stack_pointer`` boundary makes any below-SP access fault);
* every allocation carries a record of its allocation site, free site,
  and requested size, so a fault report names the offending
  instruction, the offset into the object, and where the object was
  allocated and freed.

Sanitizer faults are *diagnostic*: they subclass
:class:`~repro.execution.memory.MemoryError_` with ``unmaskable`` set,
so both engines deliver them even when the faulting instruction's
ExceptionsEnabled bit is cleared (``free`` faults surface through
``call``, which masks by default).

Everything here is opt-in (``sanitize=True`` / ``--sanitize``) and
costs nothing when off: the base :class:`Memory` carries ``san = None``
as a class attribute and the engines only consult it when it is set.
"""

from __future__ import annotations

import bisect as _bisect
import struct as _struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import observe
from repro.execution.memory import (
    DEFAULT_STACK_LIMIT,
    HEAP_BASE,
    Memory,
    MemoryError_,
    _CODEC_TYPES,
    _align_up,
)
from repro.ir.types import TargetData

#: Bytes of poisoned padding on each side of every heap allocation.
REDZONE = 16

#: Fill pattern for freed (quarantined) heap payloads.
_POISON_BYTE = 0xDD
#: Fill pattern for redzone bytes (debuggability in hexdumps).
_REDZONE_BYTE = 0xAA


def format_site(function_name: str, block_name: str, index: int,
                opcode: str) -> str:
    """The canonical "where" string: ``%fn:block:#i (opcode)``."""
    return "%{0}:{1}:#{2} ({3})".format(function_name, block_name,
                                        index, opcode)


@dataclass
class AllocationRecord:
    """Shadow metadata for one heap allocation (live or quarantined)."""

    #: Payload start — the address ``malloc`` returned.
    address: int
    #: Requested payload size in bytes (exact, not rounded).
    size: int
    #: Chunk bounds: ``[chunk_start, chunk_end)`` covers the left
    #: redzone, the payload, and the right redzone.  Chunks tile the
    #: sanitized heap contiguously.
    chunk_start: int
    chunk_end: int
    #: Instruction that performed the allocation.
    alloc_site: str
    #: Instruction that freed the block; ``None`` while live.
    free_site: Optional[str] = None


@dataclass
class FaultReport:
    """A structured sanitizer diagnosis, rendered into the trap detail."""

    kind: str  # e.g. "heap-use-after-free"
    access: str  # "read" | "write" | "free"
    address: int
    size: int
    site: str
    allocation: Optional[AllocationRecord] = None
    extra: str = ""

    def render(self) -> str:
        if self.access == "free":
            head = "{0}: free of 0x{1:x}".format(self.kind, self.address)
        else:
            head = "{0}: {1} of {2} byte{3} at 0x{4:x}".format(
                self.kind, self.access, self.size,
                "" if self.size == 1 else "s", self.address)
        parts = [head]
        if self.extra:
            parts.append(self.extra)
        parts.append("at {0}".format(self.site))
        text = " ".join(parts)
        record = self.allocation
        if record is not None:
            text += "; allocated at {0}".format(record.alloc_site)
            if record.free_site is not None:
                text += "; freed at {0}".format(record.free_site)
        return text


class SanitizerFault(MemoryError_):
    """A diagnosed memory bug.  Unmaskable: ExceptionsEnabled cannot
    suppress a sanitizer report (a masked diagnosis would corrupt the
    very run it was protecting)."""

    unmaskable = True

    def __init__(self, report: FaultReport):
        super().__init__(report.render(), report.address)
        self.report = report


class ShadowSanitizer:
    """Per-allocation shadow metadata plus the fault-site protocol.

    Both engines tell the sanitizer *where* execution is before each
    potentially-faulting step: the reference engine hands over its live
    frame (formatted lazily, only if a fault actually fires), the fast
    engine stores a string precomputed at decode time.
    """

    def __init__(self) -> None:
        # Chunk index: starts are appended in increasing order (bump
        # allocation), so lookup is a single bisect.
        self._chunk_starts: List[int] = []
        self._by_chunk: Dict[int, AllocationRecord] = {}
        self._by_payload: Dict[int, AllocationRecord] = {}
        #: Decode-time site string (fast engine) — wins when set.
        self.current_site: Optional[str] = None
        self._site_frame = None  # (frame, inst) from the reference engine
        # -- statistics, exported as san.* metrics --
        self.fault_count = 0
        self.fault_kinds: Dict[str, int] = {}
        self.allocations = 0
        self.frees = 0
        self.quarantine_bytes = 0
        self.redzone_bytes = 0
        self.stack_scrubbed_bytes = 0

    # -- fault sites -----------------------------------------------------

    def set_site(self, site: str) -> None:
        self.current_site = site
        self._site_frame = None

    def set_site_frame(self, frame, inst) -> None:
        self._site_frame = (frame, inst)
        self.current_site = None

    def site(self) -> str:
        if self.current_site is not None:
            return self.current_site
        if self._site_frame is not None:
            frame, inst = self._site_frame
            return format_site(frame.function.name, frame.block.name,
                               frame.index, inst.opcode)
        return "<runtime>"

    # -- bookkeeping -----------------------------------------------------

    def register_allocation(self, payload: int, size: int,
                            chunk_start: int,
                            chunk_end: int) -> AllocationRecord:
        record = AllocationRecord(payload, size, chunk_start, chunk_end,
                                  self.site())
        self._chunk_starts.append(chunk_start)
        self._by_chunk[chunk_start] = record
        self._by_payload[payload] = record
        self.allocations += 1
        self.redzone_bytes += (chunk_end - chunk_start) - size
        observe.gauge("san.redzone.bytes", self.redzone_bytes)
        return record

    def register_free(self, record: AllocationRecord) -> None:
        record.free_site = self.site()
        self.frees += 1
        self.quarantine_bytes += record.size
        observe.gauge("san.quarantine.bytes", self.quarantine_bytes)

    # -- checks ----------------------------------------------------------

    def _chunk_at(self, address: int) -> Optional[AllocationRecord]:
        i = _bisect.bisect_right(self._chunk_starts, address) - 1
        if i < 0:
            return None
        record = self._by_chunk[self._chunk_starts[i]]
        if address >= record.chunk_end:
            return None
        return record

    def check_heap(self, address: int, size: int,
                   access: str) -> AllocationRecord:
        """Validate a heap access of *size* bytes at *address*; returns
        the owning allocation record or raises :class:`SanitizerFault`."""
        record = self._chunk_at(address)
        if record is None:
            self.fault(FaultReport("heap-wild-access", access, address,
                                   size, self.site()))
        offset = address - record.address
        if record.free_site is not None:
            self.fault(FaultReport(
                "heap-use-after-free", access, address, size,
                self.site(), record,
                "(offset {0} into {1}-byte block)".format(offset,
                                                          record.size)))
        if offset < 0 or address + size > record.address + record.size:
            kind = ("heap-buffer-underflow" if offset < 0
                    else "heap-buffer-overflow")
            self.fault(FaultReport(
                kind, access, address, size, self.site(), record,
                "(offset {0} into {1}-byte block)".format(offset,
                                                          record.size)))
        return record

    def check_free(self, address: int) -> AllocationRecord:
        """Validate a ``free``; returns the (still-live) record or
        raises :class:`SanitizerFault`."""
        record = self._by_payload.get(address)
        if record is None:
            interior = self._chunk_at(address)
            if interior is not None:
                self.fault(FaultReport(
                    "invalid-free", "free", address, 0, self.site(),
                    interior,
                    "(offset {0} into {1}-byte block)".format(
                        address - interior.address, interior.size)))
            self.fault(FaultReport(
                "invalid-free", "free", address, 0, self.site(), None,
                "(not the start of any heap allocation)"))
        if record.free_site is not None:
            self.fault(FaultReport(
                "double-free", "free", address, record.size,
                self.site(), record,
                "({0}-byte block)".format(record.size)))
        return record

    def below_sp_fault(self, address: int, size: int, access: str,
                       stack_pointer: int) -> None:
        self.fault(FaultReport(
            "stack-below-sp", access, address, size, self.site(), None,
            "({0} bytes below the live stack pointer 0x{1:x})".format(
                stack_pointer - address, stack_pointer)))

    def fault(self, report: FaultReport) -> None:
        self.fault_count += 1
        self.fault_kinds[report.kind] = \
            self.fault_kinds.get(report.kind, 0) + 1
        observe.counter("san.faults", 1, kind=report.kind)
        if observe.enabled():
            observe.event("san.fault", kind=report.kind,
                          access=report.access, address=report.address,
                          site=report.site, detail=report.extra)
            observe.autodump("sanitizer fault: {0}".format(report.kind))
        raise SanitizerFault(report)

    def record_for(self, payload: int) -> Optional[AllocationRecord]:
        """Introspection helper (tests, reports)."""
        return self._by_payload.get(payload)


class SanitizedMemory(Memory):
    """:class:`Memory` with llva-san shadow metadata enabled.

    The heap becomes a bump-only allocator whose chunks (left redzone +
    payload + right redzone) tile ``[HEAP_BASE, cursor)`` contiguously,
    so any in-range heap address maps to exactly one allocation record.
    Freed chunks are quarantined forever — addresses are never reused.
    """

    def __init__(self, target: TargetData,
                 stack_limit: int = DEFAULT_STACK_LIMIT):
        Memory.__init__(self, target, stack_limit)
        self.san = ShadowSanitizer()

    # -- checked access --------------------------------------------------
    # The typed load and store go through the checked raw access, so
    # every access is checked and reported the same way.

    def read_bytes(self, address: int, size: int) -> bytes:
        if HEAP_BASE <= address and address + size <= self._heap_cursor:
            self.san.check_heap(address, size, "read")
            offset = address - HEAP_BASE
            return bytes(self._heap_arena[offset:offset + size])
        if self._stack_base <= address < self.stack_pointer:
            self.san.below_sp_fault(address, size, "read",
                                    self.stack_pointer)
        return Memory.read_bytes(self, address, size)

    def write_bytes(self, address: int, payload: bytes) -> None:
        size = len(payload)
        if HEAP_BASE <= address and address + size <= self._heap_cursor:
            self.san.check_heap(address, size, "write")
            offset = address - HEAP_BASE
            self._heap_arena[offset:offset + size] = payload
            return
        if self._stack_base <= address < self.stack_pointer:
            self.san.below_sp_fault(address, size, "write",
                                    self.stack_pointer)
        Memory.write_bytes(self, address, payload)

    def load(self, address: int, codec: _struct.Struct):
        return codec.unpack(self.read_bytes(address, codec.size))[0]

    def store(self, address: int, codec: _struct.Struct, value) -> None:
        try:
            raw = codec.pack(value)
        except _struct.error:
            self.write_typed(address, _CODEC_TYPES[codec], value)
        else:
            self.write_bytes(address, raw)

    # -- heap ------------------------------------------------------------

    def malloc(self, size: int) -> int:
        if size <= 0:
            size = 1
        chunk_start = self._heap_cursor
        payload = chunk_start + REDZONE
        chunk_end = _align_up(payload + size + REDZONE, 16)
        if self._regions and self._overlaps_region(
                chunk_start, chunk_end - chunk_start):
            return 0  # as Memory.malloc: never over a mapped page
        end = chunk_end - HEAP_BASE
        if end > len(self._heap_arena):
            self._grow_heap(end)
        self._heap_cursor = chunk_end
        base = chunk_start - HEAP_BASE
        self._heap_arena[base:base + (payload - chunk_start)] = \
            bytes([_REDZONE_BYTE]) * (payload - chunk_start)
        pay_off = payload - HEAP_BASE
        self._heap_arena[pay_off + size:chunk_end - HEAP_BASE] = \
            bytes([_REDZONE_BYTE]) * (chunk_end - payload - size)
        self.san.register_allocation(payload, size, chunk_start,
                                     chunk_end)
        self._alloc_sizes[payload] = size
        self.heap_allocated += size
        self.heap_live += size
        return payload

    def free(self, address: int) -> None:
        if address == 0:
            return
        record = self.san.check_free(address)
        self.san.register_free(record)
        offset = address - HEAP_BASE
        self._heap_arena[offset:offset + record.size] = \
            bytes([_POISON_BYTE]) * record.size
        self._alloc_sizes.pop(address, None)
        self.heap_live -= record.size

    # -- stack -----------------------------------------------------------

    def pop_frame(self, old_stack_pointer: int) -> None:
        sp = self.stack_pointer
        if old_stack_pointer > sp:
            scrub = old_stack_pointer - sp
            offset = sp - self._stack_base
            self._stack_arena[offset:offset + scrub] = bytes(scrub)
            self.san.stack_scrubbed_bytes += scrub
        Memory.pop_frame(self, old_stack_pointer)

    # -- mapping queries -------------------------------------------------

    def is_mapped(self, address: int, size: int = 1) -> bool:
        try:
            self.read_bytes(address, size)
            return True
        except MemoryError_:
            return False

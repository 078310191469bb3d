"""Simulated memory for LLVA execution.

One flat virtual address space with the three regions the V-ISA
distinguishes (Section 3.1: "memory is partitioned into stack, heap, and
global memory, and all memory is explicitly allocated"):

* globals at :data:`GLOBAL_BASE`,
* heap growing upward from :data:`HEAP_BASE`,
* stack growing downward from :data:`STACK_TOP`.

Each region is an anonymous private mapping reserved at full size; the
kernel supplies a zero page on first touch, so a run pays, in time and
resident memory, only for the pages it touches.  :meth:`Memory.reset`
gives those pages back, so the same arenas serve the next run.

All accesses are bounds-checked; a reference outside an allocated region
(including the unmapped null page) is a memory fault — the condition the
paper's ``ExceptionsEnabled`` bit controls for ``load``/``store``.

Scalar encoding honours the :class:`~repro.ir.types.TargetData` endianness
and pointer size, so the same program state serializes differently on the
two V-ABI configurations — which the differential tests exercise.

The engines' ``load`` and ``store`` take one typed path,
:meth:`Memory.load` and :meth:`Memory.store`: one ``struct`` call on the
arena an address falls in, with a *codec* (a module-level
``struct.Struct`` of one scalar format, from :func:`scalar_codec` or
:func:`store_codec`) chosen when the instruction is decoded.  The
codecs are shared constants, so decoded code and tier-2 units that
outlive a memory bind them.  Tier 2 inlines one branch of that path: an
access through a global whose address passes the global test of
:meth:`Memory.load` is one codec call on :attr:`Memory.global_arena`;
every other address goes through :meth:`Memory.load` and
:meth:`Memory.store`.  :meth:`Memory.read_typed` and
:meth:`Memory.write_typed` are the reference interpreter's independent
path, through ``int.from_bytes``/``to_bytes``, and the oracle the
codec path is checked against.
"""

from __future__ import annotations

import bisect as _bisect
import mmap as _mmap
import struct as _struct
from typing import Any, Dict, List, Tuple

from repro.execution.events import ExecutionTrap, TrapKind
from repro.ir import types
from repro.ir.types import TargetData, Type

GLOBAL_BASE = 0x0001_0000
FUNCTION_BASE = 0x0000_1000  # addresses standing for functions
HEAP_BASE = 0x0100_0000
STACK_TOP = 0x7FFF_0000
DEFAULT_STACK_LIMIT = 8 * 1024 * 1024
PAGE_SIZE = 4096  # what llva.pagetable.map maps

_FP_FORMAT = {(4, "little"): "<f", (4, "big"): ">f",
              (8, "little"): "<d", (8, "big"): ">d"}
_SIGNED_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_UNSIGNED_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: The scalar type of each ``struct`` format code.
_CODE_TYPES = {"b": types.SBYTE, "B": types.UBYTE, "h": types.SHORT,
               "H": types.USHORT, "i": types.INT, "I": types.UINT,
               "q": types.LONG, "Q": types.ULONG, "?": types.BOOL,
               "f": types.FLOAT, "d": types.DOUBLE}
#: The codecs: one ``struct.Struct`` per byte order and scalar format,
#: keyed by its format string.
CODECS: Dict[str, _struct.Struct] = {
    order + code: _struct.Struct(order + code)
    for order in "<>" for code in _CODE_TYPES}
#: Codec -> the scalar type whose :meth:`Memory.write_typed` conversion
#: a value the codec rejects takes.
_CODEC_TYPES = {codec: _CODE_TYPES[fmt[1]] for fmt, codec in CODECS.items()}
#: The widest scalar, and the highest address a scalar of any width can
#: start at in the stack.
_MAX_SCALAR = max(codec.size for codec in CODECS.values())
_STACK_LAST = STACK_TOP - _MAX_SCALAR


def scalar_codec(target: TargetData, type_: Type) -> _struct.Struct:
    """The codec of scalar *type_* on *target*, in the type's own
    format: what a load unpacks.  An integer keeps its signedness, a
    pointer is an unsigned integer of the pointer size, a bool is
    ``?``."""
    return _codec(target, type_, signed=True)


def store_codec(target: TargetData, type_: Type) -> _struct.Struct:
    """The codec a store of *type_* packs with: the unsigned format of
    an integer's or a pointer's width, for a value masked to that width
    (its two's-complement image); otherwise :func:`scalar_codec`."""
    return _codec(target, type_, signed=False)


def _codec(target: TargetData, type_: Type, signed: bool) -> _struct.Struct:
    order = "<" if target.endianness == "little" else ">"
    if type_.is_pointer:
        code = _UNSIGNED_CODES[target.pointer_size]
    elif type_.is_bool:
        code = "?"
    elif isinstance(type_, types.IntegerType):
        codes = _SIGNED_CODES if signed and type_.signed \
            else _UNSIGNED_CODES
        code = codes[type_.size]
    elif type_.is_floating_point:
        code = "f" if type_.size == 4 else "d"
    else:
        raise ValueError("{0} is not a scalar type".format(type_))
    return CODECS[order + code]


class MemoryError_(ExecutionTrap):
    """A memory fault, as an :class:`ExecutionTrap` subclass."""

    def __init__(self, detail: str, address: int):
        super().__init__(TrapKind.MEMORY_FAULT, detail, address)


#: The globals end where the heap begins: ``_find_region`` tries the
#: heap first, so a global reaching past ``HEAP_BASE`` would alias heap
#: blocks.
_GLOBAL_ARENA_LIMIT = HEAP_BASE - GLOBAL_BASE
_HEAP_CHUNK = 4 * 1024 * 1024


def _reserve(size: int) -> _mmap.mmap:
    """*size* zero bytes; private, so a forked child never shares them."""
    return _mmap.mmap(-1, size, flags=_mmap.MAP_PRIVATE | _mmap.MAP_ANONYMOUS)


class Memory:
    """Flat byte-addressable memory built from three reserved arenas
    (globals, heap, stack) plus explicitly mapped extra pages.

    Arenas keep every access O(1): the heap arena in particular grows in
    large chunks instead of one region per ``malloc`` (a program making
    thousands of allocations would otherwise pay a per-access scan).
    """

    #: Shadow-metadata hook; :class:`SanitizedMemory` replaces this with
    #: a live :class:`~repro.execution.sanitizer.ShadowSanitizer`.  A
    #: class attribute so unsanitized instances pay nothing per access.
    san = None

    def __init__(self, target: TargetData,
                 stack_limit: int = DEFAULT_STACK_LIMIT):
        self.target = target
        self.stack_limit = stack_limit
        self._global_arena = _reserve(_GLOBAL_ARENA_LIMIT)
        self._heap_arena = _reserve(_HEAP_CHUNK)
        self._stack_arena = _reserve(stack_limit)
        self._stack_base = STACK_TOP - stack_limit
        self._clear()

    def reset(self) -> None:
        """Make every address read as a new memory's would: the arenas
        read as zero again, and nothing is allocated or mapped.  The
        arena objects stay.  On Linux, ``MADV_DONTNEED`` zero-fills a
        private anonymous mapping and frees its pages, so the reset
        costs nothing for pages that were never touched."""
        for arena in (self._global_arena, self._heap_arena,
                      self._stack_arena):
            arena.madvise(_mmap.MADV_DONTNEED)
        self._clear()

    def _clear(self) -> None:
        """The allocation state of a memory that holds nothing."""
        self._global_cursor = GLOBAL_BASE
        self._heap_cursor = HEAP_BASE
        self._free_lists: Dict[int, List[int]] = {}
        self._alloc_sizes: Dict[int, int] = {}
        # Freed-but-not-reallocated blocks, kept unmapped: sorted start
        # addresses plus start -> size.  Empty for programs that never
        # free, so the hot-path guard is a falsy check.
        self._freed_starts: List[int] = []
        self._freed_sizes: Dict[int, int] = {}
        self.stack_pointer = STACK_TOP
        # Extra regions (llva.pagetable.map): few, scanned linearly.
        self._regions: List[Tuple[int, bytearray]] = []
        #: Cumulative heap bytes ever allocated (monotonic).
        self.heap_allocated = 0
        #: Heap bytes currently live (allocated minus freed).
        self.heap_live = 0

    # -- region management ---------------------------------------------------

    def add_region(self, base: int, size: int) -> None:
        """Map a fresh zero-filled region at [base, base+size)."""
        if size <= 0:
            raise ValueError("region size must be positive")
        self._regions.append((base, bytearray(size)))

    def map_page(self, address: int) -> None:
        """``llva.pagetable.map``: map a zero page at *address* unless
        it touches the stack's reservation, the heap below its cursor
        (freed blocks included) or the globals below their cursor, which
        :meth:`_find_region` would find first, or *address* is mapped."""
        end = address + PAGE_SIZE
        arenas = ((self._stack_base, STACK_TOP),
                  (HEAP_BASE, self._heap_cursor),
                  (GLOBAL_BASE, self._global_cursor))
        if not any(max(low, address) < min(high, end)
                   for low, high in arenas) and not self.is_mapped(address):
            self.add_region(address, PAGE_SIZE)

    def _overlaps_region(self, address: int, size: int) -> bool:
        """Whether [address, address+size) touches a mapped region.
        The heap must never grow over one: :meth:`_find_region` tries
        the heap first, so the region's bytes would vanish."""
        end = address + size
        return any(base < end and address < base + len(data)
                   for base, data in self._regions)

    def _find_region(self, address: int, size: int) -> Tuple[int, Any]:
        # Only addresses at or above the live stack pointer are mapped
        # stack; [_stack_base, stack_pointer) is unallocated headroom.
        if self.stack_pointer <= address \
                and address + size <= STACK_TOP:
            return self._stack_base, self._stack_arena
        if HEAP_BASE <= address \
                and address + size <= self._heap_cursor:
            if self._freed_starts:
                self._check_not_freed(address, size)
            return HEAP_BASE, self._heap_arena
        if GLOBAL_BASE <= address \
                and address + size <= self._global_cursor:
            return GLOBAL_BASE, self._global_arena
        for base, data in self._regions:
            if base <= address and address + size <= base + len(data):
                return base, data
        if self._stack_base <= address \
                and address + size <= STACK_TOP:
            raise MemoryError_(
                "access of {0} bytes at 0x{1:x} below the live stack "
                "pointer 0x{2:x}".format(size, address,
                                         self.stack_pointer), address)
        raise MemoryError_(
            "access of {0} bytes at 0x{1:x} outside mapped memory"
            .format(size, address), address)

    def _check_not_freed(self, address: int, size: int) -> None:
        """Fault if [address, address+size) touches a freed heap block."""
        starts = self._freed_starts
        i = _bisect.bisect_right(starts, address)
        if i and starts[i - 1] + self._freed_sizes[starts[i - 1]] \
                > address:
            raise MemoryError_(
                "access of {0} bytes at 0x{1:x} inside freed heap "
                "block 0x{2:x}".format(size, address, starts[i - 1]),
                address)
        if i < len(starts) and starts[i] < address + size:
            raise MemoryError_(
                "access of {0} bytes at 0x{1:x} spans freed heap "
                "block 0x{2:x}".format(size, address, starts[i]),
                address)

    def is_mapped(self, address: int, size: int = 1) -> bool:
        try:
            self._find_region(address, size)
            return True
        except MemoryError_:
            return False

    # -- raw bytes -------------------------------------------------------------

    def read_bytes(self, address: int, size: int) -> bytes:
        base, data = self._find_region(address, size)
        offset = address - base
        return bytes(data[offset:offset + size])

    def write_bytes(self, address: int, payload: bytes) -> None:
        base, data = self._find_region(address, len(payload))
        offset = address - base
        data[offset:offset + len(payload)] = payload

    # -- typed access ------------------------------------------------------------

    def read_typed(self, address: int, type_: Type):
        """Load one scalar of *type_* from *address*."""
        size = self.target.size_of(type_)
        raw = self.read_bytes(address, size)
        if type_.is_pointer:
            return int.from_bytes(raw, self.target.endianness)
        if type_.is_bool:
            return raw[0] != 0
        if isinstance(type_, types.IntegerType):
            return int.from_bytes(raw, self.target.endianness,
                                  signed=type_.signed)
        if type_.is_floating_point:
            fmt = _FP_FORMAT[(size, self.target.endianness)]
            return _struct.unpack(fmt, raw)[0]
        raise MemoryError_("cannot load type {0}".format(type_), address)

    def write_typed(self, address: int, type_: Type, value) -> None:
        """Store one scalar of *type_* at *address*."""
        size = self.target.size_of(type_)
        if type_.is_pointer:
            raw = int(value).to_bytes(size, self.target.endianness)
        elif type_.is_bool:
            raw = b"\x01" if value else b"\x00"
        elif isinstance(type_, types.IntegerType):
            raw = int(value).to_bytes(size, self.target.endianness,
                                      signed=type_.signed)
        elif type_.is_floating_point:
            fmt = _FP_FORMAT[(size, self.target.endianness)]
            raw = _struct.pack(fmt, value)
        else:
            raise MemoryError_("cannot store type {0}".format(type_),
                               address)
        self.write_bytes(address, raw)

    def load(self, address: int, codec: _struct.Struct):
        """Load one scalar from *address* with *codec*: the engines'
        typed load.  The stack, the heap (while no block is freed) and
        the globals are tried inline, in :meth:`_find_region`'s order;
        anything else takes :meth:`_find_region` itself, so every fault
        keeps its address and detail.  The stack test allows for the
        widest scalar, so it needs no size: an access in the top
        :data:`_MAX_SCALAR` bytes of the stack is found the long way."""
        if self.stack_pointer <= address <= _STACK_LAST:
            return codec.unpack_from(self._stack_arena,
                                     address - self._stack_base)[0]
        end = address + codec.size
        if HEAP_BASE <= address and end <= self._heap_cursor \
                and not self._freed_starts:
            return codec.unpack_from(self._heap_arena, address - HEAP_BASE)[0]
        if GLOBAL_BASE <= address and end <= self._global_cursor:
            return codec.unpack_from(self._global_arena,
                                     address - GLOBAL_BASE)[0]
        base, data = self._find_region(address, codec.size)
        return codec.unpack_from(data, address - base)[0]

    def store(self, address: int, codec: _struct.Struct, value) -> None:
        """Store one scalar *value* at *address* with *codec*, finding
        the arena as :meth:`load` does.  A value the codec rejects takes
        :meth:`write_typed`'s conversion for the codec's type."""
        if self.stack_pointer <= address <= _STACK_LAST:
            data, offset = self._stack_arena, address - self._stack_base
        else:
            end = address + codec.size
            if HEAP_BASE <= address and end <= self._heap_cursor \
                    and not self._freed_starts:
                data, offset = self._heap_arena, address - HEAP_BASE
            elif GLOBAL_BASE <= address and end <= self._global_cursor:
                data, offset = self._global_arena, address - GLOBAL_BASE
            else:
                base, data = self._find_region(address, codec.size)
                offset = address - base
        try:
            codec.pack_into(data, offset, value)
        except _struct.error:
            self.write_typed(address, _CODEC_TYPES[codec], value)

    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string of up to *limit* bytes.

        A NUL landing exactly at position *limit* still terminates the
        string; the fault for a genuinely unterminated string reports
        the cursor that overran, not the start address.

        In the stack, heap and global arenas the NUL is looked for with
        one ``find``, bounded by the arena's mapped end.  Where a
        byte-by-byte read could fault first, the read goes byte by
        byte, so every fault keeps its address and detail: under
        llva-san, once the heap has freed blocks, and when no NUL lies
        in the mapped arena.  Pages mapped at run time go byte by byte
        too.
        """
        if self.san is None and not self._freed_starts:
            base, data = self._find_region(address, 1)
            if data is self._stack_arena:
                end = STACK_TOP
            elif data is self._heap_arena:
                end = self._heap_cursor
            elif data is self._global_arena:
                end = self._global_cursor
            else:
                end = None
            if end is not None:
                start = address - base
                nul = data.find(b"\0", start,
                                min(end - base, start + limit + 1))
                if nul >= 0:
                    return bytes(data[start:nul])
        out = bytearray()
        cursor = address
        while True:
            byte = self.read_bytes(cursor, 1)[0]
            if byte == 0:
                return bytes(out)
            if len(out) >= limit:
                raise MemoryError_(
                    "unterminated string starting at 0x{0:x}"
                    .format(address), cursor)
            out.append(byte)
            cursor += 1

    # -- globals ----------------------------------------------------------------

    def allocate_global(self, size: int, align: int = 8) -> int:
        """Reserve global space (module loading).  Addresses are never
        handed out twice, so the space reads as zero."""
        size = max(size, 1)
        cursor = _align_up(self._global_cursor, align)
        end = cursor + size
        if end - GLOBAL_BASE > _GLOBAL_ARENA_LIMIT:
            raise MemoryError_("global arena exhausted", cursor)
        self._global_cursor = end
        return cursor

    @property
    def global_end(self) -> int:
        """The end of the global space handed out so far."""
        return self._global_cursor

    @property
    def global_arena(self) -> _mmap.mmap:
        """The global arena: a scalar at *address* with ``GLOBAL_BASE
        <= address`` and ``address + size <= global_end`` is at offset
        ``address - GLOBAL_BASE`` in it, which is the test and the
        offset :meth:`load` and :meth:`store` use for a global.  The
        arenas are disjoint, so an access that passes the test is one
        they would make there too; any other address must go through
        them.  The object lasts as long as the memory."""
        return self._global_arena

    def map_globals(self, end: int) -> None:
        """Hand out the global space below *end* at once, as the
        :meth:`allocate_global` calls of a layout that ended there did
        (a program image applying its layout to new or reset memory)."""
        self._global_cursor = end

    # -- heap --------------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate heap memory (runtime ``malloc``).  Returns 0, as C's
        ``malloc`` does when the heap cannot grow, where the block would
        overlap a page mapped at run time."""
        if size <= 0:
            size = 1
        size = _align_up(size, 16)
        free_list = self._free_lists.get(size)
        if self._regions and self._overlaps_region(
                free_list[-1] if free_list else self._heap_cursor, size):
            return 0
        if free_list:
            address = free_list.pop()
            # Remap the block before touching it, then zero it for
            # determinism.
            self._remove_freed(address)
            self.write_bytes(address, b"\x00" * size)
        else:
            address = self._heap_cursor
            end = address + size - HEAP_BASE
            if end > len(self._heap_arena):
                self._grow_heap(end)
            self._heap_cursor += size
        self._alloc_sizes[address] = size
        self.heap_allocated += size
        self.heap_live += size
        return address

    def _grow_heap(self, end: int) -> None:
        """Make heap offsets ``[0, end)`` addressable: reserve an arena
        of at least double the size and copy the used prefix into it."""
        old = self._heap_arena
        used = self._heap_cursor - HEAP_BASE
        self._heap_arena = _reserve(
            max(2 * len(old), _align_up(end, _HEAP_CHUNK)))
        self._heap_arena[:used] = old[:used]
        old.close()

    def free(self, address: int) -> None:
        """Release heap memory (runtime ``free``).

        The block stays unmapped — accesses fault — until a later
        ``malloc`` of the same size hands it back out.
        """
        if address == 0:
            return
        size = self._alloc_sizes.pop(address, None)
        if size is None:
            raise MemoryError_("free of unallocated address", address)
        self.heap_live -= size
        self._free_lists.setdefault(size, []).append(address)
        _bisect.insort(self._freed_starts, address)
        self._freed_sizes[address] = size

    def _remove_freed(self, address: int) -> None:
        del self._freed_sizes[address]
        i = _bisect.bisect_left(self._freed_starts, address)
        del self._freed_starts[i]

    # -- stack --------------------------------------------------------------------

    def push_frame(self, size: int, align: int = 16) -> int:
        """Extend the stack downward by *size* bytes; returns the new
        frame's base address (its lowest address)."""
        new_sp = _align_down(self.stack_pointer - size, align)
        if new_sp < self._stack_base:
            raise ExecutionTrap(TrapKind.STACK_OVERFLOW,
                                "stack limit {0} exceeded"
                                .format(self.stack_limit))
        self.stack_pointer = new_sp
        return new_sp

    def pop_frame(self, old_stack_pointer: int) -> None:
        self.stack_pointer = old_stack_pointer


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def _align_down(value: int, align: int) -> int:
    return value // align * align

"""Memory model tests: regions, typed access, endianness, allocator,
and the reserved (not committed) arenas every run starts from."""

import gc
import mmap
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bitcode import write_module
from repro.execution.config import ExecConfig
from repro.execution.events import ExecutionTrap, TrapKind
from repro.execution.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    STACK_TOP,
    _HEAP_CHUNK,
    Memory,
    MemoryError_,
)
from repro.execution.sanitizer import SanitizedMemory
from repro.ir import types
from repro.ir.types import TargetData
from repro.llee import LLEE, DiskStorage
from repro.minic import compile_source
from repro.targets import make_target


def _memory(pointer_size=8, endianness="little", **kwargs) -> Memory:
    return Memory(TargetData(pointer_size, endianness), **kwargs)


class TestRegions:
    def test_unmapped_access_faults(self):
        memory = _memory()
        with pytest.raises(MemoryError_) as info:
            memory.read_bytes(0x40, 1)  # the null page
        assert info.value.trap_number == TrapKind.MEMORY_FAULT

    def test_globals_heap_stack_disjoint(self):
        memory = _memory()
        g = memory.allocate_global(64)
        h = memory.malloc(64)
        s = memory.push_frame(64)
        assert GLOBAL_BASE <= g < HEAP_BASE <= h < s < STACK_TOP
        memory.write_bytes(g, b"g" * 64)
        memory.write_bytes(h, b"h" * 64)
        memory.write_bytes(s, b"s" * 64)
        assert memory.read_bytes(g, 1) == b"g"
        assert memory.read_bytes(h, 1) == b"h"
        assert memory.read_bytes(s, 1) == b"s"

    def test_global_arena_ends_at_the_heap(self):
        # The heap is searched before the globals, so a global reaching
        # past HEAP_BASE would alias heap blocks: reads of the global
        # would see the heap's bytes and its own would stay zero.
        memory = _memory()
        with pytest.raises(MemoryError_):
            memory.allocate_global(20 << 20)
        start = memory.allocate_global(HEAP_BASE - GLOBAL_BASE)
        assert start == GLOBAL_BASE
        with pytest.raises(MemoryError_):
            memory.allocate_global(1)
        heap = memory.malloc(16)
        assert heap >= HEAP_BASE
        memory.write_bytes(HEAP_BASE - 4, b"GGGG")
        memory.write_bytes(heap, b"HHHH")
        assert memory.read_bytes(HEAP_BASE - 4, 4) == b"GGGG"
        assert memory.read_bytes(heap, 4) == b"HHHH"
        assert memory._global_arena[HEAP_BASE - GLOBAL_BASE - 4:] \
            == b"GGGG"

    def test_straddling_region_end_faults(self):
        memory = _memory()
        address = memory.allocate_global(8)
        last = address + memory._global_cursor - address  # cursor end
        with pytest.raises(MemoryError_):
            memory.read_bytes(memory._global_cursor - 2, 8)

    def test_explicit_regions(self):
        memory = _memory()
        memory.add_region(0x5000_0000, 4096)
        memory.write_typed(0x5000_0010, types.INT, -5)
        assert memory.read_typed(0x5000_0010, types.INT) == -5
        assert memory.is_mapped(0x5000_0000, 4096)
        assert not memory.is_mapped(0x5000_1000)


class TestTypedAccess:
    @pytest.mark.parametrize("type_,value", [
        (types.SBYTE, -7), (types.UBYTE, 200),
        (types.SHORT, -30000), (types.USHORT, 60000),
        (types.INT, -2**31), (types.UINT, 2**32 - 1),
        (types.LONG, -2**63), (types.ULONG, 2**64 - 1),
        (types.DOUBLE, 3.141592653589793),
        (types.BOOL, True),
    ])
    @pytest.mark.parametrize("endianness", ["little", "big"])
    def test_round_trip(self, type_, value, endianness):
        memory = _memory(endianness=endianness)
        address = memory.malloc(16)
        memory.write_typed(address, type_, value)
        assert memory.read_typed(address, type_) == value

    def test_pointer_width_by_target(self):
        for pointer_size in (4, 8):
            memory = _memory(pointer_size=pointer_size)
            address = memory.malloc(16)
            ptr_type = types.pointer_to(types.INT)
            memory.write_typed(address, ptr_type, HEAP_BASE + 8)
            raw = memory.read_bytes(address, pointer_size)
            assert int.from_bytes(raw, "little") == HEAP_BASE + 8

    def test_endianness_changes_byte_order(self):
        little = _memory(endianness="little")
        big = _memory(8, "big")
        a1 = little.malloc(8)
        a2 = big.malloc(8)
        little.write_typed(a1, types.UINT, 0x11223344)
        big.write_typed(a2, types.UINT, 0x11223344)
        assert little.read_bytes(a1, 4) == bytes.fromhex("44332211")
        assert big.read_bytes(a2, 4) == bytes.fromhex("11223344")

    def test_cstring(self):
        memory = _memory()
        address = memory.malloc(16)
        memory.write_bytes(address, b"hello\x00junk")
        assert memory.read_cstring(address) == b"hello"

    def test_cstring_nul_exactly_at_limit(self):
        # A terminator landing on the limit boundary is still a
        # well-formed string of `limit` bytes, not an error.
        memory = _memory()
        address = memory.malloc(16)
        memory.write_bytes(address, b"hello\x00")
        assert memory.read_cstring(address, limit=5) == b"hello"

    def test_cstring_unterminated_reports_overrun_cursor(self):
        memory = _memory()
        address = memory.malloc(16)
        memory.write_bytes(address, b"A" * 16)
        with pytest.raises(MemoryError_) as info:
            memory.read_cstring(address, limit=8)
        # The fault names the cursor that overran, not the start.
        assert info.value.address == address + 8
        assert "unterminated" in info.value.detail

    def test_cstring_unterminated_in_last_heap_block(self):
        # The arena is mapped past the heap cursor, but the heap is not:
        # the read faults at the cursor.
        memory = _memory()
        address = memory.malloc(16)
        memory.write_bytes(address, b"A" * 16)
        with pytest.raises(MemoryError_) as info:
            memory.read_cstring(address)
        assert info.value.address == memory._heap_cursor == address + 16
        assert "outside mapped memory" in info.value.detail

    def test_cstring_unterminated_at_end_of_globals(self):
        memory = _memory()
        address = memory.allocate_global(16)
        memory.write_bytes(address, b"A" * 16)
        with pytest.raises(MemoryError_) as info:
            memory.read_cstring(address)
        assert info.value.address == memory._global_cursor \
            == address + 16
        assert "outside mapped memory" in info.value.detail

    def test_cstring_runs_into_freed_heap_block(self):
        memory = _memory()
        address = memory.malloc(16)
        freed = memory.malloc(16)
        memory.write_bytes(freed, b"\x00")
        memory.write_bytes(address, b"A" * 16)
        memory.free(freed)
        with pytest.raises(MemoryError_) as info:
            memory.read_cstring(address)
        assert info.value.address == freed
        assert "inside freed heap block" in info.value.detail
        memory.write_bytes(address + 15, b"\x00")
        assert memory.read_cstring(address) == b"A" * 15

    @pytest.mark.parametrize("where", ["stack", "heap", "global"])
    def test_cstring_in_each_arena(self, where):
        memory = _memory()
        address = {"stack": lambda: memory.push_frame(32),
                   "heap": lambda: memory.malloc(32),
                   "global": lambda: memory.allocate_global(32)}[where]()
        memory.write_bytes(address, b"arena\x00tail")
        assert memory.read_cstring(address) == b"arena"
        assert memory.read_cstring(address + 6) == b"tail"


class TestAllocator:
    def test_malloc_returns_distinct_zeroed_chunks(self):
        memory = _memory()
        a = memory.malloc(24)
        b = memory.malloc(24)
        assert a != b
        assert memory.read_bytes(a, 24) == b"\x00" * 24

    def test_free_then_reuse(self):
        memory = _memory()
        a = memory.malloc(32)
        memory.write_bytes(a, b"x" * 32)
        memory.free(a)
        b = memory.malloc(32)
        assert b == a  # freelist reuse
        assert memory.read_bytes(b, 32) == b"\x00" * 32  # re-zeroed

    def test_double_free_detected(self):
        memory = _memory()
        a = memory.malloc(8)
        memory.free(a)
        with pytest.raises(MemoryError_):
            memory.free(a)

    def test_free_null_is_noop(self):
        _memory().free(0)

    def test_heap_grows_across_chunks(self):
        memory = _memory()
        blocks = [memory.malloc(1 << 20) for _ in range(6)]  # > 4 MiB
        memory.write_typed(blocks[-1], types.INT, 9)
        assert memory.read_typed(blocks[-1], types.INT) == 9

    def test_heap_growth_keeps_earlier_blocks(self):
        memory = _memory()
        first = memory.malloc(64)
        memory.write_typed(first + 8, types.LONG, -0x1234_5678_9ABC)
        reused = memory.malloc(32)
        memory.free(reused)
        while memory._heap_cursor - HEAP_BASE <= _HEAP_CHUNK:
            memory.malloc(1 << 20)
        assert memory.read_typed(first + 8, types.LONG) \
            == -0x1234_5678_9ABC
        assert memory.read_bytes(first, 8) == b"\x00" * 8
        assert not memory.is_mapped(reused)  # still freed
        assert memory.malloc(32) == reused

    def test_freed_block_is_unmapped_until_reused(self):
        memory = _memory()
        a = memory.malloc(32)
        memory.free(a)
        assert not memory.is_mapped(a)
        with pytest.raises(MemoryError_) as info:
            memory.read_bytes(a, 4)
        assert "freed heap block" in info.value.detail
        with pytest.raises(MemoryError_):
            memory.write_bytes(a, b"oops")
        b = memory.malloc(32)  # freelist hands the block back
        assert b == a
        assert memory.is_mapped(b, 32)
        assert memory.read_bytes(b, 4) == b"\x00" * 4

    def test_access_spanning_freed_neighbour_faults(self):
        memory = _memory()
        a = memory.malloc(16)
        b = memory.malloc(16)
        memory.free(b)
        assert memory.read_bytes(a, 16) == b"\x00" * 16  # a still fine
        with pytest.raises(MemoryError_) as info:
            memory.read_bytes(a, 32)  # runs into the freed block
        assert "freed heap block" in info.value.detail

    def test_heap_live_vs_cumulative_accounting(self):
        memory = _memory()
        a = memory.malloc(32)
        memory.malloc(32)
        assert memory.heap_allocated == 64
        assert memory.heap_live == 64
        memory.free(a)
        assert memory.heap_allocated == 64  # cumulative never drops
        assert memory.heap_live == 32
        memory.malloc(32)  # freelist reuse still counts as traffic
        assert memory.heap_allocated == 96
        assert memory.heap_live == 64

    @given(st.lists(st.integers(min_value=1, max_value=512),
                    min_size=1, max_size=40))
    def test_allocations_never_overlap(self, sizes):
        memory = _memory()
        spans = []
        for size in sizes:
            address = memory.malloc(size)
            spans.append((address, address + size))
        spans.sort()
        for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start


class TestStack:
    def test_frames_grow_down_and_pop(self):
        memory = _memory()
        top = memory.stack_pointer
        frame1 = memory.push_frame(128)
        frame2 = memory.push_frame(64)
        assert frame2 < frame1 < top
        memory.pop_frame(frame1 + 0)  # restore to frame1's base
        assert memory.stack_pointer == frame1

    def test_stack_overflow_traps(self):
        memory = _memory(stack_limit=4096)
        with pytest.raises(ExecutionTrap) as info:
            memory.push_frame(8192)
        assert info.value.trap_number == TrapKind.STACK_OVERFLOW

    def test_alignment(self):
        memory = _memory()
        frame = memory.push_frame(100, align=16)
        assert frame % 16 == 0

    def test_popped_frame_is_below_live_stack_pointer(self):
        memory = _memory()
        top = memory.stack_pointer
        frame = memory.push_frame(64)
        memory.write_bytes(frame, b"x")
        memory.pop_frame(top)
        assert not memory.is_mapped(frame)
        with pytest.raises(MemoryError_) as info:
            memory.read_bytes(frame, 1)
        assert "below the live stack pointer" in info.value.detail

    def test_headroom_between_base_and_sp_is_unmapped(self):
        memory = _memory(stack_limit=4096)
        probe = memory.stack_pointer - 128  # unallocated headroom
        assert not memory.is_mapped(probe)
        frame = memory.push_frame(256)
        assert memory.is_mapped(frame)  # now above the live pointer


def _resident_bytes() -> int:
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
    except OSError:
        pytest.skip("resident set size is not readable here")
    return resident_pages * mmap.PAGESIZE


class TestReservedArenas:
    def test_arenas_are_reserved_not_committed(self):
        # A Memory reserves 8 MiB of stack, 4 MiB of heap and the ~16 MiB
        # of globals below HEAP_BASE; only the pages a run touches may
        # become resident.
        target = TargetData(8, "little")
        gc.collect()
        before = _resident_bytes()
        memories = [Memory(target) for _ in range(16)]
        memories += [SanitizedMemory(target) for _ in range(4)]
        for memory in memories:
            memory.write_bytes(memory.allocate_global(8), b"g" * 8)
            memory.write_bytes(memory.malloc(8), b"h" * 8)
            memory.write_bytes(memory.push_frame(8), b"s" * 8)
        grown = _resident_bytes() - before
        assert grown < 16 << 20, "{0} Memory objects made {1} MiB " \
            "resident".format(len(memories), grown >> 20)


#: Reads a global nobody initialized: every run must see it zero.
FRESH_GLOBAL = r"""
int counts[4096];
int main() {
    counts[1000] = counts[1000] + 1;
    return counts[1000];
}
"""


@pytest.fixture(scope="module")
def fresh_global_code():
    return write_module(compile_source(FRESH_GLOBAL, "fresh-global",
                                       optimization_level=2))


@pytest.mark.parametrize("config", ExecConfig.all(), ids=lambda c: (
    "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
    .format(c)))
def test_each_interpreted_run_starts_from_zero(config, fresh_global_code):
    llee = LLEE(make_target("x86"))
    for _ in range(2):
        report = llee.run_interpreted(fresh_global_code, **asdict(config))
        assert (report.exit_status, report.return_value) == (0, 1)


@pytest.mark.parametrize("target", ["x86", "sparc"])
def test_each_native_run_starts_from_zero(target, fresh_global_code):
    llee = LLEE(make_target(target))
    for _ in range(2):
        report = llee.run_executable(fresh_global_code)
        assert (report.exit_status, report.return_value) == (0, 1)


#: What a relaunch must not inherit from the launch before: an
#: initialised global, a zero global, a heap word and the heap's first
#: address, a stack slot read before it is written, and (for n > 0) the
#: registers ``spread`` writes.
RELAUNCH = r"""
int seeded = 41;
int zeroed[4096];
int spread(int a, int b, int c) {
    int d;
    int e;
    d = a * b + c;
    e = (a + c) * (b - c);
    return d * e + a * (d - e);
}
int main(int n) {
    int* cell;
    int slots[4];
    int stale;
    cell = (int*) malloc(sizeof(int));
    stale = slots[2];
    slots[2] = stale + 1;
    seeded = seeded + 1;
    zeroed[1000] = zeroed[1000] + 1;
    *cell = *cell + 1;
    if (n > 0) stale = stale + spread(n, n + 1, n + 2);
    print_int(seeded); print_newline();
    print_int(zeroed[1000]); print_newline();
    print_int(*cell); print_newline();
    print_int((int) cell); print_newline();
    print_int(stale); print_newline();
    return seeded + zeroed[1000] + *cell;
}
"""


@pytest.fixture(scope="module")
def relaunch_code():
    return write_module(compile_source(RELAUNCH, "relaunch",
                                       optimization_level=2))


@pytest.mark.parametrize("config", ExecConfig.all(), ids=lambda c: (
    "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
    .format(c)))
def test_each_interpreted_relaunch_starts_from_zero(config, relaunch_code):
    """An LLEE keeps an interpreted executable's decoded module and the
    layout of its data image, and applies that layout to each launch's
    new memory: every launch must report what a fresh LLEE's does."""
    llee = LLEE(make_target("x86"))
    for n in (1, 0, 1, 0):
        report = llee.run_interpreted(relaunch_code, args=[n],
                                      **asdict(config))
        expected = LLEE(make_target("x86")).run_interpreted(
            relaunch_code, args=[n], **asdict(config))
        assert (report.return_value, report.output, report.steps,
                report.exit_status) == (expected.return_value,
                                        expected.output, expected.steps,
                                        expected.exit_status)
    assert report.output.startswith("42\n1\n1\n")


@pytest.mark.parametrize("target", ["x86", "sparc"])
def test_each_native_relaunch_starts_from_zero(target, tmp_path):
    """Over a storage, an LLEE keeps the machine that ran a translation
    and resets it for the next launch: memory, globals and registers
    must then be a fresh LLEE's."""
    code = write_module(compile_source(RELAUNCH, "relaunch",
                                       optimization_level=2))
    storage = DiskStorage(str(tmp_path))
    llee = LLEE(make_target(target), storage)
    machines = []
    for n in (1, 0, 1, 0):
        report = llee.run_executable(code, args=[n])
        fresh = LLEE(make_target(target), storage)
        expected = fresh.run_executable(code, args=[n])
        assert (report.return_value, report.output, report.exit_status,
                report.cycles) == (expected.return_value, expected.output,
                                   expected.exit_status, expected.cycles)
        assert dict(llee.last_simulator.registers) \
            == dict(fresh.last_simulator.registers)
        machines.append(llee.last_simulator)
    assert report.output == "42\n1\n1\n16777216\n0\n"
    # The first launch translated and stored the vector; the others ran
    # the resident translation on that launch's machine.
    assert all(machine is machines[0] for machine in machines)


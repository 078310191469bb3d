"""llva-san unit tests: shadow metadata, quarantine, fault reports."""

import pytest

from repro.asm import parse_module
from repro.execution import (
    DecodeCache,
    Interpreter,
    SanitizedMemory,
    SanitizerFault,
)
from repro.execution.events import TrapKind
from repro.execution.memory import HEAP_BASE, _HEAP_CHUNK, Memory
from repro.execution.sanitizer import REDZONE, format_site
from repro.ir.types import TargetData


def _memory() -> SanitizedMemory:
    return SanitizedMemory(TargetData(8, "little"))


class TestHeapChecks:
    def test_clean_round_trip(self):
        memory = _memory()
        a = memory.malloc(32)
        memory.write_bytes(a, b"x" * 32)
        assert memory.read_bytes(a, 32) == b"x" * 32
        assert memory.san.fault_count == 0

    def test_use_after_free(self):
        memory = _memory()
        a = memory.malloc(32)
        memory.free(a)
        with pytest.raises(SanitizerFault) as info:
            memory.read_bytes(a, 1)
        fault = info.value
        assert fault.trap_number == TrapKind.MEMORY_FAULT
        assert fault.unmaskable
        assert fault.report.kind == "heap-use-after-free"
        assert fault.address == a
        assert "offset 0 into 32-byte block" in fault.detail
        assert "allocated at" in fault.detail
        assert "freed at" in fault.detail

    def test_buffer_overflow(self):
        memory = _memory()
        a = memory.malloc(16)
        with pytest.raises(SanitizerFault) as info:
            memory.read_bytes(a + 16, 4)  # first redzone byte
        assert info.value.report.kind == "heap-buffer-overflow"
        assert "offset 16 into 16-byte block" in info.value.detail

    def test_overflow_straddling_the_edge(self):
        memory = _memory()
        a = memory.malloc(16)
        with pytest.raises(SanitizerFault) as info:
            memory.write_bytes(a + 14, b"1234")  # last 2 bytes spill
        assert info.value.report.kind == "heap-buffer-overflow"
        assert info.value.report.access == "write"

    def test_buffer_underflow(self):
        memory = _memory()
        a = memory.malloc(16)
        with pytest.raises(SanitizerFault) as info:
            memory.read_bytes(a - 1, 1)  # left redzone
        assert info.value.report.kind == "heap-buffer-underflow"
        assert "offset -1" in info.value.detail

    def test_exact_size_not_rounded(self):
        # The sanitized allocator keeps the *requested* size so an
        # access inside the 16-byte alignment slack still faults.
        memory = _memory()
        a = memory.malloc(5)
        assert memory.read_bytes(a, 5) == b"\x00" * 5
        with pytest.raises(SanitizerFault) as info:
            memory.read_bytes(a + 5, 1)
        assert info.value.report.kind == "heap-buffer-overflow"

    def test_wild_check_with_no_allocations(self):
        memory = _memory()
        with pytest.raises(SanitizerFault) as info:
            memory.san.check_heap(HEAP_BASE + 8, 1, "read")
        assert info.value.report.kind == "heap-wild-access"


class TestFreeChecks:
    def test_double_free(self):
        memory = _memory()
        a = memory.malloc(8)
        memory.free(a)
        with pytest.raises(SanitizerFault) as info:
            memory.free(a)
        assert info.value.report.kind == "double-free"
        assert "8-byte block" in info.value.detail
        assert "freed at" in info.value.detail

    def test_invalid_free_interior_pointer(self):
        memory = _memory()
        a = memory.malloc(32)
        with pytest.raises(SanitizerFault) as info:
            memory.free(a + 8)
        assert info.value.report.kind == "invalid-free"
        assert "offset 8 into 32-byte block" in info.value.detail

    def test_invalid_free_wild_pointer(self):
        memory = _memory()
        with pytest.raises(SanitizerFault) as info:
            memory.free(0x1234)
        assert info.value.report.kind == "invalid-free"
        assert "not the start of any heap allocation" in info.value.detail

    def test_free_null_is_noop(self):
        memory = _memory()
        memory.free(0)
        assert memory.san.frees == 0


class TestQuarantine:
    def test_freed_addresses_never_reused(self):
        memory = _memory()
        seen = set()
        for _ in range(8):
            a = memory.malloc(16)
            assert a not in seen
            seen.add(a)
            memory.free(a)

    def test_quarantine_and_redzone_stats(self):
        memory = _memory()
        a = memory.malloc(24)
        san = memory.san
        assert san.allocations == 1
        record = san.record_for(a)
        assert record.size == 24
        assert record.chunk_start == a - REDZONE
        assert san.redzone_bytes == (record.chunk_end
                                     - record.chunk_start) - 24
        memory.free(a)
        assert san.frees == 1
        assert san.quarantine_bytes == 24
        assert memory.heap_live == 0
        assert memory.heap_allocated == 24

    def test_fault_kind_counters(self):
        memory = _memory()
        a = memory.malloc(8)
        memory.free(a)
        for _ in range(2):
            with pytest.raises(SanitizerFault):
                memory.read_bytes(a, 1)
        assert memory.san.fault_count == 2
        assert memory.san.fault_kinds == {"heap-use-after-free": 2}


class TestHeapGrowth:
    def test_shadow_state_survives_growth(self):
        memory = _memory()
        live = memory.malloc(24)
        memory.write_bytes(live, b"live" * 6)
        freed = memory.malloc(16)
        memory.free(freed)
        while memory._heap_cursor - HEAP_BASE <= _HEAP_CHUNK:
            memory.malloc(1 << 20)
        assert memory.read_bytes(live, 24) == b"live" * 6
        with pytest.raises(SanitizerFault) as info:
            memory.read_bytes(freed, 1)
        assert info.value.report.kind == "heap-use-after-free"
        with pytest.raises(SanitizerFault) as info:
            memory.write_bytes(live + 24, b"x")  # right redzone
        assert info.value.report.kind == "heap-buffer-overflow"
        with pytest.raises(SanitizerFault) as info:
            memory.read_bytes(live - 1, 1)  # left redzone
        assert info.value.report.kind == "heap-buffer-underflow"


class TestStack:
    def test_pop_frame_scrubs_and_below_sp_faults(self):
        memory = _memory()
        top = memory.stack_pointer
        frame = memory.push_frame(64)
        memory.write_bytes(frame, b"\xee" * 64)
        memory.pop_frame(top)
        assert memory.san.stack_scrubbed_bytes >= 64
        with pytest.raises(SanitizerFault) as info:
            memory.read_bytes(frame, 4)
        assert info.value.report.kind == "stack-below-sp"
        assert "below the live stack pointer" in info.value.detail
        # A fresh frame over the same range starts zeroed.
        frame2 = memory.push_frame(64)
        assert memory.read_bytes(frame2, 64) == b"\x00" * 64

    def test_live_stack_unaffected(self):
        memory = _memory()
        frame = memory.push_frame(32)
        memory.write_bytes(frame, b"y" * 32)
        assert memory.read_bytes(frame, 32) == b"y" * 32


class TestSites:
    def test_site_threading(self):
        memory = _memory()
        memory.san.set_site(format_site("main", "entry", 3, "call"))
        a = memory.malloc(16)
        memory.san.set_site(format_site("main", "entry", 7, "call"))
        memory.free(a)
        record = memory.san.record_for(a)
        assert record.alloc_site == "%main:entry:#3 (call)"
        assert record.free_site == "%main:entry:#7 (call)"

    def test_site_defaults_to_runtime(self):
        memory = _memory()
        a = memory.malloc(16)
        assert memory.san.record_for(a).alloc_site == "<runtime>"


class TestEngineWiring:
    SOURCE = """
    int %main() {
    entry:
            ret int 0
    }
    """

    def test_plain_interpreter_has_no_sanitizer(self):
        module = parse_module(self.SOURCE)
        interpreter = Interpreter(module)
        assert interpreter.memory.san is None
        assert type(interpreter.memory) is Memory

    def test_sanitized_interpreter_uses_sanitized_memory(self):
        module = parse_module(self.SOURCE)
        interpreter = Interpreter(module, sanitize=True)
        assert isinstance(interpreter.memory, SanitizedMemory)

    def test_decode_cache_mode_mismatch_rejected(self):
        module = parse_module(self.SOURCE)
        plain_cache = DecodeCache(module.target_data)
        with pytest.raises(ValueError):
            Interpreter(module, engine="fast", decode_cache=plain_cache,
                        sanitize=True)

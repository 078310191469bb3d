"""Where ``llva.pagetable.map`` maps a page: only where no arena is.

Memory finds the stack, the heap and the globals before any mapped
page, so a page inside one of them would be shadowed (the stack's
headroom, once a deeper frame covers it) or unusable (a freed heap
block, which faults as freed).  So a page that touches the stack's
reservation, the heap below its cursor (freed blocks included) or the
globals below their cursor belongs to that arena, and mapping it is a
no-op, as for a page at an address that is already mapped.  Anywhere
else the page maps, the heap's unused tail included
(``test_mapped_pages.py``).
"""

import pytest

from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import ExecConfig
from repro.execution.events import TrapKind
from repro.execution.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    PAGE_SIZE,
    STACK_TOP,
    Memory,
)
from repro.execution.sanitizer import SanitizedMemory
from repro.ir import verify_module
from repro.ir.types import TargetData

MEMORIES = [Memory, SanitizedMemory]


@pytest.mark.parametrize("memory_class", MEMORIES)
def test_a_page_over_a_freed_block_stays_with_the_heap(memory_class):
    memory = memory_class(TargetData(8))
    block = memory.malloc(4096)
    memory.free(block)
    memory.map_page(block)
    assert memory._regions == []
    with pytest.raises(ExecutionTrap):  # a freed block, as before
        memory.write_bytes(block, b"PAGE")
    # No page holds the heap back: it allocates as if none was asked
    # for, and the plain heap hands the freed block out again.
    again = memory.malloc(4096)
    assert again == (block if memory_class is Memory else again) != 0
    memory.write_bytes(again, b"PAGE")
    assert memory.read_bytes(again, 4) == b"PAGE"


@pytest.mark.parametrize("memory_class", MEMORIES)
def test_a_page_in_the_stack_headroom_stays_with_the_stack(memory_class):
    memory = memory_class(TargetData(8))
    address = memory.stack_pointer - 0x10000
    memory.map_page(address)
    assert memory._regions == [] and not memory.is_mapped(address)
    with pytest.raises(ExecutionTrap):  # below the live stack pointer
        memory.write_bytes(address, b"PAGE")
    # A frame that reaches below the address owns it while it lives.
    old_stack_pointer = memory.stack_pointer
    memory.push_frame(0x20000)
    memory.write_bytes(address, b"PAGE")
    assert memory.read_bytes(address, 4) == b"PAGE"
    memory.pop_frame(old_stack_pointer)
    with pytest.raises(ExecutionTrap):
        memory.read_bytes(address, 4)


@pytest.mark.parametrize("memory_class", MEMORIES)
def test_an_empty_arena_owns_no_page(memory_class):
    """Nothing is allocated yet, so a page across the heap's or the
    globals' base touches no arena and maps."""
    memory = memory_class(TargetData(8))
    for address in (HEAP_BASE - 100, GLOBAL_BASE - 100):
        memory.map_page(address)
    assert [base for base, _ in memory._regions] \
        == [HEAP_BASE - 100, GLOBAL_BASE - 100]


@pytest.mark.parametrize("memory_class", MEMORIES)
def test_only_a_page_clear_of_every_arena_maps(memory_class):
    memory = memory_class(TargetData(8))
    memory.allocate_global(64)
    block = memory.malloc(64)
    stack_base = STACK_TOP - memory.stack_limit
    taken = [
        GLOBAL_BASE + 8,  # inside the globals
        GLOBAL_BASE - 100,  # reaching into them
        block,  # a live heap block
        HEAP_BASE - 100,  # reaching into the heap
        STACK_TOP - PAGE_SIZE,  # the live stack
        stack_base - 100,  # reaching into the stack's reservation
    ]
    for address in taken:
        memory.map_page(address)
    assert memory._regions == []
    clear = [
        HEAP_BASE - 2 * PAGE_SIZE,  # between the globals and the heap
        memory._heap_cursor + 0x10000,  # the heap's unused tail
        stack_base - 2 * PAGE_SIZE,  # below the stack's reservation
    ]
    for address in clear:
        memory.map_page(address)
        memory.write_bytes(address + PAGE_SIZE - 4, b"PAGE")
    assert [base for base, _ in memory._regions] == clear
    assert [memory.read_bytes(address + PAGE_SIZE - 4, 4)
            for address in clear] == [b"PAGE"] * len(clear)


#: ``main`` maps the page 64 KiB below its own frame, then stores to it.
#: The page belongs to the stack's headroom, so the store faults, on
#: every engine, as any access below the live stack pointer does.
SOURCE = """
declare void %llva.pagetable.map(ulong, ulong, uint)
declare void %print_int(int)
declare void %print_newline()
int %main() {
entry:
        %slot = alloca int
        %top = cast int* %slot to ulong
        %page = sub ulong %top, 65536
        call void %llva.pagetable.map(ulong %page, ulong 0, uint 7)
        call void %print_int(int 1)
        call void %print_newline()
        %pp = cast ulong %page to int*
        store int 1162297680, int* %pp
        %v = load int* %pp
        call void %print_int(int %v)
        call void %print_newline()
        ret int %v
}
"""


def _outcome(config):
    module = parse_module(SOURCE)
    verify_module(module)
    interpreter = Interpreter(module, config, privileged=True)
    try:
        result = interpreter.run("main")
    except ExecutionTrap as trap:
        return ("trap", trap.trap_number, str(trap),
                interpreter.runtime.output_text(), interpreter.steps)
    return ("ok", result.return_value, result.output, result.steps,
            result.exit_status)


@pytest.mark.parametrize("config", ExecConfig.all(), ids=lambda c: (
    "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
    .format(c)))
def test_a_store_below_the_stack_pointer_faults_everywhere(config):
    reference = _outcome(ExecConfig(engine="reference",
                                    sanitize=config.sanitize))
    assert reference[:2] == ("trap", int(TrapKind.MEMORY_FAULT))
    assert reference[3] == "1\n"
    assert _outcome(config) == reference

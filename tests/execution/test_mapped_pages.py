"""A page mapped at run time keeps its bytes: the heap never grows over
it.

``llva.pagetable.map`` maps any page that nothing maps yet, including
one in the heap arena's unused tail above the heap cursor.  Memory
finds the heap before such pages, so a heap block over the page would
hide it; ``malloc`` returns null instead, as C's does when the heap
cannot grow.
"""

import pytest

from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import ExecConfig
from repro.execution.memory import HEAP_BASE, Memory
from repro.execution.sanitizer import SanitizedMemory
from repro.ir import verify_module
from repro.ir.types import TargetData

PAGE = HEAP_BASE + 0x10000


@pytest.mark.parametrize("memory_class", [Memory, SanitizedMemory])
def test_malloc_never_grows_over_a_mapped_page(memory_class):
    memory = memory_class(TargetData(8))
    memory.add_region(PAGE, 4096)
    memory.write_bytes(PAGE, b"PAGE")
    blocks = []
    for _ in range(64):
        block = memory.malloc(4096)
        if block == 0:
            break
        blocks.append(block)
        assert block + 4096 <= PAGE
    assert block == 0 and len(blocks) >= 14
    assert memory.read_bytes(PAGE, 4) == b"PAGE"


def test_freed_block_under_a_mapped_page_is_not_handed_out():
    memory = Memory(TargetData(8))
    block = memory.malloc(4096)
    memory.free(block)
    # A freed block is unmapped, so a page can be mapped over it.
    assert not memory.is_mapped(block)
    memory.add_region(block, 4096)
    assert memory.malloc(4096) == 0
    assert memory.malloc(16) == block + 4096


SOURCE = """
declare sbyte* %malloc(uint)
declare void %llva.pagetable.map(ulong, ulong, uint)
declare void %print_int(int)
declare void %print_newline()
int %main() {
entry:
        %first = call sbyte* %malloc(uint 16)
        %base = cast sbyte* %first to ulong
        %page = add ulong %base, 65536
        call void %llva.pagetable.map(ulong %page, ulong 0, uint 7)
        %pp = cast ulong %page to int*
        store int 1162297680, int* %pp
        br label %loop
loop:
        %n = phi int [0, %entry], [%next, %more]
        %block = call sbyte* %malloc(uint 4096)
        %next = add int %n, 1
        %null = seteq sbyte* %block, null
        br bool %null, label %done, label %more
more:
        %again = setlt int %next, 64
        br bool %again, label %loop, label %done
done:
        %v = load int* %pp
        call void %print_int(int %next)
        call void %print_newline()
        call void %print_int(int %v)
        call void %print_newline()
        ret int %next
}
"""


def _outcome(config):
    module = parse_module(SOURCE)
    verify_module(module)
    interpreter = Interpreter(module, config, privileged=True)
    try:
        result = interpreter.run("main")
    except ExecutionTrap as trap:
        return ("trap", trap.trap_number, trap.detail, interpreter.steps)
    return ("ok", result.return_value, result.output, result.steps,
            result.exit_status)


@pytest.mark.parametrize("config", ExecConfig.all(), ids=lambda c: (
    "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
    .format(c)))
def test_program_keeps_its_page(config):
    reference = _outcome(ExecConfig(engine="reference",
                                    sanitize=config.sanitize))
    assert reference[0] == "ok" and reference[1] < 64
    # The page still holds the int whose bytes spell "PAGE".
    assert reference[2].splitlines()[1] == "1162297680"
    assert _outcome(config) == reference

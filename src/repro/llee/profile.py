"""Profiling support (Section 4.2).

"Our V-ISA provides us with ability to perform static instrumentation to
assist runtime path profiling" — this module does exactly that: it
rewrites LLVA code to bump a per-basic-block counter held in an ordinary
global array, so profiles can be collected by *any* engine (interpreter
or either native target) and read back out of simulated memory through
the normal typed-load path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ir import types, values
from repro.ir import instructions as insts
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module

COUNTER_SYMBOL = "__prof.counters"


@dataclass
class ProfileMap:
    """Instrumentation metadata: which counter belongs to which block."""

    module: Module
    counter_global: GlobalVariable
    #: (function name, block name) -> counter index.
    index_of: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def num_counters(self) -> int:
        return len(self.index_of)


@dataclass
class Profile:
    """Collected execution counts."""

    counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def block_count(self, function: str, block: str) -> int:
        return self.counts.get((function, block), 0)

    def function_entry_count(self, function_obj: Function) -> int:
        if not function_obj.blocks:
            return 0
        return self.block_count(function_obj.name,
                                function_obj.entry_block.name or "")

    def hottest_blocks(self, limit: int = 10
                       ) -> List[Tuple[Tuple[str, str], int]]:
        ranked = sorted(self.counts.items(), key=lambda kv: -kv[1])
        return ranked[:limit]


def instrument_module(module: Module) -> ProfileMap:
    """Insert a counter increment at the head of every basic block.

    The counters live in one global ``[N x ulong]`` array; each block
    gains ``gep / load / add / store`` — ordinary LLVA code, translated
    and executed like everything else.
    """
    if COUNTER_SYMBOL in module.globals:
        raise ValueError("module is already instrumented")
    blocks: List[Tuple[Function, BasicBlock]] = []
    for function in module.functions.values():
        for block in function.blocks:
            blocks.append((function, block))
    array_type = types.array_of(types.ULONG, max(len(blocks), 1))
    counter_global = module.create_global(
        COUNTER_SYMBOL, array_type,
        initializer=values.const_zero(array_type), internal=True)
    profile_map = ProfileMap(module, counter_global)
    for index, (function, block) in enumerate(blocks):
        profile_map.index_of[(function.name, block.name or "")] = index
        _insert_increment(block, counter_global, index)
    return profile_map


def _insert_increment(block: BasicBlock,
                      counter_global: GlobalVariable, index: int) -> None:
    position = block.first_non_phi_index()
    gep = insts.GetElementPtrInst(
        counter_global,
        [values.const_int(types.LONG, 0),
         values.const_int(types.LONG, index)],
        name="prof.ptr")
    load = insts.LoadInst(gep, name="prof.count")
    load.exceptions_enabled = False
    add = insts.AddInst(load, values.const_int(types.ULONG, 1),
                        name="prof.next")
    store = insts.StoreInst(add, gep)
    store.exceptions_enabled = False
    for offset, inst in enumerate((gep, load, add, store)):
        block.instructions.insert(position + offset, inst)
        inst.parent = block


def read_profile(profile_map: ProfileMap, engine) -> Profile:
    """Extract counts from a finished engine run (interpreter or
    machine simulator — anything with ``.image`` and ``.memory``)."""
    base = engine.image.address_of(COUNTER_SYMBOL)
    profile = Profile()
    for key, index in profile_map.index_of.items():
        value = engine.memory.read_typed(base + 8 * index, types.ULONG)
        profile.counts[key] = int(value)
    return profile


def strip_instrumentation(module: Module) -> None:
    """Remove the counters and their update code (before shipping the
    reoptimized module)."""
    counter_global = module.globals.get(COUNTER_SYMBOL)
    if counter_global is None:
        return
    for use in list(counter_global.uses):
        user = use.user
        if isinstance(user, insts.GetElementPtrInst):
            for gep_use in list(user.uses):
                gep_user = gep_use.user
                if isinstance(gep_user, insts.LoadInst):
                    # load -> add -> store chain
                    for load_use in list(gep_user.uses):
                        adder = load_use.user
                        if isinstance(adder, insts.AddInst):
                            for add_use in list(adder.uses):
                                store = add_use.user
                                if isinstance(store, insts.StoreInst):
                                    store.erase()
                            adder.erase()
                    gep_user.erase()
                elif isinstance(gep_user, insts.StoreInst):
                    gep_user.erase()
            user.erase()
    module.remove_global(counter_global)

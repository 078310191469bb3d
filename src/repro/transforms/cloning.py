"""IR cloning: deep copies of basic blocks, used by the inliner."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import instructions as insts
from repro.ir.module import BasicBlock
from repro.ir.values import Constant, Value


def clone_blocks(blocks: Sequence[BasicBlock],
                 value_map: Dict[int, Value],
                 name_suffix: str = ".i") -> List[BasicBlock]:
    """Deep-copy *blocks*, remapping operands through *value_map*.

    ``value_map`` maps id(original value) -> replacement and is extended
    in place with every cloned block and instruction.  Operands not in
    the map (constants, globals, values defined outside *blocks*) are
    shared, not copied.
    """
    clones: List[BasicBlock] = []
    for block in blocks:
        clone = BasicBlock((block.name or "bb") + name_suffix)
        value_map[id(block)] = clone
        clones.append(clone)

    def remap(value: Value) -> Value:
        return value_map.get(id(value), value)

    for block, clone in zip(blocks, clones):
        for inst in block.instructions:
            copied = _clone_instruction(inst, remap)
            value_map[id(inst)] = copied
            clone.instructions.append(copied)
            copied.parent = clone
    # Second pass fixes forward references (phis and branches to blocks
    # were already handled by pre-mapping blocks; instruction forward
    # refs need patching).
    for block, clone in zip(blocks, clones):
        for original, copied in zip(block.instructions,
                                    clone.instructions):
            for index, operand in enumerate(original.operands):
                wanted = value_map.get(id(operand), operand)
                if copied.operand(index) is not wanted:
                    copied.set_operand(index, wanted)
    return clones


def _clone_instruction(inst: insts.Instruction, remap) -> insts.Instruction:
    """Clone one instruction with operands passed through *remap*.

    Forward references (an operand defined later) still map to the
    original here; the caller patches them once every clone exists.
    """
    ops = [remap(op) for op in inst.operands]
    copied: insts.Instruction
    if isinstance(inst, insts.BinaryInst):
        copied = type(inst)(ops[0], ops[1], inst.name)
    elif isinstance(inst, insts.RetInst):
        copied = insts.RetInst(ops[0] if ops else None)
    elif isinstance(inst, insts.BranchInst):
        if inst.is_conditional:
            copied = insts.BranchInst(condition=ops[0], if_true=ops[1],
                                      if_false=ops[2])
        else:
            copied = insts.BranchInst(target=ops[0])
    elif isinstance(inst, insts.MultiwayBranchInst):
        cases = [(ops[i], ops[i + 1]) for i in range(2, len(ops), 2)]
        copied = insts.MultiwayBranchInst(ops[0], ops[1], cases)
    elif isinstance(inst, insts.InvokeInst):
        copied = insts.InvokeInst(ops[0], ops[3:], ops[1], ops[2],
                                  inst.name)
    elif isinstance(inst, insts.UnwindInst):
        copied = insts.UnwindInst()
    elif isinstance(inst, insts.CallInst):
        copied = insts.CallInst(ops[0], ops[1:], inst.name)
    elif isinstance(inst, insts.LoadInst):
        copied = insts.LoadInst(ops[0], inst.name)
    elif isinstance(inst, insts.StoreInst):
        copied = insts.StoreInst(ops[0], ops[1])
    elif isinstance(inst, insts.GetElementPtrInst):
        copied = insts.GetElementPtrInst(ops[0], ops[1:], inst.name)
    elif isinstance(inst, insts.AllocaInst):
        copied = insts.AllocaInst(inst.allocated_type,
                                  ops[0] if ops else None, inst.name)
    elif isinstance(inst, insts.CastInst):
        copied = insts.CastInst(ops[0], inst.type, inst.name)
    elif isinstance(inst, insts.PhiInst):
        pairs = [(ops[i], ops[i + 1]) for i in range(0, len(ops), 2)]
        copied = insts.PhiInst(inst.type, pairs, inst.name)
    else:
        raise TypeError("cannot clone {0!r}".format(inst))
    copied.exceptions_enabled = inst.exceptions_enabled
    return copied

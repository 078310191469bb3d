"""The machine-code layer shared by both I-ISA back ends.

A :class:`MachineInstr` pairs a *target-specific mnemonic* (what gets
counted, sized, and printed — e.g. x86's two-address ``addl`` vs SPARC's
three-address ``add``) with a *semantic micro-operation* from a small
common vocabulary (:class:`Semantics`) that the machine simulator
executes.  The two back ends therefore differ exactly where real ones
do — instruction selection patterns, register sets, calling conventions,
immediate ranges, and encoding sizes — while sharing one execution
substrate, which keeps the differential tests (interpreter vs x86 vs
SPARC) honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ir import types


class Semantics:
    """The micro-operation vocabulary executed by the simulator."""

    MOV = "mov"          # rd <- src
    ALU = "alu"          # rd <- ra OP rb     (op + result type attached)
    CMP = "cmp"          # rd <- ra REL rb    (bool result)
    LOAD = "load"        # rd <- mem[addr]    (value type attached)
    STORE = "store"      # mem[addr] <- rs
    LEA = "lea"          # rd <- base + index*scale + offset
    JMP = "jmp"          # goto label
    JCC = "jcc"          # if rcond goto label (else fall through)
    CALL = "call"        # call sym/reg
    RET = "ret"          # return (value already in the return register)
    PUSH = "push"        # sp -= size; mem[sp] <- rs
    POP = "pop"          # rd <- mem[sp]; sp += size
    CVT = "cvt"          # rd <- convert(rs)  (from/to types attached)
    ADJSP = "adjsp"      # sp += imm (stack adjustment)
    UNWIND = "unwind"    # pop frames to the nearest invoke
    NOP = "nop"
    # Vector-extension memory ops.  Lane operands come first, the
    # program address (a Mem) last; ``value_type``/``lanes``/``esize``
    # attrs carry the element type and geometry.  The op is *atomic
    # over lanes* so a masked fault matches the V-ISA contract exactly:
    # a faulting vload yields the all-zero vector (no partial lanes), a
    # faulting vstore stops at the faulting lane.  After register
    # allocation a lane operand may be either a physical register or a
    # frame-slot Mem — one vector op can name more lanes than either
    # back end has scratch registers, so the allocators bind spilled
    # lanes straight to their slots.
    VLOAD = "vload"      # lane0..laneN-1 <- mem[addr + i*esize]
    VSTORE = "vstore"    # mem[addr + i*esize] <- lane0..laneN-1


class VirtualReg:
    """A machine-level virtual register (pre-register-allocation)."""

    __slots__ = ("index", "type", "name")

    def __init__(self, index: int, type_: types.Type,
                 name: Optional[str] = None):
        self.index = index
        self.type = type_
        self.name = name

    def __repr__(self) -> str:
        return "v{0}".format(self.index)


class PhysReg:
    """A physical register of some target."""

    __slots__ = ("name", "is_float")

    def __init__(self, name: str, is_float: bool = False):
        self.name = name
        self.is_float = is_float

    def __repr__(self) -> str:
        return "%" + self.name


Reg = Union[VirtualReg, PhysReg]


@dataclass
class Imm:
    """An immediate operand."""

    value: object  # int or float

    def __repr__(self) -> str:
        return "${0}".format(self.value)


@dataclass
class Mem:
    """A memory operand: ``[base + index*scale + offset]``.

    ``base`` may be a register or the symbolic frame pointer/stack
    pointer; ``symbol`` addresses a global directly.
    """

    base: Optional[Reg] = None
    offset: int = 0
    index: Optional[Reg] = None
    scale: int = 1
    symbol: Optional[str] = None

    def __repr__(self) -> str:
        parts = []
        if self.symbol:
            parts.append(self.symbol)
        if self.base is not None:
            parts.append(repr(self.base))
        if self.index is not None:
            parts.append("{0!r}*{1}".format(self.index, self.scale))
        if self.offset:
            parts.append(str(self.offset))
        return "[" + "+".join(parts) + "]"


@dataclass
class LabelRef:
    """A branch target (machine basic block by name)."""

    name: str

    def __repr__(self) -> str:
        return "." + self.name


@dataclass
class SymRef:
    """A direct reference to a function or global symbol."""

    name: str

    def __repr__(self) -> str:
        return "@" + self.name


Operand = Union[VirtualReg, PhysReg, Imm, Mem, LabelRef, SymRef]


class MachineInstr:
    """One target instruction."""

    __slots__ = ("mnemonic", "semantics", "operands", "attrs")

    def __init__(self, mnemonic: str, semantics: str,
                 operands: Sequence[Operand] = (), **attrs):
        self.mnemonic = mnemonic
        self.semantics = semantics
        self.operands: List[Operand] = list(operands)
        #: Semantic attributes: op (alu kind), value_type, rel, signed,
        #: from_type/to_type (cvt), normal/unwind labels (call), ...
        self.attrs: Dict[str, object] = attrs

    def registers(self):
        """Yield (operand index, register) for register operands,
        including those buried in memory operands."""
        for index, operand in enumerate(self.operands):
            if isinstance(operand, (VirtualReg, PhysReg)):
                yield index, operand
            elif isinstance(operand, Mem):
                if operand.base is not None:
                    yield index, operand.base
                if operand.index is not None:
                    yield index, operand.index

    def __repr__(self) -> str:
        return "{0} {1}".format(
            self.mnemonic, ", ".join(repr(op) for op in self.operands))


class MachineBasicBlock:
    """A straight-line run of machine instructions."""

    def __init__(self, name: str):
        self.name = name
        self.instructions: List[MachineInstr] = []

    def append(self, instr: MachineInstr) -> MachineInstr:
        self.instructions.append(instr)
        return instr

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


class MachineFunction:
    """A translated function."""

    def __init__(self, name: str, target: "TargetInfo"):
        self.name = name
        self.target = target
        self.blocks: List[MachineBasicBlock] = []
        self._vreg_count = 0
        #: Bytes of frame reserved for static allocas + spills.
        self.frame_size = 0
        #: The LLVA SMC version this translation was made from.
        self.smc_version = 0

    def new_vreg(self, type_: types.Type,
                 name: Optional[str] = None) -> VirtualReg:
        reg = VirtualReg(self._vreg_count, type_, name)
        self._vreg_count += 1
        return reg

    def add_block(self, name: str) -> MachineBasicBlock:
        block = MachineBasicBlock(name)
        self.blocks.append(block)
        return block

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def num_instructions(self) -> int:
        return sum(len(block) for block in self.blocks)

    def code_size(self) -> int:
        """Encoded size in bytes under the target's size model."""
        return sum(self.target.encoded_size(instr)
                   for instr in self.instructions())

    def __repr__(self) -> str:
        return "<MachineFunction {0} ({1}): {2} instrs>".format(
            self.name, self.target.name, self.num_instructions())


@dataclass
class TargetInfo:
    """Static description of one I-ISA."""

    name: str
    pointer_size: int
    endianness: str
    #: Allocatable integer registers (physical names).
    gpr_names: Tuple[str, ...] = ()
    #: Allocatable floating-point registers.
    fpr_names: Tuple[str, ...] = ()
    #: Scratch registers reserved for the spill-everything allocator.
    scratch_gprs: Tuple[str, ...] = ()
    scratch_fprs: Tuple[str, ...] = ()
    #: Registers that must be preserved across calls.
    callee_saved: Tuple[str, ...] = ()
    #: Register holding return values.
    return_reg: str = "r0"
    #: Registers carrying the first arguments (empty = all on stack).
    arg_regs: Tuple[str, ...] = ()
    #: Largest immediate representable in one ALU instruction.
    max_alu_immediate: int = 1 << 31
    #: Fixed instruction width (0 = variable-length CISC encoding).
    fixed_instr_width: int = 0

    def encoded_size(self, instr: MachineInstr) -> int:
        """Size model; overridden per target via size_fn."""
        if self.fixed_instr_width:
            return self.fixed_instr_width
        return variable_length_size(instr)

    @property
    def target_data(self) -> types.TargetData:
        return types.TargetData(self.pointer_size, self.endianness)


def variable_length_size(instr: MachineInstr) -> int:
    """An x86-flavoured variable-length encoding estimate:
    opcode byte(s) + modrm + sib/displacement + immediates."""
    size = 1  # opcode
    sem = instr.semantics
    if sem in (Semantics.RET, Semantics.NOP, Semantics.UNWIND):
        return 1
    if sem in (Semantics.PUSH, Semantics.POP):
        operand = instr.operands[0] if instr.operands else None
        return 2 if isinstance(operand, Mem) else 1
    size += 1  # modrm
    for operand in instr.operands:
        if isinstance(operand, Imm):
            value = operand.value
            if isinstance(value, float):
                size += 8
            elif -128 <= int(value) <= 127:
                size += 1
            else:
                size += 4
        elif isinstance(operand, Mem):
            size += 1  # sib
            if operand.offset or operand.symbol:
                size += 1 if -128 <= operand.offset <= 127 \
                    and not operand.symbol else 4
        elif isinstance(operand, (LabelRef, SymRef)):
            size += 4  # rel32
    return size


def spill_slot_type(type_: types.Type) -> types.Type:
    """The 8-byte-slot representation type for stack-passed and spilled
    values: integers widen (sign-preserving), floats become doubles,
    pointers and bools widen to ulong.  Both the code generators and the
    simulator use this one mapping, so pushes and reads always agree —
    including on the big-endian target, where a narrow read from a wide
    slot would otherwise see the wrong bytes."""
    if type_.is_floating_point:
        return types.DOUBLE
    if type_.is_pointer or type_.is_bool:
        return types.ULONG
    if type_.is_integer:
        return types.LONG if type_.is_signed else types.ULONG
    return types.ULONG


class MachineError(Exception):
    """Raised for malformed machine code or translation failures."""

"""The shared translation driver: LLVA → machine code.

This implements the translator structure Section 3 describes:

* **phi elimination** by copies in predecessor blocks ("The translator
  eliminates the φ-nodes by introducing copy operations into predecessor
  basic blocks", Section 3.1); a critical edge gets a forwarding block
  of its own in the machine CFG, and the LLVA function is only read;
* **alloca preallocation**: every fixed-size ``alloca`` gets a frame slot
  assigned at translation time ("the translator preallocates all
  fixed-size alloca objects in the function's stack frame", Section 3.2);
* **calling-convention expansion**: the abstract ``call`` becomes
  argument pushes/moves, the call, result retrieval, and stack cleanup —
  the "verbose machine-specific code for argument passing, register
  saves and restores" that makes native code bigger than virtual object
  code (Section 5.2);
* ``getelementptr`` lowering to concrete address arithmetic using the
  target's pointer size and struct layouts — the only place in the whole
  system where those I-ISA details are consulted.

The driver produces generic three-address machine code over unlimited
virtual registers; each target then runs *pattern expansion* (imposing
two-address form, immediate-range splitting, addressing-mode folding)
and *register allocation* (see :mod:`repro.targets.regalloc`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.ir import instructions as insts
from repro.ir import types
from repro.ir.module import BasicBlock, Function
from repro.ir.values import (
    Constant,
    ConstantBool,
    ConstantFP,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)
from repro.ir.module import Function as IRFunction
from repro.ir.module import GlobalVariable
from repro.targets.machine import (
    Imm,
    LabelRef,
    MachineBasicBlock,
    MachineError,
    MachineFunction,
    MachineInstr,
    Mem,
    PhysReg,
    Semantics,
    SymRef,
    TargetInfo,
    VirtualReg,
)


class LoweringError(MachineError):
    pass


class _ForwardingBlock(NamedTuple):
    """A split critical edge's block: its phi copies, then a jump."""

    name: str
    pred: BasicBlock
    target: BasicBlock


class FunctionLowering:
    """Lowers one LLVA function to generic machine code for a target."""

    def __init__(self, function: Function, target: TargetInfo):
        self.function = function
        self.target = target
        self.machine = MachineFunction(function.name, target)
        self.machine.smc_version = function.smc_version
        self.td = target.target_data
        self._value_regs: Dict[int, VirtualReg] = {}
        #: Vector SSA values are scalarized: each lane lives in its own
        #: scalar virtual register (machine value types stay scalar, so
        #: spill slots, serialization, and the simulators are untouched).
        self._vector_lane_regs: Dict[int, List[VirtualReg]] = {}
        self._alloca_offsets: Dict[int, int] = {}
        self._frame_cursor = 0
        self._block_map: Dict[int, MachineBasicBlock] = {}
        #: (id of a terminator, operand index) -> the forwarding block
        #: that split edge branches to.
        self._edge_labels: Dict[Tuple[int, int], str] = {}
        self._current: Optional[MachineBasicBlock] = None

    # -- entry point ----------------------------------------------------------

    def lower(self) -> MachineFunction:
        layout = self._split_critical_edges()
        self._preallocate_static_allocas()
        for block in layout:
            self._block_map[id(block)] = self.machine.add_block(block.name)
        self._lower_arguments()
        for block in layout:
            self._current = self._block_map[id(block)]
            if isinstance(block, _ForwardingBlock):
                self._lower_phi_copies(block.pred, (block.target,))
                self.emit(Semantics.JMP, [LabelRef(block.target.name)])
            else:
                self._lower_block(block)
        self.machine.frame_size = _align(self._frame_cursor, 16)
        return self.machine

    def _split_critical_edges(self) -> list:
        """The machine block layout: the LLVA blocks, plus a forwarding
        block on each critical edge (its source has two or more
        successor slots, and its target two or more predecessors or two
        of the slots), directly before the target, in split order, named
        ``<pred>.<succ>.crit`` (plus ``.1``, ``.2``, ... on a clash)."""
        layout: list = list(self.function.blocks)
        names = {block.name for block in layout}
        for block in self.function.blocks:
            successors = block.successors()
            if len(successors) < 2:
                continue  # a single out-edge is never critical
            terminator = block.terminator
            for index, target in enumerate(terminator.operands):
                if not isinstance(target, BasicBlock):
                    continue
                if len(target.predecessors()) < 2 \
                        and successors.count(target) < 2:
                    continue
                name = base = "{0}.{1}.crit".format(block.name,
                                                    target.name)
                counter = 0
                while name in names:
                    counter += 1
                    name = "{0}.{1}".format(base, counter)
                names.add(name)
                layout.insert(layout.index(target),
                              _ForwardingBlock(name, block, target))
                self._edge_labels[id(terminator), index] = name
        return layout

    def _label(self, terminator: insts.Instruction, index: int) -> LabelRef:
        """The label operand *index* of *terminator* branches to: its
        forwarding block when that edge is split, else its target."""
        return LabelRef(self._edge_labels.get(
            (id(terminator), index), terminator.operand(index).name))

    # -- helpers ---------------------------------------------------------------

    def emit(self, semantics: str, operands=(), mnemonic: Optional[str]
             = None, **attrs) -> MachineInstr:
        instr = MachineInstr(mnemonic or semantics, semantics, operands,
                             **attrs)
        self._current.append(instr)
        return instr

    def vreg_for(self, value: Value) -> VirtualReg:
        reg = self._value_regs.get(id(value))
        if reg is None:
            reg = self.machine.new_vreg(value.type, value.name)
            self._value_regs[id(value)] = reg
        return reg

    def operand(self, value: Value):
        """Machine operand for an LLVA operand: an Imm for constants, a
        vreg otherwise (materializing symbol addresses as needed)."""
        if isinstance(value, ConstantInt):
            return Imm(value.value)
        if isinstance(value, ConstantBool):
            return Imm(1 if value.value else 0)
        if isinstance(value, ConstantFP):
            return Imm(value.value)
        if isinstance(value, ConstantNull):
            return Imm(0)
        if isinstance(value, UndefValue):
            return Imm(0 if not value.type.is_floating_point else 0.0)
        if isinstance(value, (IRFunction, GlobalVariable)):
            reg = self.machine.new_vreg(value.type)
            self.emit(Semantics.MOV, [reg, SymRef(value.name)],
                      value_type=value.type)
            return reg
        if isinstance(value, insts.AllocaInst) \
                and id(value) in self._alloca_offsets:
            reg = self.machine.new_vreg(value.type)
            self.emit(Semantics.LEA,
                      [reg, Mem(base=_FP, offset=self._alloca_offsets[
                          id(value)])])
            return reg
        return self.vreg_for(value)

    def operand_reg(self, value: Value) -> VirtualReg:
        """Like :meth:`operand` but always a register."""
        machine_operand = self.operand(value)
        if isinstance(machine_operand, VirtualReg):
            return machine_operand
        reg = self.machine.new_vreg(value.type)
        self.emit(Semantics.MOV, [reg, machine_operand],
                  value_type=value.type)
        return reg

    def _frame_slot(self, size: int, align_to: int) -> int:
        self._frame_cursor = _align(self._frame_cursor, align_to)
        offset = self._frame_cursor
        self._frame_cursor += size
        return offset

    # -- prologue pieces ----------------------------------------------------------

    def _preallocate_static_allocas(self) -> None:
        for block in self.function.blocks:
            for inst in block.instructions:
                if isinstance(inst, insts.AllocaInst) and inst.is_static:
                    count = 1
                    if isinstance(inst.count, ConstantInt):
                        count = max(inst.count.value, 0)
                    size = self.td.size_of(inst.allocated_type) * count
                    align_to = self.td.align_of(inst.allocated_type)
                    self._alloca_offsets[id(inst)] = self._frame_slot(
                        max(size, 1), align_to)

    def _lower_arguments(self) -> None:
        """Copy incoming arguments into their virtual registers."""
        self._current = self._block_map[id(self.function.entry_block)]
        for index, arg in enumerate(self.function.args):
            location = _incoming_arg_location(self.target, index, self.td)
            reg = self.vreg_for(arg)
            if isinstance(location, PhysReg):
                self.emit(Semantics.MOV, [reg, location],
                          value_type=arg.type)
            else:
                # Stack-passed arguments live in 8-byte slots; read them
                # with the slot representation so big-endian layouts see
                # the right bytes.
                from repro.targets.machine import spill_slot_type
                self.emit(Semantics.LOAD, [reg, location],
                          value_type=spill_slot_type(arg.type), ee=False)

    # -- instruction dispatch -------------------------------------------------------

    def _lower_block(self, block: BasicBlock) -> None:
        for inst in block.instructions:
            if isinstance(inst, insts.PhiInst):
                continue  # receives copies from predecessors
            if inst.is_terminator:
                # A split edge's copies go in its forwarding block.
                self._lower_phi_copies(block, [
                    target for index, target in enumerate(inst.operands)
                    if isinstance(target, BasicBlock)
                    and (id(inst), index) not in self._edge_labels])
                self._lower_terminator(block, inst)
            else:
                self._lower_instruction(inst)

    def _lower_phi_copies(self, block: BasicBlock, successors) -> None:
        """Parallel copies into the phis of *successors* for the edges
        from *block*.

        A copy whose source is itself one of the phis being written on
        this edge (a swap/rotation) stages through a temporary; all
        other copies — the overwhelmingly common case — are single
        moves, which is why "these copies are usually eliminated during
        register allocation" costs so little even when they are not
        (Section 3.1).
        """
        copies: List[Tuple[VirtualReg, Value]] = []
        written: set = set()
        for successor in successors:
            for phi in successor.phis():
                value = phi.incoming_for_block(block)
                if value is not None:
                    copies.append((self.vreg_for(phi), value))
                    written.add(id(phi))
        if not copies:
            return
        # All reads of to-be-written phi registers happen first (into
        # temporaries), then the plain writes, then the staged writes.
        staged: List[Tuple[VirtualReg, VirtualReg]] = []
        plain: List[Tuple[VirtualReg, Value]] = []
        for phi_reg, value in copies:
            if isinstance(value, insts.PhiInst) and id(value) in written:
                temp = self.machine.new_vreg(value.type)
                self.emit(Semantics.MOV, [temp, self.operand(value)],
                          value_type=value.type)
                staged.append((phi_reg, temp))
            else:
                plain.append((phi_reg, value))
        for phi_reg, value in plain:
            self.emit(Semantics.MOV, [phi_reg, self.operand(value)],
                      value_type=value.type)
        for phi_reg, temp in staged:
            self.emit(Semantics.MOV, [phi_reg, temp],
                      value_type=temp.type)

    def _lower_terminator(self, block: BasicBlock,
                          inst: insts.Instruction) -> None:
        if isinstance(inst, insts.RetInst):
            if inst.return_value is not None:
                value_type = inst.return_value.type
                self.emit(Semantics.MOV,
                          [PhysReg(self.target.return_reg,
                                   value_type.is_floating_point),
                           self.operand(inst.return_value)],
                          value_type=value_type)
            self.emit(Semantics.RET)
            return
        if isinstance(inst, insts.BranchInst):
            if inst.is_conditional:
                condition = self.operand_reg(inst.operand(0))
                self.emit(Semantics.JCC,
                          [condition, self._label(inst, 1)])
                self.emit(Semantics.JMP, [self._label(inst, 2)])
            else:
                self.emit(Semantics.JMP, [self._label(inst, 0)])
            return
        if isinstance(inst, insts.MultiwayBranchInst):
            selector = self.operand_reg(inst.selector)
            for index in range(3, inst.num_operands, 2):  # case labels
                flag = self.machine.new_vreg(types.BOOL)
                case_value = inst.operand(index - 1).value
                self.emit(Semantics.CMP,
                          [flag, selector, Imm(case_value)],
                          rel="eq", value_type=inst.selector.type)
                self.emit(Semantics.JCC, [flag, self._label(inst, index)])
            self.emit(Semantics.JMP, [self._label(inst, 1)])
            return
        if isinstance(inst, insts.InvokeInst):
            self._lower_call(inst, list(inst.args),
                             normal=self._label(inst, 1).name,
                             unwind=self._label(inst, 2).name)
            return
        if isinstance(inst, insts.UnwindInst):
            self.emit(Semantics.UNWIND)
            return
        raise LoweringError("unknown terminator {0!r}".format(inst))

    def _lower_instruction(self, inst: insts.Instruction) -> None:
        # Vector instructions first: VectorBinaryInst subclasses
        # BinaryInst, so these arms must precede the scalar ALU arm.
        if isinstance(inst, insts.VectorBinaryInst):
            self._lower_vbinary(inst)
            return
        if isinstance(inst, insts.VSplatInst):
            self._lower_vsplat(inst)
            return
        if isinstance(inst, insts.VReduceInst):
            self._lower_vreduce(inst)
            return
        if isinstance(inst, insts.VLoadInst):
            self._lower_vload(inst)
            return
        if isinstance(inst, insts.VStoreInst):
            self._lower_vstore(inst)
            return
        if isinstance(inst, insts.BinaryInst) \
                and not isinstance(inst, insts.CompareInst):
            dest = self.vreg_for(inst)
            self.emit(Semantics.ALU,
                      [dest, self.operand_reg(inst.operand(0)),
                       self.operand(inst.operand(1))],
                      op=inst.opcode, value_type=inst.type,
                      ee=inst.exceptions_enabled)
            return
        if isinstance(inst, insts.CompareInst):
            dest = self.vreg_for(inst)
            self.emit(Semantics.CMP,
                      [dest, self.operand_reg(inst.operand(0)),
                       self.operand(inst.operand(1))],
                      rel=inst.relation, value_type=inst.operand(0).type)
            return
        if isinstance(inst, insts.LoadInst):
            dest = self.vreg_for(inst)
            address = self._address_of(inst.pointer)
            self.emit(Semantics.LOAD, [dest, address],
                      value_type=inst.type, ee=inst.exceptions_enabled)
            return
        if isinstance(inst, insts.StoreInst):
            address = self._address_of(inst.pointer)
            self.emit(Semantics.STORE,
                      [self.operand_reg(inst.value), address],
                      value_type=inst.value.type,
                      ee=inst.exceptions_enabled)
            return
        if isinstance(inst, insts.GetElementPtrInst):
            self._lower_gep(inst)
            return
        if isinstance(inst, insts.AllocaInst):
            self._lower_alloca(inst)
            return
        if isinstance(inst, insts.CastInst):
            self._lower_cast(inst)
            return
        if isinstance(inst, insts.CallInst):
            self._lower_call(inst, list(inst.args))
            return
        raise LoweringError("cannot lower {0!r}".format(inst))

    # -- the vector extension -----------------------------------------------------------
    #
    # Vector values are scalarized into per-lane scalar registers.
    # Register-to-register vector arithmetic becomes one scalar ALU op
    # per lane (ee=False: the V-ISA contract is that lane arithmetic
    # wraps without trapping), reductions become an ordered left fold
    # over the lanes, and the memory ops lower to single atomic
    # VLOAD/VSTORE micro-ops so masked-fault behaviour (all-zero result
    # vector / stop at the faulting lane) is identical to the
    # interpreters.  Caveat: lane registers carry no V-ABI annotation —
    # a deliverable trap cannot fire inside a vectorized body (the
    # autovectorizer only emits vector ops whose faults are the vload/
    # vstore's own, and those deopt at the vector instruction's site
    # before any lane register would be consulted); scalar reduction
    # results do enter the deopt shadow.

    def _lane_regs(self, value: Value) -> List[VirtualReg]:
        regs = self._vector_lane_regs.get(id(value))
        if regs is None:
            element = value.type.element
            regs = [self.machine.new_vreg(element)
                    for _ in range(value.type.lanes)]
            self._vector_lane_regs[id(value)] = regs
        return regs

    def _lane_operands(self, value: Value) -> List[object]:
        """Per-lane machine operands for one vector-typed operand."""
        if isinstance(value, UndefValue):
            zero = Imm(0.0 if value.type.element.is_floating_point
                       else 0)
            return [zero] * value.type.lanes
        if not value.type.is_vector:
            raise LoweringError(
                "expected a vector operand, got {0!r}".format(value))
        return self._lane_regs(value)

    def _lane_reg(self, operand, type_: types.Type) -> VirtualReg:
        if isinstance(operand, VirtualReg):
            return operand
        reg = self.machine.new_vreg(type_)
        self.emit(Semantics.MOV, [reg, operand], value_type=type_)
        return reg

    def _lower_vbinary(self, inst: insts.VectorBinaryInst) -> None:
        element = inst.type.element
        op = inst.opcode[1:]  # vadd -> add, ...
        dests = self._lane_regs(inst)
        lhs = self._lane_operands(inst.operand(0))
        rhs = self._lane_operands(inst.operand(1))
        for dest, a, b in zip(dests, lhs, rhs):
            self.emit(Semantics.ALU,
                      [dest, self._lane_reg(a, element), b],
                      op=op, value_type=element, ee=False)

    def _lower_vsplat(self, inst: insts.VSplatInst) -> None:
        element = inst.type.element
        source = self.operand(inst.scalar)
        for dest in self._lane_regs(inst):
            self.emit(Semantics.MOV, [dest, source],
                      value_type=element)

    def _lower_vreduce(self, inst: insts.VReduceInst) -> None:
        # MOV init; then one ALU per lane — the same ordered left fold
        # the interpreters perform, with "min"/"max" ALU ops defined as
        # `lane if lane REL acc else acc` (NaN-propagation-free, like
        # the reference reduce).
        element = inst.type
        dest = self.vreg_for(inst)
        self.emit(Semantics.MOV, [dest, self.operand(inst.init)],
                  value_type=element)
        for lane in self._lane_operands(inst.vector):
            self.emit(Semantics.ALU, [dest, dest, lane],
                      op=inst.kind, value_type=element, ee=False)

    def _lower_vload(self, inst: insts.VLoadInst) -> None:
        element = inst.type.element
        lanes = self._lane_regs(inst)
        address = self._address_of(inst.pointer)
        self.emit(Semantics.VLOAD, list(lanes) + [address],
                  value_type=element, lanes=len(lanes),
                  esize=self.td.size_of(element),
                  ee=inst.exceptions_enabled)

    def _lower_vstore(self, inst: insts.VStoreInst) -> None:
        element = inst.value.type.element
        sources = self._lane_operands(inst.value)
        address = self._address_of(inst.pointer)
        self.emit(Semantics.VSTORE, list(sources) + [address],
                  value_type=element, lanes=len(sources),
                  esize=self.td.size_of(element),
                  ee=inst.exceptions_enabled)

    # -- addresses and geps -----------------------------------------------------------

    def _address_of(self, pointer: Value) -> Mem:
        """Addressing mode for a load/store pointer operand."""
        if isinstance(pointer, (IRFunction, GlobalVariable)):
            return Mem(symbol=pointer.name)
        if isinstance(pointer, insts.AllocaInst) \
                and id(pointer) in self._alloca_offsets:
            return Mem(base=_FP,
                       offset=self._alloca_offsets[id(pointer)])
        return Mem(base=self.operand_reg(pointer))

    def _lower_gep(self, inst: insts.GetElementPtrInst) -> None:
        """Typed pointer arithmetic becomes concrete address math here —
        the one place pointer size and struct layout are consulted."""
        dest = self.vreg_for(inst)
        base = self.operand_reg(inst.pointer)
        td = self.td
        current: types.Type = inst.pointer.type.pointee
        constant_offset = 0
        running: Optional[VirtualReg] = None

        def add_scaled(index_value: Value, scale: int) -> None:
            nonlocal constant_offset, running
            if isinstance(index_value, ConstantInt):
                constant_offset += index_value.value * scale
                return
            index_reg = self.operand_reg(index_value)
            scaled = self.machine.new_vreg(index_value.type)
            if scale == 1:
                scaled = index_reg
            else:
                self.emit(Semantics.ALU,
                          [scaled, index_reg, Imm(scale)],
                          op="mul", value_type=td.pointer_int_type)
            if running is None:
                running = scaled
            else:
                summed = self.machine.new_vreg(td.pointer_int_type)
                self.emit(Semantics.ALU, [summed, running, scaled],
                          op="add", value_type=td.pointer_int_type)
                running = summed

        for position, index in enumerate(inst.indices):
            if position == 0:
                add_scaled(index, td.size_of(current))
            elif current.is_struct:
                field = index.value  # constant ubyte, checked at build
                constant_offset += td.struct_offsets(current)[field]
                current = current.fields[field]
            else:
                add_scaled(index, td.size_of(current.element))
                current = current.element

        self.emit(Semantics.LEA,
                  [dest, Mem(base=base, index=running,
                             offset=constant_offset)])

    def _lower_alloca(self, inst: insts.AllocaInst) -> None:
        if id(inst) in self._alloca_offsets:
            # Static slot: the value is just its frame address; uses go
            # through operand()/_address_of, but the register may still
            # be demanded (e.g. stored or passed), so materialize it.
            reg = self.vreg_for(inst)
            self.emit(Semantics.LEA,
                      [reg, Mem(base=_FP,
                                offset=self._alloca_offsets[id(inst)])])
            return
        # Dynamic alloca: adjust SP at run time.
        size_reg = self.machine.new_vreg(self.td.pointer_int_type)
        element_size = self.td.size_of(inst.allocated_type)
        self.emit(Semantics.ALU,
                  [size_reg, self.operand_reg(inst.count),
                   Imm(element_size)],
                  op="mul", value_type=self.td.pointer_int_type)
        self.emit(Semantics.ADJSP, [size_reg], negate=True)
        reg = self.vreg_for(inst)
        self.emit(Semantics.MOV, [reg, _SP], value_type=inst.type)

    def _lower_cast(self, inst: insts.CastInst) -> None:
        dest = self.vreg_for(inst)
        source = self.operand(inst.value)
        if inst.is_noop or _same_machine_class(inst.value.type, inst.type,
                                               self.td):
            self.emit(Semantics.MOV, [dest, source],
                      value_type=inst.type)
            return
        self.emit(Semantics.CVT, [dest, source],
                  from_type=inst.value.type, to_type=inst.type)

    # -- calls -------------------------------------------------------------------------

    def _lower_call(self, inst, args: List[Value],
                    normal: Optional[str] = None,
                    unwind: Optional[str] = None) -> None:
        target = self.target
        arg_regs = target.arg_regs
        stack_args = args[len(arg_regs):]
        # Stack arguments are pushed right-to-left (x86 style).
        pushed_bytes = 0
        for value in reversed(stack_args):
            self.emit(Semantics.PUSH, [self.operand_reg(value)],
                      value_type=value.type)
            pushed_bytes += 8
        for index, value in enumerate(args[:len(arg_regs)]):
            self.emit(Semantics.MOV,
                      [PhysReg(arg_regs[index],
                               value.type.is_floating_point),
                       self.operand(value)],
                      value_type=value.type)
        callee = inst.callee
        if isinstance(callee, IRFunction):
            callee_operand = SymRef(callee.name)
        else:
            callee_operand = self.operand_reg(callee)
        self.emit(Semantics.CALL, [callee_operand],
                  nargs=len(args), normal=normal, unwind=unwind,
                  return_type=inst.signature.return_type,
                  ee=getattr(inst, "exceptions_enabled", True))
        if pushed_bytes:
            self.emit(Semantics.ADJSP, [Imm(pushed_bytes)])
        if inst.produces_value:
            self.emit(Semantics.MOV,
                      [self.vreg_for(inst),
                       PhysReg(target.return_reg,
                               inst.type.is_floating_point)],
                      value_type=inst.type)
        if normal is not None:
            self.emit(Semantics.JMP, [LabelRef(normal)])


def remove_fallthrough_jumps(machine) -> int:
    """Delete unconditional jumps to the lexically next block (the
    simulator falls through), plus any delay-slot nop riding on them.
    Trace-based block layout (Section 4.2's runtime reoptimization)
    maximizes how often this fires on the hot path."""
    removed = 0
    for index, block in enumerate(machine.blocks):
        if index + 1 >= len(machine.blocks):
            continue
        next_name = machine.blocks[index + 1].name
        instructions = block.instructions
        # The jump may be followed only by a delay-slot nop.
        position = len(instructions) - 1
        while position >= 0 \
                and instructions[position].semantics == Semantics.NOP:
            position -= 1
        if position < 0:
            continue
        last = instructions[position]
        if last.semantics != Semantics.JMP:
            continue
        target = last.operands[0]
        if isinstance(target, LabelRef) and target.name == next_name:
            del instructions[position:]
            removed += 1
    return removed


#: Symbolic frame-pointer / stack-pointer registers shared by targets.
_FP = PhysReg("fp")
_SP = PhysReg("sp")

FRAME_POINTER = _FP
STACK_POINTER = _SP


#: Sentinel in Mem.symbol marking an incoming stack-argument slot: the
#: simulator resolves it to ``fp + frame_size + offset`` (the caller's
#: pushed arguments sit just above the callee frame).
INCOMING_ARGS = "__incoming_args__"


def _incoming_arg_location(target: TargetInfo, index: int,
                           td: types.TargetData):
    if index < len(target.arg_regs):
        return PhysReg(target.arg_regs[index])
    stack_index = index - len(target.arg_regs)
    return Mem(base=_FP, offset=8 * stack_index, symbol=INCOMING_ARGS)


def _align(value: int, align_to: int) -> int:
    return (value + align_to - 1) // align_to * align_to


def _same_machine_class(a: types.Type, b: types.Type,
                        td: types.TargetData) -> bool:
    """Casts that are pure register moves at machine level."""
    def size(t: types.Type) -> int:
        return td.size_of(t)
    if a.is_floating_point != b.is_floating_point:
        return False
    if a.is_floating_point:
        return size(a) == size(b)
    return False  # integer width changes still need CVT truncation

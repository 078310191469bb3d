"""Simulator for translated native code.

Executes :class:`~repro.targets.machine.MachineInstr` semantics against
the same :class:`~repro.execution.memory.Memory` model the interpreter
uses, so a translated program must produce bit-identical results to
direct interpretation — the correctness bar for both back ends
(differential testing).

The simulator also charges per-instruction cycle costs, giving the
deterministic "run time" denominator of Table 2's translation-cost
column, and implements the calling convention contract with the code
generators:

* ``CALL`` saves the caller context, points ``fp`` at a fresh frame of
  ``frame_size`` bytes and drops ``sp`` to its base;
* incoming stack arguments live just above the frame
  (``fp + frame_size + 8*j``), exactly where the caller's pushes put
  them;
* ``RET`` restores the caller's ``sp`` and resumes after the call.

Machine code runs decoded.  The first time a frame enters a block, the
simulator decodes the block once into ``(cost, op)`` pairs: each op has
its operands, attrs, typed memory accessor and branch target's block
index resolved, and the loop only charges ``cost`` and calls
``op(simulator, frame)``.  Decoding never raises: an unknown label,
semantics or symbol faults when its instruction executes.

Untranslated callees trigger the ``resolver`` callback — this is the
hook LLEE's function-at-a-time JIT hangs off (Section 4.1).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence

from repro import observe
from repro.execution.events import (ExecutionTrap, ExitRequest, TrapKind,
                                    note_unhandled)
from repro.execution.image import ProgramImage
from repro.execution.interpreter import (
    _float_arith,
    _round_f32,
    cast_value,
)
from repro.execution.memory import Memory, MemoryError_
from repro.execution.runtime import (
    RUNTIME_SIGNATURES,
    RuntimeLibrary,
    is_runtime_name,
    weak_tick_source,
)
from repro.ir import types
from repro.ir.intrinsics import is_intrinsic_name
from repro.ir.module import Module
from repro.targets.codegen import INCOMING_ARGS
from repro.targets.machine import (
    Imm,
    MachineFunction,
    MachineInstr,
    Mem,
    PhysReg,
    Semantics,
    SymRef,
    spill_slot_type,
)
from repro.targets.native import NativeModule

#: Cycle cost per semantic micro-op.
CYCLES = {
    Semantics.MOV: 1, Semantics.ALU: 1, Semantics.CMP: 1,
    Semantics.LOAD: 3, Semantics.STORE: 2, Semantics.LEA: 1,
    Semantics.JMP: 1, Semantics.JCC: 2, Semantics.CALL: 4,
    Semantics.RET: 2, Semantics.PUSH: 2, Semantics.POP: 2,
    Semantics.CVT: 2, Semantics.ADJSP: 1, Semantics.UNWIND: 10,
    Semantics.NOP: 1,
    # One wide memory access each: costlier than a scalar load/store,
    # far cheaper than one scalar access per lane.
    Semantics.VLOAD: 4, Semantics.VSTORE: 3,
}
_MUL_EXTRA = 2
_DIV_EXTRA = 18
_MEM_OPERAND_EXTRA = 2
#: The micro-ops that pay extra for a memory operand.
_MEM_OPERAND_SEMANTICS = (Semantics.ALU, Semantics.CMP, Semantics.MOV)
#: A budget no run reaches: the loop's limit when there is none (an
#: int, so the per-instruction test stays an int comparison).
_NO_BUDGET = 1 << 62


def instr_cost(instr: MachineInstr) -> int:
    """Deterministic cycle cost of one machine instruction (the
    simulator's budget accounting).  The cost depends only on decode-time
    facts (semantics, ALU op, operand shapes), so the simulator computes
    it once per decoded instruction, not once per executed cycle."""
    semantics = instr.semantics
    cost = CYCLES.get(semantics, 1)
    if semantics in _MEM_OPERAND_SEMANTICS:
        if semantics == Semantics.ALU:
            op = instr.attrs.get("op")
            if op == "mul":
                cost += _MUL_EXTRA
            elif op in ("div", "rem"):
                cost += _DIV_EXTRA
        for operand in instr.operands:
            if isinstance(operand, Mem):
                cost += _MEM_OPERAND_EXTRA
                break
    return cost


class _Registers(dict):
    """The register file: a register never written reads as 0."""

    __slots__ = ()

    def __missing__(self, name):
        return 0


class _Function:
    """A machine function as one simulator runs it: its blocks, their
    decoded code (each block decoded on its first entry) and the block
    index of every label."""

    __slots__ = ("name", "blocks", "code", "labels", "frame_size")

    def __init__(self, machine: MachineFunction):
        self.name = machine.name
        self.blocks = machine.blocks
        self.frame_size = machine.frame_size
        self.code: List[Optional[list]] = [None] * len(self.blocks)
        self.labels: Dict[str, int] = {}
        for index, block in enumerate(self.blocks):
            self.labels.setdefault(block.name, index)


class _MachineFrame:
    __slots__ = ("function", "code", "block_index", "instr_index", "fp",
                 "caller_sp", "unwind_label", "saved_regs")

    def __init__(self, function: _Function, fp: int, caller_sp: int,
                 unwind_label: Optional[str]):
        self.function = function
        self.code = function.code
        self.block_index = 0
        #: Where the frame resumes in its block; set by branches and
        #: calls, not by every instruction.
        self.instr_index = 0
        self.fp = fp
        self.caller_sp = caller_sp
        self.unwind_label = unwind_label
        #: Callee-saved register values ("save"/"restore" pseudo-stack).
        self.saved_regs: List[object] = []


class MachineSimulator:
    """Runs native code for one target against simulated memory."""

    def __init__(self, native: NativeModule, module: Module,
                 resolver: Optional[Callable[[str],
                                             MachineFunction]] = None,
                 max_cycles: Optional[int] = None):
        self.native = native
        self.module = module
        self.target = native.target
        self.td = self.target.target_data
        self.memory = Memory(self.td)
        self.image = ProgramImage(module, self.memory)
        self.runtime = RuntimeLibrary(self.memory,
                                      weak_tick_source(self, "cycles"))
        self.resolver = resolver
        self.cycles = 0
        self.instructions_executed = 0
        self.max_cycles = max_cycles
        self.registers: Dict[str, object] = _Registers()
        self.smc_listeners: List[Callable] = []
        self.storage_api_address = 0
        self._frames: List[_MachineFrame] = []
        self._functions: Dict[MachineFunction, _Function] = {}
        self._decoder = _Decoder(self.memory, self.registers, self.image,
                                 self.td)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, function_name: str = "main",
            args: Sequence[object] = ()):
        """Execute *function_name*; returns (return value, exit status)."""
        machine = self._machine_function(function_name)
        function = self.module.get_function(function_name)
        stack_pointer = self.memory.stack_pointer
        # Entry sequence: push stack args / set arg registers, "call".
        arg_regs = self.target.arg_regs
        for value in reversed(list(args)[len(arg_regs):]):
            self._push_value(value)
        for reg_name, value in zip(arg_regs, args):
            self.registers[reg_name] = value
        self._enter_function(machine, unwind_label=None)
        exit_status = 0
        cycles_before = self.cycles
        instructions_before = self.instructions_executed
        with observe.span("native.run", entry=function_name,
                          target=self.target.name):
            try:
                self._run_loop()
            except ExitRequest as request:
                exit_status = request.status
                self._abandon_run(stack_pointer)
            except BaseException as error:
                self._abandon_run(stack_pointer)
                if isinstance(error, ExecutionTrap):
                    observe.counter("run.traps", 1,
                                    engine=self.target.name,
                                    trap=str(error.trap_number))
                    note_unhandled(self.target.name, error.trap_number,
                                   error.detail)
                raise
            finally:
                if observe.enabled():
                    observe.counter("run.cycles",
                                    self.cycles - cycles_before,
                                    engine=self.target.name)
                    observe.counter(
                        "run.instructions",
                        self.instructions_executed - instructions_before,
                        engine=self.target.name)
        raw = self.registers.get(self.target.return_reg)
        return_type = function.return_type
        result = self._normalize_return(raw, return_type)
        return result, exit_status

    def _abandon_run(self, stack_pointer: int) -> None:
        """The run ended in an exception: drop its frames and give its
        stack back, so that the next run() starts clean."""
        self._frames.clear()
        self.memory.pop_frame(stack_pointer)

    def output_text(self) -> str:
        return self.runtime.output_text()

    # ------------------------------------------------------------------
    # Function and frame management
    # ------------------------------------------------------------------

    def _machine_function(self, name: str) -> MachineFunction:
        machine = self.native.functions.get(name)
        function = self.module.functions.get(name)
        if machine is not None and function is not None \
                and machine.smc_version != function.smc_version:
            machine = None  # stale translation (SMC, Section 3.4)
        if machine is None:
            if self.resolver is None:
                raise ExecutionTrap(
                    TrapKind.SOFTWARE_TRAP,
                    "no translation for %{0}".format(name))
            machine = self.resolver(name)
            self.native.functions[name] = machine
        return machine

    def _enter_function(self, machine: MachineFunction,
                        unwind_label: Optional[str]) -> None:
        function = self._functions.get(machine)
        if function is None:
            function = self._functions[machine] = _Function(machine)
        memory = self.memory
        caller_sp = memory.stack_pointer
        fp = caller_sp - function.frame_size
        memory.stack_pointer = fp
        self._frames.append(
            _MachineFrame(function, fp, caller_sp, unwind_label))

    def _return_from_function(self) -> None:
        frame = self._frames.pop()
        self.memory.stack_pointer = frame.caller_sp

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _run_loop(self) -> None:
        # Hoisted so the disabled path pays one local-bool test per
        # instruction; op counts flush to the registry on loop exit.
        observing = observe.enabled()
        op_counts: Dict[object, int] = {}
        frames = self._frames
        decode = self._decoder.block
        limit = self.max_cycles
        if limit is None:
            limit = _NO_BUDGET
        # The counters live in locals; self.cycles is brought up to date
        # before every call (clock_ticks reads it) and on loop exit.
        cycles = self.cycles
        executed = 0
        try:
            while frames:
                frame = frames[-1]
                code = frame.code[frame.block_index]
                if code is None:
                    code = decode(frame.function, frame.block_index)
                start = frame.instr_index
                for cost, op in code[start:] if start else code:
                    cycles += cost
                    if cycles > limit:
                        # A budget of N cycles means N cycles may be
                        # *spent*: the instruction that would exceed it
                        # is neither charged nor executed.
                        cycles -= cost
                        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                            "cycle budget exhausted")
                    executed += 1
                    if observing:
                        op_counts[op] = op_counts.get(op, 0) + 1
                    moved = op(self, frame)
                    if moved:
                        break
                else:
                    # Fall through to the next block in layout order
                    # (the trace-layout optimization removes jumps to
                    # the lexically next block).
                    if frame.block_index + 1 < len(frame.code):
                        frame.block_index += 1
                        frame.instr_index = 0
                        continue
                    function = frame.function
                    raise ExecutionTrap(
                        TrapKind.SOFTWARE_TRAP,
                        "fell off the end of block {0} in {1}".format(
                            function.blocks[frame.block_index].name,
                            function.name))
                if moved is not True:
                    # A call op returns (callee, unwind label); the call
                    # is made here, with its cost already charged.
                    self.cycles = cycles
                    self._call(*moved)
        finally:
            self.cycles = cycles
            self.instructions_executed += executed
            if observing:
                self._count_opcodes(op_counts)

    def _count_opcodes(self, op_counts: Dict[object, int]) -> None:
        """Flush per-op execution counts as ``native.opcode`` counters,
        one per semantics."""
        semantics_of = {}
        for function in self._functions.values():
            for code, block in zip(function.code, function.blocks):
                if code is not None:
                    for (_cost, op), instr in zip(code,
                                                  block.instructions):
                        semantics_of[op] = instr.semantics
        totals: Dict[str, int] = {}
        for op, count in op_counts.items():
            semantics = semantics_of[op]
            totals[semantics] = totals.get(semantics, 0) + count
        for semantics, count in totals.items():
            observe.counter("native.opcode", count, op=semantics)

    # ------------------------------------------------------------------
    # What the decoded ops call back into
    # ------------------------------------------------------------------

    def _call(self, name: str, unwind_label: Optional[str]) -> None:
        """Make the call a call op asked for; the caller's resume point
        is already set."""
        if is_intrinsic_name(name):
            self._call_intrinsic(name)
            return
        ir_function = self.module.functions.get(name)
        if (ir_function is None or ir_function.is_declaration) \
                and is_runtime_name(name):
            self._call_runtime(name)
            return
        self._enter_function(self._machine_function(name), unwind_label)

    def _call_runtime(self, name: str) -> None:
        signature = RUNTIME_SIGNATURES[name]
        args = self._collect_args(signature)
        result = self.runtime.call(name, args)
        if not signature.return_type.is_void:
            self.registers[self.target.return_reg] = result

    def _collect_args(self, signature: types.FunctionType) -> List[object]:
        arg_regs = self.target.arg_regs
        args: List[object] = []
        stack_cursor = self.memory.stack_pointer
        for index, param in enumerate(signature.params):
            if index < len(arg_regs):
                args.append(self.registers[arg_regs[index]])
            else:
                slot = stack_cursor + 8 * (index - len(arg_regs))
                args.append(self.memory.read_typed(
                    slot, _push_slot_type(None, param)))
        return args

    def _call_intrinsic(self, name: str) -> None:
        from repro.ir.intrinsics import intrinsic_info

        info = intrinsic_info(name)
        args = self._collect_args(info.function_type)
        if name == "llva.smc.replace":
            target_fn = self.image.function_at(int(args[0]))
            donor_fn = self.image.function_at(int(args[1]))
            if target_fn is None or donor_fn is None:
                raise ExecutionTrap(TrapKind.MEMORY_FAULT,
                                    "llva.smc.replace of non-function")
            target_fn.replace_body_from(donor_fn)
            # Invalidate the stale translation: future invocations get
            # retranslated (Section 3.4); active frames keep running
            # their existing machine code.
            self.native.functions.pop(target_fn.name, None)
            for listener in self.smc_listeners:
                listener(target_fn)
            return
        if name == "llva.sec.register":
            return
        if name == "llva.storage.register":
            self.storage_api_address = int(args[0])
            return
        if name == "llva.stack.depth":
            self.registers[self.target.return_reg] = len(self._frames)
            return
        raise ExecutionTrap(
            TrapKind.SOFTWARE_TRAP,
            "intrinsic {0} is not supported by the native engine "
            "(use the interpreter)".format(name))

    def _push_value(self, value,
                    value_type: Optional[types.Type] = None) -> None:
        sp = self.memory.stack_pointer - 8
        self.memory.stack_pointer = sp
        slot_type = _push_slot_type(value, value_type)
        self.memory.write_typed(sp, slot_type, value)

    # -- misc -------------------------------------------------------------------------------

    def _normalize_return(self, raw, return_type: types.Type):
        if return_type.is_void or raw is None:
            return None
        if return_type.is_bool:
            return bool(raw)
        if return_type.is_integer:
            return return_type.wrap(int(raw))
        return raw


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

class _Decoder:
    """Turns machine blocks into ``(cost, op)`` pairs for one simulator.

    ``op(simulator, frame)`` executes one instruction and returns a true
    value when it moved control: True for a taken branch, a return or an
    unwind, and ``(callee, unwind label)`` for a call, which the loop
    makes once the call's cost is charged.  The loop keeps the position
    inside a block, so ops that fall through touch no frame state.  Ops
    close over the simulator's memory, registers and image, never over
    the simulator itself.

    A block is decoded the first time a frame enters it, and many run
    only a few times, so decoding must cost about one execution of the
    instruction: the common shapes (a general register, a frame slot
    ``[fp + offset]``) are recognised inline rather than through helper
    calls.
    """

    def __init__(self, memory: Memory, registers: Dict[str, object],
                 image: ProgramImage, td: types.TargetData):
        self.memory = memory
        self.registers = registers
        self.image = image
        self.td = td
        self._readers: Dict[types.Type, Callable] = {}
        self._writers: Dict[types.Type, Callable] = {}
        #: (op, type, ee) or (from type, to type) -> the ALU or CVT
        #: function every instruction of that kind shares.
        self._computes: Dict[tuple, Callable] = {}

    def block(self, function: _Function, index: int) -> list:
        """Decode block *index* of *function* and keep it there."""
        code = []
        for position, instr in enumerate(
                function.blocks[index].instructions):
            try:
                decode = _DECODERS.get(instr.semantics, _Decoder._unknown)
                op = decode(self, instr, function, position)
            except Exception as error:
                # Malformed: not swallowed, raised when the instruction
                # executes, so code the program never runs stops nothing.
                op = _raising(error.with_traceback(None))
            code.append((instr_cost(instr), op))
        function.code[index] = code
        return code

    # -- operand access ----------------------------------------------------

    def reader(self, type_: types.Type) -> Callable:
        read = self._readers.get(type_)
        if read is None:
            read = self._readers[type_] = self.memory.reader(type_)
        return read

    def writer(self, type_: types.Type) -> Callable:
        write = self._writers.get(type_)
        if write is None:
            write = self._writers[type_] = self.memory.writer(type_)
        return write

    def getter(self, operand, value_type: Optional[types.Type] = None):
        """A function of the frame reading *operand*; memory is read as
        *value_type* (``ulong`` when None)."""
        if isinstance(operand, Imm):
            return _constant(operand.value)
        if isinstance(operand, PhysReg):
            return self._register(operand.name)
        if isinstance(operand, SymRef):
            return self._symbol(operand.name)
        if isinstance(operand, Mem):
            read = self.reader(value_type or types.ULONG)
            if operand.symbol is None and operand.index is None \
                    and operand.base is not None \
                    and operand.base.name == "fp":
                offset = operand.offset
                return lambda frame: read(frame.fp + offset)
            address = self.address(operand)
            return lambda frame: read(address(frame))
        return _trap("bad operand {0!r}".format(operand))

    def _register(self, name: str):
        if name == "sp":
            memory = self.memory
            return lambda frame: memory.stack_pointer
        if name == "fp":
            return _frame_pointer
        registers = self.registers
        return lambda frame: registers[name]

    def _symbol(self, name: str):
        image = self.image
        try:
            return _constant(image.address_of(name))
        except KeyError:
            # Looked up again when it runs: a missing symbol faults
            # only if executed.
            return lambda frame: image.address_of(name)

    def address(self, mem: Mem):
        """A function of the frame computing *mem*'s address."""
        offset = mem.offset
        symbol, base, index = mem.symbol, mem.base, mem.index
        if symbol == INCOMING_ARGS:
            return lambda frame: \
                frame.fp + frame.function.frame_size + offset
        if symbol is None and index is None and base is not None:
            if base.name == "fp":
                return lambda frame: frame.fp + offset
            if isinstance(base, PhysReg) and base.name != "sp":
                registers, name = self.registers, base.name
                return lambda frame: int(registers[name]) + offset
        start = _ZERO if symbol is None else self._symbol(symbol)
        base = _ZERO if base is None else self._register(base.name)
        index = _ZERO if index is None else self._register(index.name)
        scale = mem.scale
        return lambda frame: start(frame) + int(base(frame)) \
            + int(index(frame)) * scale + offset

    def setter(self, operand):
        """A function of the frame and a value writing register
        *operand*; ``sp`` is the memory's stack pointer."""
        name = operand.name
        if name == "sp":
            memory = self.memory

            def set_stack_pointer(frame, value):
                memory.stack_pointer = int(value)
            return set_stack_pointer
        registers = self.registers

        def set_register(frame, value):
            registers[name] = value
        return set_register

    def _assign(self, dst, get):
        """The op writing ``get(frame)`` to register *dst*."""
        name = dst.name
        if name == "sp":
            set_ = self.setter(dst)
            return lambda sim, frame: set_(frame, get(frame))
        registers = self.registers

        def assign(sim, frame):
            registers[name] = get(frame)
        return assign

    def _binary(self, dst, lhs, rhs, lhs_type, rhs_type, compute):
        """The op writing ``compute(lhs, rhs)`` to register *dst*."""
        name = dst.name
        if isinstance(lhs, PhysReg) and lhs.name not in _SP_FP \
                and name != "sp":
            registers, left = self.registers, lhs.name
            if isinstance(rhs, PhysReg) and rhs.name not in _SP_FP:
                right = rhs.name

                def binary_rr(sim, frame):
                    registers[name] = compute(registers[left],
                                              registers[right])
                return binary_rr
            if isinstance(rhs, Imm):
                constant = rhs.value

                def binary_ri(sim, frame):
                    registers[name] = compute(registers[left], constant)
                return binary_ri
            get = self.getter(rhs, rhs_type)

            def binary_rx(sim, frame):
                registers[name] = compute(registers[left], get(frame))
            return binary_rx
        get_lhs = self.getter(lhs, lhs_type)
        get_rhs = self.getter(rhs, rhs_type)
        return self._assign(
            dst, lambda frame: compute(get_lhs(frame), get_rhs(frame)))

    # -- one decoder per semantics ----------------------------------------
    # Each takes (decoder, instr, function, position) and returns an op.

    def _mov(self, instr, function, position):
        dst, src = instr.operands[0], instr.operands[1]
        name = dst.name
        if name != "sp" and isinstance(src, PhysReg) \
                and src.name not in _SP_FP:
            registers, source = self.registers, src.name

            def mov_r(sim, frame):
                registers[name] = registers[source]
            return mov_r
        attrs = instr.attrs
        value_type = attrs.get("mem_value_type") or attrs.get("value_type")
        return self._assign(dst, self.getter(src, value_type))

    def _load(self, instr, function, position):
        dst, mem = instr.operands[0], instr.operands[1]
        attrs = instr.attrs
        value_type = attrs.get("value_type") or types.ULONG
        read = self._readers.get(value_type) or self.reader(value_type)
        checked = attrs.get("ee", True)  # !ee(false): a fault reads 0
        name = dst.name
        if name != "sp" and mem.symbol is None and mem.index is None \
                and mem.base is not None and mem.base.name == "fp":
            registers, offset = self.registers, mem.offset

            def load_fp(sim, frame):
                try:
                    registers[name] = read(frame.fp + offset)
                except MemoryError_:
                    if checked:
                        raise
                    registers[name] = _zero_of(value_type)
            return load_fp
        address, set_ = self.address(mem), self.setter(dst)

        def load(sim, frame):
            where = address(frame)
            try:
                value = read(where)
            except MemoryError_:
                if checked:
                    raise
                value = _zero_of(value_type)
            set_(frame, value)
        return load

    def _store(self, instr, function, position):
        src, mem = instr.operands[0], instr.operands[1]
        attrs = instr.attrs
        value_type = attrs.get("value_type") or types.ULONG
        write = self._writers.get(value_type) or self.writer(value_type)
        checked = attrs.get("ee", True)  # !ee(false): a fault is dropped
        if isinstance(src, PhysReg) and src.name not in _SP_FP \
                and mem.symbol is None and mem.index is None \
                and mem.base is not None and mem.base.name == "fp":
            registers, name, offset = self.registers, src.name, mem.offset

            def store_fp(sim, frame):
                try:
                    write(frame.fp + offset, registers[name])
                except MemoryError_:
                    if checked:
                        raise
            return store_fp
        get = self.getter(src, value_type)
        address = self.address(mem)

        def store(sim, frame):
            value = get(frame)
            where = address(frame)
            try:
                write(where, value)
            except MemoryError_:
                if checked:
                    raise
        return store

    def _lea(self, instr, function, position):
        return self._assign(instr.operands[0],
                            self.address(instr.operands[1]))

    def _alu(self, instr, function, position):
        attrs = instr.attrs
        value_type = attrs["value_type"]
        key = (attrs["op"], value_type, bool(attrs.get("ee", False)))
        compute = self._computes.get(key)
        if compute is None:
            compute = self._computes[key] = _alu_function(*key)
        operands = instr.operands
        return self._binary(operands[0], operands[1], operands[2],
                            value_type,
                            attrs.get("mem_value_type") or value_type,
                            compute)

    def _cmp(self, instr, function, position):
        attrs = instr.attrs
        value_type = attrs.get("value_type")
        compare = _RELATIONS.get(attrs["rel"], operator.ge)
        operands = instr.operands
        return self._binary(operands[0], operands[1], operands[2],
                            value_type,
                            attrs.get("mem_value_type") or value_type,
                            compare)

    def _cvt(self, instr, function, position):
        key = from_type, to_type = (instr.attrs["from_type"],
                                    instr.attrs["to_type"])
        convert = self._computes.get(key)
        if convert is None:
            convert = self._computes[key] = _converter(from_type, to_type,
                                                       self.td)
        dst, src = instr.operands[0], instr.operands[1]
        name = dst.name
        if name != "sp" and isinstance(src, PhysReg) \
                and src.name not in _SP_FP:
            registers, source = self.registers, src.name

            def cvt_r(sim, frame):
                registers[name] = convert(registers[source])
            return cvt_r
        get = self.getter(src, from_type)
        return self._assign(dst, lambda frame: convert(get(frame)))

    def _jmp(self, instr, function, position):
        label = instr.operands[0].name
        target = function.labels.get(label)
        if target is None:
            return _trap("jump to unknown label {0}".format(label))

        def jmp(sim, frame):
            frame.block_index = target
            frame.instr_index = 0
            return True
        return jmp

    def _jcc(self, instr, function, position):
        condition, label = instr.operands[0], instr.operands[1].name
        target = function.labels.get(label)
        if target is not None and isinstance(condition, PhysReg) \
                and condition.name not in _SP_FP:
            registers, name = self.registers, condition.name

            def jcc_r(sim, frame):
                if registers[name]:
                    frame.block_index = target
                    frame.instr_index = 0
                    return True
            return jcc_r
        get = self.getter(condition, types.BOOL)

        def jcc(sim, frame):
            if get(frame):
                if target is None:
                    raise ExecutionTrap(
                        TrapKind.SOFTWARE_TRAP,
                        "jump to unknown label {0}".format(label))
                frame.block_index = target
                frame.instr_index = 0
                return True
        return jcc

    def _call(self, instr, function, position):
        callee = instr.operands[0]
        unwind_label = instr.attrs.get("unwind")
        resume = position + 1
        if isinstance(callee, SymRef):
            transfer = (callee.name, unwind_label)

            def call(sim, frame):
                frame.instr_index = resume
                return transfer
            return call
        get = self.getter(callee)
        image = self.image

        def call_indirect(sim, frame):
            address = int(get(frame))
            target = image.function_at(address)
            if target is None:
                raise ExecutionTrap(
                    TrapKind.MEMORY_FAULT,
                    "indirect call to 0x{0:x}".format(address), address)
            frame.instr_index = resume
            return target.name, unwind_label
        return call_indirect

    def _ret(self, instr, function, position):
        return _ret

    def _unwind(self, instr, function, position):
        return _unwind

    def _nop(self, instr, function, position):
        return _nop

    def _push(self, instr, function, position):
        operand = instr.operands[0]
        if instr.mnemonic == "save":
            registers, name = self.registers, operand.name

            def save(sim, frame):
                frame.saved_regs.append((name, registers[name]))
            return save
        value_type = instr.attrs.get("value_type") or types.ULONG
        get = self.getter(operand, value_type)

        def push(sim, frame):
            sim._push_value(get(frame), value_type)
        return push

    def _pop(self, instr, function, position):
        registers = self.registers
        if instr.mnemonic == "restore":
            def restore(sim, frame):
                if frame.saved_regs:
                    name, value = frame.saved_regs.pop()
                    registers[name] = value
            return restore
        memory = self.memory
        read = self.reader(types.ULONG)
        set_ = self.setter(instr.operands[0])

        def pop(sim, frame):
            sp = memory.stack_pointer
            value = read(sp)
            memory.stack_pointer = sp + 8
            set_(frame, value)
        return pop

    def _adjsp(self, instr, function, position):
        get = self.getter(instr.operands[0], types.ULONG)
        memory = self.memory
        if instr.attrs.get("negate"):
            def adjsp_down(sim, frame):
                memory.stack_pointer -= int(get(frame))
            return adjsp_down

        def adjsp_up(sim, frame):
            memory.stack_pointer += int(get(frame))
        return adjsp_up

    # -- the vector extension ---------------------------------------------

    def _lane_setter(self, operand, slot_type: types.Type):
        if isinstance(operand, Mem):
            # A spilled lane bound to its frame slot by the allocator.
            write = self.writer(slot_type)
            address = self.address(operand)
            return lambda frame, value: write(address(frame), value)
        return self.setter(operand)

    def _vload(self, instr, function, position):
        attrs = instr.attrs
        element = attrs["value_type"]
        esize = attrs.get("esize") or self.td.size_of(element)
        checked = attrs.get("ee", True)
        address = self.address(instr.operands[-1])
        read = self.reader(element)
        slot_type = spill_slot_type(element)
        lanes = [self._lane_setter(operand, slot_type)
                 for operand in instr.operands[:-1]]
        offsets = [i * esize for i in range(len(lanes))]

        def vload(sim, frame):
            base = address(frame)
            try:
                values = [read(base + offset) for offset in offsets]
            except MemoryError_:
                if checked:
                    raise
                # Atomic over lanes: a masked fault discards the whole
                # vector and yields all-zero lanes.
                values = [_zero_of(element)] * len(lanes)
            for set_lane, value in zip(lanes, values):
                set_lane(frame, value)
        return vload

    def _vstore(self, instr, function, position):
        attrs = instr.attrs
        element = attrs["value_type"]
        esize = attrs.get("esize") or self.td.size_of(element)
        checked = attrs.get("ee", True)
        address = self.address(instr.operands[-1])
        write = self.writer(element)
        slot_type = spill_slot_type(element)
        lanes = [(i * esize, self.getter(operand, slot_type))
                 for i, operand in enumerate(instr.operands[:-1])]

        def vstore(sim, frame):
            base = address(frame)
            try:
                for offset, get in lanes:
                    write(base + offset, get(frame))
            except MemoryError_:
                if checked:
                    raise
                # Masked fault: lanes before the faulting one stay
                # written, the faulting lane and everything after are
                # dropped — byte-identical to the interpreters.
        return vstore

    def _unknown(self, instr, function, position):
        return _trap("unknown semantics {0!r}".format(instr.semantics))


_DECODERS = {
    Semantics.MOV: _Decoder._mov,
    Semantics.ALU: _Decoder._alu,
    Semantics.CMP: _Decoder._cmp,
    Semantics.LOAD: _Decoder._load,
    Semantics.STORE: _Decoder._store,
    Semantics.LEA: _Decoder._lea,
    Semantics.JMP: _Decoder._jmp,
    Semantics.JCC: _Decoder._jcc,
    Semantics.CALL: _Decoder._call,
    Semantics.RET: _Decoder._ret,
    Semantics.PUSH: _Decoder._push,
    Semantics.POP: _Decoder._pop,
    Semantics.CVT: _Decoder._cvt,
    Semantics.ADJSP: _Decoder._adjsp,
    Semantics.UNWIND: _Decoder._unwind,
    Semantics.NOP: _Decoder._nop,
    Semantics.VLOAD: _Decoder._vload,
    Semantics.VSTORE: _Decoder._vstore,
}


# -- ops and operand functions shared by every instruction of a kind -------

def _ret(sim: MachineSimulator, frame: _MachineFrame) -> bool:
    # The caller's CALL already set its resume point, so the caller
    # simply resumes; an invoke's trailing JMP to the normal destination
    # executes next.
    sim._return_from_function()
    return True


def _unwind(sim: MachineSimulator, frame: _MachineFrame) -> bool:
    frames = sim._frames
    while frames:
        top = frames[-1]
        sim._return_from_function()
        if top.unwind_label is not None and frames:
            # The *caller* of the invoke-frame resumes at the unwind
            # destination, which lives in the caller's function.
            caller = frames[-1]
            target = caller.function.labels.get(top.unwind_label)
            if target is None:
                raise ExecutionTrap(
                    TrapKind.SOFTWARE_TRAP,
                    "jump to unknown label {0}".format(top.unwind_label))
            caller.block_index = target
            caller.instr_index = 0
            return True
    raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                        "unwind with no active invoke")


def _nop(sim: MachineSimulator, frame: _MachineFrame) -> None:
    return None


def _frame_pointer(frame: _MachineFrame) -> int:
    return frame.fp


def _ZERO(frame: _MachineFrame) -> int:
    return 0


def _constant(value):
    return lambda frame: value


def _trap(detail: str):
    """An op (or operand function) raising a software trap."""
    def fault(*_):
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP, detail)
    return fault


def _raising(error: Exception):
    """The op of an instruction whose decoding failed: it raises that
    error when it executes, so a malformed instruction on a path the
    program never takes does not stop the run."""
    def fault(*_):
        raise error
    return fault


#: Registers read from the frame or the memory, not the register file.
_SP_FP = ("sp", "fp")


_RELATIONS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
              "gt": operator.gt, "le": operator.le}

#: Integer ALU ops on two ints, before wrapping; shifts, div, rem, min
#: and max take ``_int_alu``.
_INT_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
            "and": operator.and_, "or": operator.or_,
            "xor": operator.xor}


def _alu_function(op: str, value_type: types.Type, ee: bool):
    """``compute(lhs, rhs)`` of one ALU op on *value_type* operands."""
    if value_type.is_floating_point:
        single = value_type is types.FLOAT

        def float_alu(lhs, rhs):
            result = _float_arith(op, lhs, rhs)
            return _round_f32(result) if single else result
        return float_alu
    if value_type.is_bool:
        def bool_alu(lhs, rhs):
            bits_l, bits_r = int(lhs), int(rhs)
            if op == "and":
                return bool(bits_l & bits_r & 1)
            if op == "or":
                return bool((bits_l | bits_r) & 1)
            return bool((bits_l ^ bits_r) & 1)
        return bool_alu
    if op in ("div", "rem"):
        def divide(lhs, rhs):
            if rhs == 0:
                if ee:
                    # Byte-identical to the interpreters' unhandled-trap
                    # report: divide-by-zero delivers detail "" / info
                    # 0, which escapes as "no handler registered".
                    raise ExecutionTrap(TrapKind.DIVIDE_BY_ZERO,
                                        "no handler registered", 0)
                return 0
            return _int_alu(op, int(lhs), int(rhs), value_type, ee)
        return divide
    function = _INT_OPS.get(op)
    if function is None:
        return lambda lhs, rhs: _int_alu(op, int(lhs), int(rhs),
                                         value_type, ee)
    # value_type.wrap, inlined: two's complement at the type's width.
    mask = (1 << value_type.bits) - 1
    half = (1 << (value_type.bits - 1)) if value_type.signed else 0
    if ee and op in _OVERFLOW_OPS:
        def checked_alu(lhs, rhs):
            raw = function(int(lhs), int(rhs))
            wrapped = ((raw + half) & mask) - half
            if wrapped != raw:
                raise ExecutionTrap(TrapKind.INTEGER_OVERFLOW,
                                    "no handler registered", 0)
            return wrapped
        return checked_alu
    return lambda lhs, rhs: \
        ((function(int(lhs), int(rhs)) + half) & mask) - half


def _converter(from_type: types.Type, to_type: types.Type,
               td: types.TargetData):
    """``cast_value`` from *from_type* to *to_type* as a function of the
    value; integer-to-integer casts wrap inline."""
    if isinstance(from_type, types.IntegerType) \
            and isinstance(to_type, types.IntegerType) \
            and from_type is not to_type:
        mask = (1 << to_type.bits) - 1
        half = (1 << (to_type.bits - 1)) if to_type.signed else 0
        return lambda value: ((int(value) + half) & mask) - half
    return lambda value: cast_value(value, from_type, to_type, td)


def _zero_of(type_: types.Type):
    if type_.is_floating_point:
        return 0.0
    if type_.is_bool:
        return False
    return 0


_OVERFLOW_OPS = ("add", "sub", "mul", "div", "rem")


def _raw_int_alu(op: str, lhs: int, rhs: int,
                 value_type: types.IntegerType) -> int:
    """The unbounded Python-int result of one integer ALU op; the caller
    wraps (and decides what an out-of-range result means)."""
    if op == "add":
        return lhs + rhs
    if op == "sub":
        return lhs - rhs
    if op == "mul":
        return lhs * rhs
    if op in ("div", "rem"):
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        return quotient if op == "div" else lhs - quotient * rhs
    if op == "and":
        return lhs & rhs
    if op == "or":
        return lhs | rhs
    if op == "xor":
        return lhs ^ rhs
    if op in ("min", "max"):
        # The vector-reduce fold op: lhs is the accumulator, rhs the
        # lane — `lane if lane REL acc else acc`, matching the
        # reference interpreter's ordered reduce exactly.
        if op == "min":
            return rhs if rhs < lhs else lhs
        return rhs if rhs > lhs else lhs
    if op == "shl":
        return lhs << (rhs & (value_type.bits - 1))
    if op == "shr":
        amount = rhs & (value_type.bits - 1)
        if value_type.is_signed:
            return lhs >> amount
        return (lhs & ((1 << value_type.bits) - 1)) >> amount
    raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                        "bad alu op {0!r}".format(op))


def _int_alu(op: str, lhs: int, rhs: int,
             value_type: types.IntegerType, ee: bool = False) -> int:
    raw = _raw_int_alu(op, lhs, rhs, value_type)
    wrapped = value_type.wrap(raw)
    if ee and wrapped != raw and op in _OVERFLOW_OPS:
        # Same unhandled-trap report as the interpreters: integer
        # overflow delivers detail "" / info 0 (shifts mask silently).
        raise ExecutionTrap(TrapKind.INTEGER_OVERFLOW,
                            "no handler registered", 0)
    return wrapped


def _push_slot_type(value, value_type: Optional[types.Type]) -> types.Type:
    """Every pushed slot is 8 bytes; pick a type wide enough to round-
    trip the value."""
    if value_type is not None:
        if value_type.is_floating_point:
            return types.DOUBLE
        if value_type.is_pointer:
            return types.ULONG
        if value_type.is_bool:
            return types.ULONG
        if value_type.is_integer:
            return types.LONG if value_type.is_signed else types.ULONG
    if isinstance(value, float):
        return types.DOUBLE
    if isinstance(value, bool):
        return types.ULONG
    if isinstance(value, int) and value < 0:
        return types.LONG
    return types.ULONG

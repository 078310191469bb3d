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

Untranslated callees trigger the ``resolver`` callback — this is the
hook LLEE's function-at-a-time JIT hangs off (Section 4.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro import observe
from repro.execution.events import ExecutionTrap, ExitRequest, TrapKind
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


def instr_cost(instr: MachineInstr) -> int:
    """Deterministic cycle cost of one machine instruction (the
    simulator's budget accounting).

    Memoized on the instruction itself: the cost depends only on
    decode-time facts (semantics, ALU op, operand shapes), so the
    opcode dispatch runs once per instruction, not once per executed
    cycle."""
    cost = instr.cost
    if cost is not None:
        return cost
    cost = CYCLES.get(instr.semantics, 1)
    if instr.semantics == Semantics.ALU:
        op = instr.attrs.get("op")
        if op == "mul":
            cost += _MUL_EXTRA
        elif op in ("div", "rem"):
            cost += _DIV_EXTRA
    if any(isinstance(op, Mem) for op in instr.operands) \
            and instr.semantics in (Semantics.ALU, Semantics.CMP,
                                    Semantics.MOV):
        cost += _MEM_OPERAND_EXTRA
    instr.cost = cost
    return cost


class _MachineFrame:
    __slots__ = ("machine", "block_index", "instr_index", "fp",
                 "caller_sp", "unwind_label", "saved_regs", "name",
                 "blocks", "num_blocks", "frame_size")

    def __init__(self, machine: MachineFunction, fp: int, caller_sp: int):
        self.machine = machine
        self.name = machine.name
        self.block_index = 0
        self.instr_index = 0
        self.fp = fp
        self.caller_sp = caller_sp
        self.unwind_label: Optional[str] = None
        #: Callee-saved register values ("save"/"restore" pseudo-stack).
        self.saved_regs: List[object] = []
        # Hoisted at frame entry so the step loop and operand decoding
        # never chase ``frame.machine.<attr>`` per executed instruction.
        self.blocks = machine.blocks
        self.num_blocks = len(machine.blocks)
        self.frame_size = machine.frame_size


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
        self.runtime = RuntimeLibrary(self.memory, lambda: self.cycles)
        self.resolver = resolver
        self.cycles = 0
        self.instructions_executed = 0
        self.max_cycles = max_cycles
        self.registers: Dict[str, object] = {}
        self.smc_listeners: List[Callable] = []
        self.storage_api_address = 0
        self._frames: List[_MachineFrame] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, function_name: str = "main",
            args: Sequence[object] = ()):
        """Execute *function_name*; returns (return value, cycles)."""
        machine = self._machine_function(function_name)
        function = self.module.get_function(function_name)
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
                self._frames.clear()
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
        caller_sp = self.memory.stack_pointer
        fp = caller_sp - machine.frame_size
        self.memory.stack_pointer = fp
        frame = _MachineFrame(machine, fp, caller_sp)
        frame.unwind_label = unwind_label
        self._frames.append(frame)

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
        op_counts: Dict[str, int] = {}
        frames = self._frames
        try:
            while frames:
                frame = frames[-1]
                block = frame.blocks[frame.block_index]
                if frame.instr_index >= len(block.instructions):
                    # Fall through to the next block in layout order (the
                    # trace-layout optimization removes jumps to the
                    # lexically next block).
                    if frame.block_index + 1 < frame.num_blocks:
                        frame.block_index += 1
                        frame.instr_index = 0
                        continue
                    raise ExecutionTrap(
                        TrapKind.SOFTWARE_TRAP,
                        "fell off the end of block {0} in {1}"
                        .format(block.name, frame.name))
                instr = block.instructions[frame.instr_index]
                cost = instr.cost
                if cost is None:
                    cost = instr_cost(instr)
                if self.max_cycles is not None \
                        and self.cycles + cost > self.max_cycles:
                    # A budget of N cycles means N cycles may be *spent*:
                    # the instruction that would exceed it is neither
                    # charged nor executed, so the trap fires with
                    # ``cycles`` at most N (not N + cost).
                    raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                        "cycle budget exhausted")
                self.instructions_executed += 1
                self.cycles += cost
                if observing:
                    op = instr.semantics
                    op_counts[op] = op_counts.get(op, 0) + 1
                self._execute(frame, instr)
        finally:
            if observing:
                for op, count in op_counts.items():
                    observe.counter("native.opcode", count, op=op)

    # ------------------------------------------------------------------
    # Operand access
    # ------------------------------------------------------------------

    def _reg_read(self, reg: PhysReg):
        if reg.name == "sp":
            return self.memory.stack_pointer
        if reg.name == "fp":
            return self._frames[-1].fp
        return self.registers.get(reg.name, 0)

    def _reg_write(self, reg: PhysReg, value) -> None:
        if reg.name == "sp":
            self.memory.stack_pointer = int(value)
            return
        self.registers[reg.name] = value

    def _mem_address(self, frame: _MachineFrame, mem: Mem) -> int:
        address = 0
        if mem.symbol == INCOMING_ARGS:
            address = frame.fp + frame.frame_size + mem.offset
            return address
        if mem.symbol is not None:
            address += self.image.address_of(mem.symbol)
        if mem.base is not None:
            address += int(self._reg_read(mem.base))
        if mem.index is not None:
            address += int(self._reg_read(mem.index)) * mem.scale
        return address + mem.offset

    def _value_of(self, frame: _MachineFrame, operand,
                  value_type: Optional[types.Type] = None):
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, PhysReg):
            return self._reg_read(operand)
        if isinstance(operand, SymRef):
            return self.image.address_of(operand.name)
        if isinstance(operand, Mem):
            address = self._mem_address(frame, operand)
            read_type = value_type or types.ULONG
            return self.memory.read_typed(address, read_type)
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                            "bad operand {0!r}".format(operand))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, frame: _MachineFrame, instr: MachineInstr) -> None:
        semantics = instr.semantics
        handler = self._handlers.get(semantics)
        if handler is None:
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "unknown semantics {0!r}".format(semantics))
        handler(self, frame, instr)

    def _advance(self, frame: _MachineFrame) -> None:
        frame.instr_index += 1

    def _jump(self, frame: _MachineFrame, label: str) -> None:
        for index, block in enumerate(frame.blocks):
            if block.name == label:
                frame.block_index = index
                frame.instr_index = 0
                return
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                            "jump to unknown label {0}".format(label))

    # -- data movement -----------------------------------------------------------

    def _exec_mov(self, frame, instr) -> None:
        value_type = instr.attrs.get("mem_value_type") \
            or instr.attrs.get("value_type")
        value = self._value_of(frame, instr.operands[1], value_type)
        self._reg_write(instr.operands[0], value)
        self._advance(frame)

    def _exec_lea(self, frame, instr) -> None:
        address = self._mem_address(frame, instr.operands[1])
        self._reg_write(instr.operands[0], address)
        self._advance(frame)

    def _exec_load(self, frame, instr) -> None:
        value_type = instr.attrs.get("value_type") or types.ULONG
        address = self._mem_address(frame, instr.operands[1])
        try:
            value = self.memory.read_typed(address, value_type)
        except MemoryError_:
            if instr.attrs.get("ee", True):
                raise
            value = _zero_of(value_type)
        self._reg_write(instr.operands[0], value)
        self._advance(frame)

    def _exec_store(self, frame, instr) -> None:
        value_type = instr.attrs.get("value_type") or types.ULONG
        value = self._value_of(frame, instr.operands[0], value_type)
        address = self._mem_address(frame, instr.operands[1])
        try:
            self.memory.write_typed(address, value_type, value)
        except MemoryError_:
            if instr.attrs.get("ee", True):
                raise
        self._advance(frame)

    # -- the vector extension ----------------------------------------------------------

    def _lane_write(self, frame, operand, value, slot_type) -> None:
        if isinstance(operand, Mem):
            # A spilled lane bound to its frame slot by the allocator.
            self.memory.write_typed(self._mem_address(frame, operand),
                                    slot_type, value)
        else:
            self._reg_write(operand, value)

    def _exec_vload(self, frame, instr) -> None:
        element = instr.attrs["value_type"]
        esize = instr.attrs.get("esize") or self.td.size_of(element)
        lanes = instr.operands[:-1]
        address = self._mem_address(frame, instr.operands[-1])
        try:
            values = [self.memory.read_typed(address + i * esize,
                                             element)
                      for i in range(len(lanes))]
        except MemoryError_:
            if instr.attrs.get("ee", True):
                raise
            # Atomic over lanes: a masked fault discards the whole
            # vector and yields all-zero lanes.
            values = [_zero_of(element)] * len(lanes)
        slot_type = spill_slot_type(element)
        for operand, value in zip(lanes, values):
            self._lane_write(frame, operand, value, slot_type)
        self._advance(frame)

    def _exec_vstore(self, frame, instr) -> None:
        element = instr.attrs["value_type"]
        esize = instr.attrs.get("esize") or self.td.size_of(element)
        lanes = instr.operands[:-1]
        address = self._mem_address(frame, instr.operands[-1])
        slot_type = spill_slot_type(element)
        try:
            for position, operand in enumerate(lanes):
                value = self._value_of(frame, operand, slot_type)
                self.memory.write_typed(address + position * esize,
                                        element, value)
        except MemoryError_:
            if instr.attrs.get("ee", True):
                raise
            # Masked fault: lanes before the faulting one stay written,
            # the faulting lane and everything after are dropped —
            # byte-identical to the interpreters.
        self._advance(frame)

    # -- arithmetic ------------------------------------------------------------------

    def _exec_alu(self, frame, instr) -> None:
        value_type = instr.attrs["value_type"]
        mem_type = instr.attrs.get("mem_value_type") or value_type
        op = instr.attrs["op"]
        lhs = self._value_of(frame, instr.operands[1], value_type)
        rhs = self._value_of(frame, instr.operands[2], mem_type)
        if value_type.is_floating_point:
            result = _float_arith(op, lhs, rhs)
            if value_type is types.FLOAT:
                result = _round_f32(result)
        elif value_type.is_bool:
            bits_l, bits_r = int(lhs), int(rhs)
            if op == "and":
                result = bool(bits_l & bits_r & 1)
            elif op == "or":
                result = bool((bits_l | bits_r) & 1)
            else:
                result = bool((bits_l ^ bits_r) & 1)
        elif op in ("div", "rem") and rhs == 0:
            if instr.attrs.get("ee", False):
                # Byte-identical to the interpreters' unhandled-trap
                # report: divide-by-zero delivers detail "" / info 0,
                # which escapes as "no handler registered".
                raise ExecutionTrap(TrapKind.DIVIDE_BY_ZERO,
                                    "no handler registered", 0)
            result = 0
        else:
            result = _int_alu(op, int(lhs), int(rhs), value_type,
                              ee=instr.attrs.get("ee", False))
        self._reg_write(instr.operands[0], result)
        self._advance(frame)

    def _exec_cmp(self, frame, instr) -> None:
        value_type = instr.attrs.get("value_type")
        mem_type = instr.attrs.get("mem_value_type") or value_type
        rel = instr.attrs["rel"]
        lhs = self._value_of(frame, instr.operands[1], value_type)
        rhs = self._value_of(frame, instr.operands[2], mem_type)
        if rel == "eq":
            result = lhs == rhs
        elif rel == "ne":
            result = lhs != rhs
        elif rel == "lt":
            result = lhs < rhs
        elif rel == "gt":
            result = lhs > rhs
        elif rel == "le":
            result = lhs <= rhs
        else:
            result = lhs >= rhs
        self._reg_write(instr.operands[0], bool(result))
        self._advance(frame)

    def _exec_cvt(self, frame, instr) -> None:
        from_type = instr.attrs["from_type"]
        to_type = instr.attrs["to_type"]
        value = self._value_of(frame, instr.operands[1], from_type)
        self._reg_write(instr.operands[0],
                        cast_value(value, from_type, to_type, self.td))
        self._advance(frame)

    # -- control flow --------------------------------------------------------------------

    def _exec_jmp(self, frame, instr) -> None:
        self._jump(frame, instr.operands[0].name)

    def _exec_jcc(self, frame, instr) -> None:
        condition = self._value_of(frame, instr.operands[0], types.BOOL)
        if condition:
            self._jump(frame, instr.operands[1].name)
        else:
            self._advance(frame)

    def _exec_nop(self, frame, instr) -> None:
        self._advance(frame)

    # -- stack ------------------------------------------------------------------------------

    def _exec_push(self, frame, instr) -> None:
        if instr.mnemonic in ("save",):
            frame.saved_regs.append(
                (instr.operands[0].name,
                 self.registers.get(instr.operands[0].name, 0)))
            self._advance(frame)
            return
        value_type = instr.attrs.get("value_type") or types.ULONG
        value = self._value_of(frame, instr.operands[0], value_type)
        self._push_value(value, value_type)
        self._advance(frame)

    def _exec_pop(self, frame, instr) -> None:
        if instr.mnemonic in ("restore",):
            if frame.saved_regs:
                name, value = frame.saved_regs.pop()
                self.registers[name] = value
            self._advance(frame)
            return
        sp = self.memory.stack_pointer
        value = self.memory.read_typed(sp, types.ULONG)
        self.memory.stack_pointer = sp + 8
        self._reg_write(instr.operands[0], value)
        self._advance(frame)

    def _push_value(self, value,
                    value_type: Optional[types.Type] = None) -> None:
        sp = self.memory.stack_pointer - 8
        self.memory.stack_pointer = sp
        slot_type = _push_slot_type(value, value_type)
        self.memory.write_typed(sp, slot_type, value)

    def _exec_adjsp(self, frame, instr) -> None:
        amount = self._value_of(frame, instr.operands[0],
                                types.ULONG)
        if instr.attrs.get("negate"):
            self.memory.stack_pointer -= int(amount)
        else:
            self.memory.stack_pointer += int(amount)
        self._advance(frame)

    # -- calls ------------------------------------------------------------------------------

    def _exec_call(self, frame, instr) -> None:
        callee = instr.operands[0]
        if isinstance(callee, SymRef):
            name = callee.name
        else:
            address = int(self._value_of(frame, callee))
            function = self.image.function_at(address)
            if function is None:
                raise ExecutionTrap(
                    TrapKind.MEMORY_FAULT,
                    "indirect call to 0x{0:x}".format(address), address)
            name = function.name
        self._advance(frame)  # resume point after the call
        if is_intrinsic_name(name):
            self._call_intrinsic(frame, name, instr)
            return
        ir_function = self.module.functions.get(name)
        if (ir_function is None or ir_function.is_declaration) \
                and is_runtime_name(name):
            self._call_runtime(frame, name, instr)
            return
        machine = self._machine_function(name)
        self._enter_function(machine, instr.attrs.get("unwind"))

    def _call_runtime(self, frame, name: str, instr: MachineInstr) -> None:
        signature = RUNTIME_SIGNATURES[name]
        args = self._collect_args(frame, signature, instr)
        result = self.runtime.call(name, args)
        if not signature.return_type.is_void:
            self.registers[self.target.return_reg] = result

    def _collect_args(self, frame, signature: types.FunctionType,
                      instr: MachineInstr) -> List[object]:
        arg_regs = self.target.arg_regs
        args: List[object] = []
        stack_cursor = self.memory.stack_pointer
        for index, param in enumerate(signature.params):
            if index < len(arg_regs):
                args.append(self.registers.get(arg_regs[index], 0))
            else:
                slot = stack_cursor + 8 * (index - len(arg_regs))
                args.append(self.memory.read_typed(
                    slot, _push_slot_type(None, param)))
        return args

    def _call_intrinsic(self, frame, name: str,
                        instr: MachineInstr) -> None:
        from repro.ir.intrinsics import intrinsic_info

        info = intrinsic_info(name)
        args = self._collect_args(frame, info.function_type, instr)
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

    def _exec_ret(self, frame, instr) -> None:
        # The caller's CALL already advanced past itself, so the caller
        # simply resumes; an invoke's trailing JMP to the normal
        # destination executes next.
        self._return_from_function()

    def _exec_unwind(self, frame, instr) -> None:
        while self._frames:
            top = self._frames[-1]
            self._return_from_function()
            if top.unwind_label is not None and self._frames:
                # The *caller* of the invoke-frame resumes at the unwind
                # destination, which lives in the caller's function.
                caller = self._frames[-1]
                self._jump(caller, top.unwind_label)
                return
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                            "unwind with no active invoke")

    # -- misc -------------------------------------------------------------------------------

    def _normalize_return(self, raw, return_type: types.Type):
        if return_type.is_void or raw is None:
            return None
        if return_type.is_bool:
            return bool(raw)
        if return_type.is_integer:
            return return_type.wrap(int(raw))
        return raw

    _handlers = {}


MachineSimulator._handlers = {
    Semantics.MOV: MachineSimulator._exec_mov,
    Semantics.ALU: MachineSimulator._exec_alu,
    Semantics.CMP: MachineSimulator._exec_cmp,
    Semantics.LOAD: MachineSimulator._exec_load,
    Semantics.STORE: MachineSimulator._exec_store,
    Semantics.LEA: MachineSimulator._exec_lea,
    Semantics.JMP: MachineSimulator._exec_jmp,
    Semantics.JCC: MachineSimulator._exec_jcc,
    Semantics.CALL: MachineSimulator._exec_call,
    Semantics.RET: MachineSimulator._exec_ret,
    Semantics.PUSH: MachineSimulator._exec_push,
    Semantics.POP: MachineSimulator._exec_pop,
    Semantics.CVT: MachineSimulator._exec_cvt,
    Semantics.ADJSP: MachineSimulator._exec_adjsp,
    Semantics.UNWIND: MachineSimulator._exec_unwind,
    Semantics.NOP: MachineSimulator._exec_nop,
    Semantics.VLOAD: MachineSimulator._exec_vload,
    Semantics.VSTORE: MachineSimulator._exec_vstore,
}


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

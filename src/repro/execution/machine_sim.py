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

Machine code runs decoded, and each block is decoded once per loaded
executable: into ops, when a frame first enters it.  An op is a tuple
``(cost, run, *operands)`` with the instruction's operands, attrs,
memory access (the memory's :meth:`~repro.execution.memory.Memory.load`
or ``store`` and a codec) and branch target's block index resolved, and
the loop only charges ``cost`` and calls ``run(simulator, frame, op)``.
:meth:`MachineSimulator.reset` starts a new run on the same simulator
with its decoded code, which is how an LLEE relaunches a resident
executable without decoding it again.  Decoding never raises: an
unknown label, semantics or symbol faults when its instruction
executes.

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
from repro.execution.memory import Memory, MemoryError_, scalar_codec
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
    decoded code (each block decoded on its first entry, and kept for
    the simulator's life) and the block index of every label."""

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
        self.max_cycles = max_cycles
        self.memory = Memory(self.td)
        self.image = ProgramImage(module, self.memory)
        self.registers: Dict[str, object] = _Registers()
        self._frames: List[_MachineFrame] = []
        self._functions: Dict[MachineFunction, _Function] = {}
        self._decoder = _Decoder(self.memory, self.registers, self.image,
                                 self.td)
        self._start(resolver)

    def reset(self, resolver: Optional[Callable[[str],
                                                MachineFunction]] = None
              ) -> None:
        """Start over as a new simulator of the same native module and
        LLVA module would, keeping the code decoded so far: memory reads
        as zero again, the image applies the layout of its first load
        (:meth:`ProgramImage.reload`), the registers, frames and
        counters are cleared, and the runtime library, the resolver and
        the SMC listeners are new.  The decoded ops hold the memory, the
        register file and the image, which stay the same objects."""
        self.memory.reset()
        self.image.reload()
        self.registers.clear()
        self._frames.clear()
        self._start(resolver)

    def _start(self, resolver) -> None:
        """The run state a new simulator and a reset one start with."""
        self.runtime = RuntimeLibrary(self.memory,
                                      weak_tick_source(self, "cycles"))
        self.resolver = resolver
        self.cycles = 0
        self.instructions_executed = 0
        self.smc_listeners: List[Callable] = []
        self.storage_api_address = 0

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
        # instruction; op and decode counts flush to the registry on
        # loop exit.
        observing = observe.enabled()
        op_counts: Dict[int, int] = {}
        frames = self._frames
        decode = self._decoder.block
        decoded = 0
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
                    decoded += 1
                start = frame.instr_index
                for op in code[start:] if start else code:
                    cycles += op[0]
                    if cycles > limit:
                        # A budget of N cycles means N cycles may be
                        # *spent*: the instruction that would exceed it
                        # is neither charged nor executed.
                        cycles -= op[0]
                        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                            "cycle budget exhausted")
                    executed += 1
                    if observing:
                        op_counts[id(op)] = op_counts.get(id(op), 0) + 1
                    moved = op[1](self, frame, op)
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
                observe.counter("native.blocks_decoded", decoded,
                                target=self.target.name)

    def _count_opcodes(self, op_counts: Dict[int, int]) -> None:
        """Flush per-op execution counts, keyed by the op's id, as
        ``native.opcode`` counters, one per semantics."""
        semantics_of = {}
        for function in self._functions.values():
            for code, block in zip(function.code, function.blocks):
                if code is not None:
                    for op, instr in zip(code, block.instructions):
                        semantics_of[id(op)] = instr.semantics
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
                codec = self._decoder.codec(_push_slot_type(None, param))
                args.append(self.memory.load(slot, codec))
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
            # their existing machine code.  The listeners go first, so
            # a JIT's listener still finds the translation it drops.
            for listener in self.smc_listeners:
                listener(target_fn)
            self.native.functions.pop(target_fn.name, None)
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
        self.memory.store(
            sp, self._decoder.codec(_push_slot_type(value, value_type)),
            value)

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
    """Turns machine blocks into ops for one simulator.

    An op is a tuple ``(cost, run, *operands)``: the loop charges
    ``cost`` and calls ``run(simulator, frame, op)``, which executes one
    instruction and returns a true value when it moved control: True
    for a taken branch, a return or an unwind, and ``(callee, unwind
    label)`` for a call, which the loop makes once the call's cost is
    charged.  The loop keeps the position inside a block, so ops that
    fall through touch no frame state.  An op's operands are what it
    reads when it runs: register names, offsets, constants, the memory's
    ``load`` or ``store`` with a codec, and operand functions of the
    frame, resolved when it is decoded.  They include the simulator's
    memory, registers and image, never the simulator itself, so an op
    serves every run of the simulator.  A load or a store uses the codec
    of its value type's own format (:func:`scalar_codec`), because the
    registers hold each value in its type's range; a value the codec
    rejects takes :meth:`Memory.write_typed`'s conversion.

    A block is decoded once per loaded executable, when a frame first
    enters it, and many run only a few times, so decoding must cost
    about one execution of the instruction: the common shapes (a general
    register, a frame slot ``[fp + offset]``) are recognised inline
    rather than through helper calls.  Decoded code stays as long as
    the executable does, so it is kept small: an op is one tuple rather
    than a function object per instruction, operand functions bind what
    they read as default arguments (a closure cell would be one more
    object per name), and equal instructions share one op.  The loader
    makes equal instruction records one object, and every instruction
    but a branch or a call (which depend on their function or position)
    decodes to the same op wherever it appears.
    """

    def __init__(self, memory: Memory, registers: Dict[str, object],
                 image: ProgramImage, td: types.TargetData):
        self.memory = memory
        self.registers = registers
        self.image = image
        self.td = td
        #: Bound once, so every op shares one bound method.
        self.load = memory.load
        self.store = memory.store
        self._codecs: Dict[types.Type, object] = {}
        #: (op, type, ee) or (from type, to type) -> the ALU or CVT
        #: function every instruction of that kind shares.
        self._computes: Dict[tuple, Callable] = {}
        #: Instruction record -> its op, for the semantics whose op
        #: depends on nothing but the record.
        self._ops: Dict[MachineInstr, tuple] = {}

    def block(self, function: _Function, index: int) -> list:
        """Decode block *index* of *function* and keep it there."""
        code = []
        ops = self._ops
        for position, instr in enumerate(
                function.blocks[index].instructions):
            op = ops.get(instr)
            if op is None:
                semantics = instr.semantics
                cost = instr_cost(instr)
                try:
                    decode = _DECODERS.get(semantics, _Decoder._unknown)
                    op = (cost,) + decode(self, instr, function, position)
                except Exception as error:
                    # Malformed: not swallowed, raised when the
                    # instruction executes, so code the program never
                    # runs stops nothing.
                    op = (cost, _raise, error.with_traceback(None))
                if semantics not in _PER_SITE:
                    ops[instr] = op
            code.append(op)
        function.code[index] = code
        return code

    # -- operand access ----------------------------------------------------

    def codec(self, type_: types.Type):
        codec = self._codecs.get(type_)
        if codec is None:
            codec = self._codecs[type_] = scalar_codec(self.td, type_)
        return codec

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
            codec = self.codec(value_type or types.ULONG)
            if operand.symbol is None and operand.index is None \
                    and operand.base is not None \
                    and operand.base.name == "fp":
                return lambda frame, load=self.load, codec=codec, \
                    offset=operand.offset: load(frame.fp + offset, codec)
            return lambda frame, load=self.load, codec=codec, \
                address=self.address(operand): load(address(frame), codec)
        return _trap("bad operand {0!r}".format(operand))

    def _register(self, name: str):
        if name == "sp":
            return lambda frame, memory=self.memory: memory.stack_pointer
        if name == "fp":
            return _frame_pointer
        return lambda frame, registers=self.registers, name=name: \
            registers[name]

    def _symbol(self, name: str):
        image = self.image
        try:
            return _constant(image.address_of(name))
        except KeyError:
            # Looked up again when it runs: a missing symbol faults
            # only if executed.
            return lambda frame, image=image, name=name: \
                image.address_of(name)

    def address(self, mem: Mem):
        """A function of the frame computing *mem*'s address."""
        offset = mem.offset
        symbol, base, index = mem.symbol, mem.base, mem.index
        if symbol == INCOMING_ARGS:
            return lambda frame, offset=offset: \
                frame.fp + frame.function.frame_size + offset
        if symbol is None and index is None and base is not None:
            if base.name == "fp":
                return lambda frame, offset=offset: frame.fp + offset
            if isinstance(base, PhysReg) and base.name != "sp":
                return lambda frame, registers=self.registers, \
                    name=base.name, offset=offset: \
                    int(registers[name]) + offset
        start = _ZERO if symbol is None else self._symbol(symbol)
        base = _ZERO if base is None else self._register(base.name)
        index = _ZERO if index is None else self._register(index.name)
        return lambda frame, start=start, base=base, index=index, \
            scale=mem.scale, offset=offset: start(frame) \
            + int(base(frame)) + int(index(frame)) * scale + offset

    def setter(self, operand):
        """A function of the frame and a value writing register
        *operand*; ``sp`` is the memory's stack pointer."""
        name = operand.name
        if name == "sp":
            def set_stack_pointer(frame, value, memory=self.memory):
                memory.stack_pointer = int(value)
            return set_stack_pointer

        def set_register(frame, value, registers=self.registers,
                         name=name):
            registers[name] = value
        return set_register

    def _assign(self, dst, get) -> tuple:
        """The op writing ``get(frame)`` to register *dst*."""
        if dst.name == "sp":
            return _assign_sp, self.memory, get
        return _assign, self.registers, dst.name, get

    def _binary(self, dst, lhs, rhs, lhs_type, rhs_type, compute) -> tuple:
        """The op writing ``compute(lhs, rhs)`` to register *dst*."""
        name = dst.name
        if isinstance(lhs, PhysReg) and lhs.name not in _SP_FP \
                and name != "sp":
            if isinstance(rhs, PhysReg) and rhs.name not in _SP_FP:
                return (_binary_rr, self.registers, name, compute,
                        lhs.name, rhs.name)
            if isinstance(rhs, Imm):
                return (_binary_ri, self.registers, name, compute,
                        lhs.name, rhs.value)
            return (_binary_rx, self.registers, name, compute, lhs.name,
                    self.getter(rhs, rhs_type))
        return self._assign(
            dst, lambda frame, get_lhs=self.getter(lhs, lhs_type),
            get_rhs=self.getter(rhs, rhs_type), compute=compute:
            compute(get_lhs(frame), get_rhs(frame)))

    # -- one decoder per semantics ----------------------------------------
    # Each takes (decoder, instr, function, position) and returns the op
    # without its cost: (run, *operands).

    def _mov(self, instr, function, position):
        dst, src = instr.operands[0], instr.operands[1]
        name = dst.name
        if name != "sp":
            if isinstance(src, PhysReg) and src.name not in _SP_FP:
                return _mov_r, self.registers, name, src.name
            if isinstance(src, Imm):
                return _mov_i, self.registers, name, src.value
        attrs = instr.attrs
        value_type = attrs.get("mem_value_type") or attrs.get("value_type")
        return self._assign(dst, self.getter(src, value_type))

    def _load(self, instr, function, position):
        dst, mem = instr.operands[0], instr.operands[1]
        attrs = instr.attrs
        value_type = attrs.get("value_type") or types.ULONG
        codec = self._codecs.get(value_type) or self.codec(value_type)
        # !ee(false): a fault reads zero; None: the fault is delivered.
        zero = None if attrs.get("ee", True) else _zero_of(value_type)
        name = dst.name
        if name != "sp" and mem.symbol is None and mem.index is None \
                and mem.base is not None and mem.base.name == "fp":
            return (_load_fp, self.registers, name, self.load, codec,
                    mem.offset, zero)
        return (_load, self.address(mem), self.load, codec,
                self.setter(dst), zero)

    def _store(self, instr, function, position):
        src, mem = instr.operands[0], instr.operands[1]
        attrs = instr.attrs
        value_type = attrs.get("value_type") or types.ULONG
        codec = self._codecs.get(value_type) or self.codec(value_type)
        if isinstance(src, PhysReg) and src.name not in _SP_FP \
                and mem.symbol is None and mem.index is None \
                and mem.base is not None and mem.base.name == "fp":
            op = (_store_fp, self.registers, src.name, self.store, codec,
                  mem.offset)
        else:
            op = (_store, self.getter(src, value_type), self.address(mem),
                  self.store, codec)
        return _checked(op, attrs)

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
        if dst.name != "sp" and isinstance(src, PhysReg) \
                and src.name not in _SP_FP:
            return _cvt_r, self.registers, dst.name, convert, src.name
        return self._assign(
            dst, lambda frame, get=self.getter(src, from_type),
            convert=convert: convert(get(frame)))

    def _jmp(self, instr, function, position):
        label = instr.operands[0].name
        target = function.labels.get(label)
        if target is None:
            return _software_trap, "jump to unknown label {0}".format(label)
        return _jmp, target

    def _jcc(self, instr, function, position):
        condition, label = instr.operands[0], instr.operands[1].name
        target = function.labels.get(label)
        if target is not None and isinstance(condition, PhysReg) \
                and condition.name not in _SP_FP:
            return _jcc_r, self.registers, condition.name, target
        return _jcc, self.getter(condition, types.BOOL), target, label

    def _call(self, instr, function, position):
        callee = instr.operands[0]
        unwind_label = instr.attrs.get("unwind")
        resume = position + 1
        if isinstance(callee, SymRef):
            return _call, resume, (callee.name, unwind_label)
        return (_call_indirect, resume, unwind_label, self.getter(callee),
                self.image)

    def _ret(self, instr, function, position):
        return _ret,

    def _unwind(self, instr, function, position):
        return _unwind,

    def _nop(self, instr, function, position):
        return _nop,

    def _push(self, instr, function, position):
        operand = instr.operands[0]
        if instr.mnemonic == "save":
            return _save, self.registers, operand.name
        value_type = instr.attrs.get("value_type") or types.ULONG
        return _push, self.getter(operand, value_type), value_type

    def _pop(self, instr, function, position):
        if instr.mnemonic == "restore":
            return _restore, self.registers
        return (_pop, self.memory, self.codec(types.ULONG),
                self.setter(instr.operands[0]))

    def _adjsp(self, instr, function, position):
        get = self.getter(instr.operands[0], types.ULONG)
        if instr.attrs.get("negate"):
            return _adjsp_down, self.memory, get
        return _adjsp_up, self.memory, get

    # -- the vector extension ---------------------------------------------

    def _lane_setter(self, operand, slot_type: types.Type):
        if isinstance(operand, Mem):
            # A spilled lane bound to its frame slot by the allocator.
            return lambda frame, value, store=self.store, \
                codec=self.codec(slot_type), \
                address=self.address(operand): \
                store(address(frame), codec, value)
        return self.setter(operand)

    def _vload(self, instr, function, position):
        attrs = instr.attrs
        element = attrs["value_type"]
        esize = attrs.get("esize") or self.td.size_of(element)
        zero = None if attrs.get("ee", True) else _zero_of(element)
        address = self.address(instr.operands[-1])
        slot_type = spill_slot_type(element)
        lanes = [self._lane_setter(operand, slot_type)
                 for operand in instr.operands[:-1]]
        offsets = [i * esize for i in range(len(lanes))]
        return (_vload, address, self.load, self.codec(element), lanes,
                offsets, zero)

    def _vstore(self, instr, function, position):
        attrs = instr.attrs
        element = attrs["value_type"]
        esize = attrs.get("esize") or self.td.size_of(element)
        address = self.address(instr.operands[-1])
        slot_type = spill_slot_type(element)
        lanes = [(i * esize, self.getter(operand, slot_type))
                 for i, operand in enumerate(instr.operands[:-1])]
        return _checked((_vstore, address, self.store, self.codec(element),
                         lanes), attrs)

    def _unknown(self, instr, function, position):
        return (_software_trap,
                "unknown semantics {0!r}".format(instr.semantics))


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


# -- what ops run: run(simulator, frame, op), op = (cost, run, *operands) ---

def _mov_r(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, registers, name, source = op
    registers[name] = registers[source]


def _mov_i(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, registers, name, value = op
    registers[name] = value


def _assign(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, registers, name, get = op
    registers[name] = get(frame)


def _assign_sp(sim: MachineSimulator, frame: _MachineFrame,
               op: tuple) -> None:
    _, _, memory, get = op
    memory.stack_pointer = int(get(frame))


def _binary_rr(sim: MachineSimulator, frame: _MachineFrame,
               op: tuple) -> None:
    _, _, registers, name, compute, left, right = op
    registers[name] = compute(registers[left], registers[right])


def _binary_ri(sim: MachineSimulator, frame: _MachineFrame,
               op: tuple) -> None:
    _, _, registers, name, compute, left, constant = op
    registers[name] = compute(registers[left], constant)


def _binary_rx(sim: MachineSimulator, frame: _MachineFrame,
               op: tuple) -> None:
    _, _, registers, name, compute, left, get = op
    registers[name] = compute(registers[left], get(frame))


def _cvt_r(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, registers, name, convert, source = op
    registers[name] = convert(registers[source])


def _load_fp(sim: MachineSimulator, frame: _MachineFrame,
             op: tuple) -> None:
    _, _, registers, name, load, codec, offset, zero = op
    try:
        registers[name] = load(frame.fp + offset, codec)
    except MemoryError_:
        if zero is None:
            raise
        registers[name] = zero


def _load(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, address, load, codec, set_, zero = op
    where = address(frame)
    try:
        value = load(where, codec)
    except MemoryError_:
        if zero is None:
            raise
        value = zero
    set_(frame, value)


def _store_fp(sim: MachineSimulator, frame: _MachineFrame,
              op: tuple) -> None:
    _, _, registers, name, store, codec, offset = op
    store(frame.fp + offset, codec, registers[name])


def _store(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, get, address, store, codec = op
    value = get(frame)
    store(address(frame), codec, value)


def _unchecked(sim: MachineSimulator, frame: _MachineFrame,
               op: tuple) -> None:
    """A store under !ee(false): runs the checked op ``op[2]`` and drops
    a memory fault (the lanes of a vector store before the faulting one
    stay written)."""
    checked = op[2]
    try:
        checked[1](sim, frame, checked)
    except MemoryError_:
        pass


def _jmp(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> bool:
    frame.block_index = op[2]
    frame.instr_index = 0
    return True


def _jcc_r(sim: MachineSimulator, frame: _MachineFrame, op: tuple):
    _, _, registers, name, target = op
    if registers[name]:
        frame.block_index = target
        frame.instr_index = 0
        return True


def _jcc(sim: MachineSimulator, frame: _MachineFrame, op: tuple):
    _, _, get, target, label = op
    if get(frame):
        if target is None:
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "jump to unknown label {0}".format(label))
        frame.block_index = target
        frame.instr_index = 0
        return True


def _call(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> tuple:
    _, _, resume, transfer = op
    frame.instr_index = resume
    return transfer


def _call_indirect(sim: MachineSimulator, frame: _MachineFrame,
                   op: tuple) -> tuple:
    _, _, resume, unwind_label, get, image = op
    address = int(get(frame))
    target = image.function_at(address)
    if target is None:
        raise ExecutionTrap(
            TrapKind.MEMORY_FAULT,
            "indirect call to 0x{0:x}".format(address), address)
    frame.instr_index = resume
    return target.name, unwind_label


def _ret(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> bool:
    # The caller's CALL already set its resume point, so the caller
    # simply resumes; an invoke's trailing JMP to the normal destination
    # executes next.
    sim._return_from_function()
    return True


def _unwind(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> bool:
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


def _nop(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    return None


def _save(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, registers, name = op
    frame.saved_regs.append((name, registers[name]))


def _restore(sim: MachineSimulator, frame: _MachineFrame,
             op: tuple) -> None:
    if frame.saved_regs:
        name, value = frame.saved_regs.pop()
        op[2][name] = value


def _push(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, get, value_type = op
    sim._push_value(get(frame), value_type)


def _pop(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, memory, codec, set_ = op
    sp = memory.stack_pointer
    value = memory.load(sp, codec)
    memory.stack_pointer = sp + 8
    set_(frame, value)


def _adjsp_down(sim: MachineSimulator, frame: _MachineFrame,
                op: tuple) -> None:
    _, _, memory, get = op
    memory.stack_pointer -= int(get(frame))


def _adjsp_up(sim: MachineSimulator, frame: _MachineFrame,
              op: tuple) -> None:
    _, _, memory, get = op
    memory.stack_pointer += int(get(frame))


def _vload(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    _, _, address, load, codec, lanes, offsets, zero = op
    base = address(frame)
    try:
        values = [load(base + offset, codec) for offset in offsets]
    except MemoryError_:
        if zero is None:
            raise
        # Atomic over lanes: a masked fault discards the whole vector
        # and yields all-zero lanes.
        values = [zero] * len(lanes)
    for set_lane, value in zip(lanes, values):
        set_lane(frame, value)


def _vstore(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    # Under !ee(false) the op runs inside _unchecked: lanes before the
    # faulting one stay written, the faulting lane and everything after
    # are dropped — byte-identical to the interpreters.
    _, _, address, store, codec, lanes = op
    base = address(frame)
    for offset, get in lanes:
        store(base + offset, codec, get(frame))


def _software_trap(sim: MachineSimulator, frame: _MachineFrame,
                   op: tuple) -> None:
    raise ExecutionTrap(TrapKind.SOFTWARE_TRAP, op[2])


def _raise(sim: MachineSimulator, frame: _MachineFrame, op: tuple) -> None:
    """The op of an instruction whose decoding failed: it raises that
    error when it executes, so a malformed instruction on a path the
    program never takes does not stop the run.  The error is raised
    afresh each time, so it keeps no traceback of earlier runs."""
    raise op[2].with_traceback(None)


# -- operand functions shared by every operand of a kind --------------------

def _frame_pointer(frame: _MachineFrame) -> int:
    return frame.fp


def _ZERO(frame: _MachineFrame) -> int:
    return 0


def _checked(op: tuple, attrs: dict) -> tuple:
    """A store's op, without its cost: *op* itself, or under !ee(false)
    *op* run by :func:`_unchecked`, which drops a fault."""
    if attrs.get("ee", True):
        return op
    return _unchecked, (0,) + op


def _constant(value):
    return lambda frame, value=value: value


def _trap(detail: str):
    """An operand function raising a software trap."""
    def fault(frame):
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP, detail)
    return fault


#: Registers read from the frame or the memory, not the register file.
_SP_FP = ("sp", "fp")

#: Semantics whose op depends on the block's function (a branch's
#: target) or on the position in the block (a call's resume point).
_PER_SITE = (Semantics.JMP, Semantics.JCC, Semantics.CALL)


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

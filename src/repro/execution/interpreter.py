"""Direct interpreter for LLVA virtual object code.

This is the semantic oracle of the reproduction: it defines what every
LLVA program *means*, so translated native code can be differentially
tested against it.  It implements:

* all 28 instructions with the paper's type semantics;
* the precise-exception model of Section 3.3, including the per-
  instruction ``ExceptionsEnabled`` mask and dynamic masking via
  ``llva.exceptions.set``;
* ``invoke``/``unwind`` stack unwinding;
* trap handlers, the privileged bit, and the ``llva.*`` intrinsics of
  Section 3.5;
* the self-modifying-code rule of Section 3.4 (active invocations keep
  executing the old body; only future invocations see the new one).

The engine is an explicit frame stack — no host recursion — so deeply
recursive LLVA programs (the QuadTree benchmarks) run regardless of the
host recursion limit, and the stack-walking intrinsics are trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro import observe
from repro.execution.config import ExecConfig
from repro.execution.events import (
    ExecutionTrap,
    ExitRequest,
    TrapKind,
    UnwindSignal,
    note_unhandled,
)
from repro.execution.image import ProgramImage
from repro.execution.memory import Memory, MemoryError_
from repro.execution.runtime import (
    RuntimeLibrary,
    is_runtime_name,
    weak_tick_source,
)
from repro.ir import instructions as insts
from repro.ir import types
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.values import (
    Argument,
    Constant,
    ConstantBool,
    ConstantFP,
    ConstantInt,
    ConstantNull,
    UndefValue,
)

_F32 = types.FLOAT

_REFERENCE = ExecConfig(engine="reference")


class StepLimitExceeded(Exception):
    """The configured ``max_steps`` budget was exhausted."""


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    return_value: object
    steps: int
    output: str
    exit_status: int = 0


class _Frame:
    """One LLVA activation record."""

    __slots__ = ("function", "block", "index", "registers", "saved_sp",
                 "call_inst", "is_trap_handler")

    def __init__(self, function: Function, saved_sp: int,
                 call_inst: Optional[insts.Instruction]):
        self.function = function
        self.block: BasicBlock = function.entry_block
        self.index = 0
        self.registers: Dict[int, object] = {}
        self.saved_sp = saved_sp
        self.call_inst = call_inst
        self.is_trap_handler = False


class Interpreter:
    """Executes LLVA modules directly.

    *config* selects the engine: the reference engine is this class,
    the semantic oracle, and ``ExecConfig(engine="fast")`` dispatches
    construction to :class:`repro.execution.fastpath.FastInterpreter`,
    the pre-decoded closure-threaded engine.  Keyword *settings* name
    :class:`ExecConfig` fields and replace config's, so
    ``Interpreter(module, engine="fast")`` is ``Interpreter(module,
    ExecConfig(engine="fast"))``.  The fast engine alone reads
    *decode_cache* and *tier2_cache*.
    """

    engine = "reference"

    def __new__(cls, module: Optional[Module] = None,
                config: ExecConfig = _REFERENCE, **options):
        if cls is Interpreter \
                and options.get("engine", config.engine) == "fast":
            from repro.execution.fastpath import FastInterpreter
            return object.__new__(FastInterpreter)
        return object.__new__(cls)

    def __init__(self, module: Module, config: ExecConfig = _REFERENCE, *,
                 target: Optional[types.TargetData] = None,
                 privileged: bool = False,
                 max_steps: Optional[int] = None,
                 decode_cache=None,
                 tier2_cache=None,
                 profiler=None,
                 **settings):
        if settings:
            config = replace(config, **settings)
        self.config = config
        self.module = module
        self.target = target or module.target_data
        if config.sanitize:
            from repro.execution.sanitizer import SanitizedMemory
            self.memory = SanitizedMemory(self.target)
        else:
            self.memory = Memory(self.target)
        self.image = ProgramImage(module, self.memory)
        self.runtime = RuntimeLibrary(self.memory,
                                      weak_tick_source(self, "steps"))
        self.steps = 0
        self.max_steps = max_steps
        self.privileged = privileged
        self.exceptions_dynamic = True
        self.trap_handlers: Dict[int, int] = {}
        self.io_channels: Dict[int, List[int]] = {}
        #: Called with the Function whenever SMC rewrites it, so a JIT can
        #: invalidate cached translations (Section 3.4).
        self.smc_listeners: List[Callable[[Function], None]] = []
        self._frames: List[_Frame] = []
        self._last_trap_registers: Dict[int, int] = {}
        #: Optional StepProfiler (repro.observe.profiler) receiving
        #: frame-transition callbacks; None costs one test per call/ret.
        self.profiler = profiler

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, function_name: str = "main",
            args: Sequence[object] = ()) -> ExecutionResult:
        """Execute *function_name* to completion and return the result."""
        function = self.module.get_function(function_name)
        result_value: object = None
        exit_status = 0
        steps_before = self.steps
        stack_pointer = self.memory.stack_pointer
        self._push_call(function, list(args), call_inst=None)
        try:
            with observe.span("interp.run", entry=function_name,
                              engine=self.engine) as span:
                try:
                    result_value = self._run_loop()
                except ExitRequest as request:
                    exit_status = request.status
                    self._abandon_run(stack_pointer)
                except BaseException:
                    self._abandon_run(stack_pointer)
                    raise
                finally:
                    span.set(steps=self.steps - steps_before)
        finally:
            if self.profiler is not None:
                self.profiler.flush(self.steps)
            observe.counter("run.steps", self.steps - steps_before,
                            engine="interp")
        return ExecutionResult(
            return_value=result_value,
            steps=self.steps,
            output=self.runtime.output_text(),
            exit_status=exit_status,
        )

    def _abandon_run(self, stack_pointer: int) -> None:
        """The run ended in an exception: drop its frames and give its
        stack back, so that the next run() starts clean."""
        self._frames.clear()
        self.memory.pop_frame(stack_pointer)

    # ------------------------------------------------------------------
    # The main loop
    # ------------------------------------------------------------------

    def _run_loop(self) -> object:
        frames = self._frames
        dispatch = self._dispatch
        # Hoisted so the disabled path pays one local-bool test per
        # step; opcode counts flush to the registry on loop exit.
        observing = observe.enabled()
        # Same discipline for the sanitizer: `san` is None unless the
        # interpreter was built with sanitize=True, so unsanitized runs
        # pay one local test per step.
        san = self.memory.san
        opcode_counts: Dict[str, int] = {}
        try:
            while frames:
                frame = frames[-1]
                inst = frame.block.instructions[frame.index]
                self.steps += 1
                if observing:
                    opcode = inst.opcode
                    opcode_counts[opcode] = \
                        opcode_counts.get(opcode, 0) + 1
                if san is not None:
                    san.set_site_frame(frame, inst)
                if self.max_steps is not None \
                        and self.steps > self.max_steps:
                    raise StepLimitExceeded(
                        "exceeded {0} steps".format(self.max_steps))
                try:
                    outcome = dispatch[inst.opcode](self, frame, inst)
                except MemoryError_ as fault:
                    outcome = self._handle_trap(frame, inst,
                                                fault.trap_number,
                                                fault.address or 0,
                                                fault.detail,
                                                fault.unmaskable)
                if outcome is not _NO_RESULT:
                    return outcome
            return None
        finally:
            if observing:
                for opcode, count in opcode_counts.items():
                    observe.counter("interp.opcode", count,
                                    opcode=opcode)

    # Sentinel meaning "keep looping".
    # (Returned by every executor except the final ret.)

    # ------------------------------------------------------------------
    # Operand evaluation
    # ------------------------------------------------------------------

    def _value(self, frame: _Frame, operand) -> object:
        if isinstance(operand, Constant):
            if isinstance(operand, ConstantInt):
                return operand.value
            if isinstance(operand, ConstantFP):
                return operand.value
            if isinstance(operand, ConstantBool):
                return operand.value
            if isinstance(operand, ConstantNull):
                return 0
            if isinstance(operand, UndefValue):
                return _zero_of(operand.type)
            if isinstance(operand, (Function, GlobalVariable)):
                return self.image.address_of(operand.name)
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "unsupported constant operand")
        try:
            return frame.registers[id(operand)]
        except KeyError:
            raise ExecutionTrap(
                TrapKind.SOFTWARE_TRAP,
                "read of undefined register %{0}".format(operand.name))

    def _set(self, frame: _Frame, inst: insts.Instruction,
             value: object) -> None:
        frame.registers[id(inst)] = value

    # ------------------------------------------------------------------
    # Exception delivery (Section 3.3)
    # ------------------------------------------------------------------

    def _handle_trap(self, frame: _Frame, inst: insts.Instruction,
                     trap_number: int, info: int, detail: str = "",
                     unmaskable: bool = False):
        """Apply the ExceptionsEnabled rules to a raised condition."""
        if not unmaskable \
                and not (inst.exceptions_enabled
                         and self.exceptions_dynamic):
            # Masked: the exception is ignored.  The instruction completes
            # with a defined default result (zero) so execution stays
            # deterministic across engines.
            if inst.produces_value:
                self._set(frame, inst, _zero_of(inst.type))
            frame.index += 1
            return _NO_RESULT
        return self._deliver_trap(frame, inst, trap_number, info, detail)

    def _deliver_trap(self, frame: _Frame, inst: Optional[insts.Instruction],
                      trap_number: int, info: int, detail: str = ""):
        observe.counter("run.traps", 1, engine="interp",
                        trap=str(trap_number))
        handler_address = self.trap_handlers.get(trap_number)
        if handler_address is None:
            note_unhandled(self.engine, trap_number, detail)
            raise ExecutionTrap(trap_number,
                                detail or "no handler registered", info)
        handler = self.image.function_at(handler_address)
        if handler is None or handler.is_declaration:
            note_unhandled(self.engine, trap_number,
                           "handler not an LLVA function")
            raise ExecutionTrap(trap_number,
                                "trap handler is not an LLVA function")
        if observe.enabled():
            observe.event("trap.deliver", engine=self.engine,
                          trap=trap_number, handler=handler.name)
        # Snapshot the interrupted frame's register file for
        # llva.register.read, using the "standard, program-independent
        # register numbering scheme" of Section 3.5: arguments first (in
        # order), then every value-producing instruction in block order.
        self._last_trap_registers = self._number_registers(frame)
        # The faulting instruction is skipped after the handler returns;
        # its result (if any) is zero.  This gives trap handlers resume
        # semantics without exposing I-ISA state.
        if inst is not None and inst.produces_value:
            self._set(frame, inst, _zero_of(inst.type))
        if inst is not None:
            frame.index += 1
        trap_frame = self._push_call(
            handler, [trap_number & 0xFFFFFFFF, info], call_inst=None)
        trap_frame.is_trap_handler = True
        return _NO_RESULT

    def _number_registers(self, frame: _Frame) -> Dict[int, int]:
        """The V-ABI register numbering: argument i is register i; the
        k-th value-producing instruction (block order) is register
        len(args)+k.  Only integer-representable values are exposed."""
        numbered: Dict[int, int] = {}
        index = 0
        for arg in frame.function.args:
            value = frame.registers.get(id(arg))
            if isinstance(value, (int, bool)):
                numbered[index] = int(value)
            index += 1
        for inst in frame.function.instructions():
            if not inst.produces_value:
                continue
            value = frame.registers.get(id(inst))
            if isinstance(value, (int, bool)):
                numbered[index] = int(value)
            index += 1
        return numbered

    # ------------------------------------------------------------------
    # Calls, returns, unwinding
    # ------------------------------------------------------------------

    def _push_call(self, function: Function, args: List[object],
                   call_inst: Optional[insts.Instruction]) -> _Frame:
        if function.is_declaration:
            raise ExecutionTrap(
                TrapKind.SOFTWARE_TRAP,
                "call to undefined function %{0}".format(function.name))
        frame = _Frame(function, self.memory.stack_pointer, call_inst)
        if len(args) != len(function.args):
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "argument count mismatch calling %{0}"
                                .format(function.name))
        for formal, actual in zip(function.args, args):
            frame.registers[id(formal)] = actual
        self._frames.append(frame)
        if self.profiler is not None:
            self.profiler.push(self.steps, function.name, "tier1")
        return frame

    def _exec_call(self, frame: _Frame, inst):
        callee = inst.callee
        function: Optional[Function]
        if isinstance(callee, Function):
            function = callee
        else:
            address = self._value(frame, callee)
            function = self.image.function_at(int(address))
            if function is None:
                raise ExecutionTrap(
                    TrapKind.MEMORY_FAULT,
                    "indirect call to non-function address 0x{0:x}"
                    .format(int(address)), int(address))
        args = [self._value(frame, a) for a in inst.args]
        if function.is_intrinsic:
            result = self._call_intrinsic(frame, function.name, args)
            if inst.produces_value:
                self._set(frame, inst, result)
            self._advance_after_call(frame, inst)
            return _NO_RESULT
        if function.is_declaration and is_runtime_name(function.name):
            result = self.runtime.call(function.name, args)
            if inst.produces_value:
                self._set(frame, inst, result)
            self._advance_after_call(frame, inst)
            return _NO_RESULT
        self._push_call(function, args, call_inst=inst)
        return _NO_RESULT

    def _advance_after_call(self, frame: _Frame, inst) -> None:
        """Move past a completed call/invoke in *frame*."""
        if isinstance(inst, insts.InvokeInst):
            self._enter_block(frame, inst.normal_dest)
        else:
            frame.index += 1

    def _exec_ret(self, frame: _Frame, inst: insts.RetInst):
        value = (self._value(frame, inst.return_value)
                 if inst.return_value is not None else None)
        self.memory.pop_frame(frame.saved_sp)
        self._frames.pop()
        if self.profiler is not None:
            self.profiler.pop(self.steps)
        if not self._frames:
            return value  # program result
        if frame.is_trap_handler:
            # Resumption state was already arranged by _deliver_trap.
            return _NO_RESULT
        caller = self._frames[-1]
        call_inst = frame.call_inst
        if call_inst is None:
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "broken return linkage")
        if call_inst.produces_value:
            self._set(caller, call_inst, value)
        self._advance_after_call(caller, call_inst)
        return _NO_RESULT

    def _exec_unwind(self, frame: _Frame, inst):
        """Pop frames to the dynamically nearest ``invoke``."""
        profiler = self.profiler
        while self._frames:
            top = self._frames.pop()
            if profiler is not None:
                profiler.pop(self.steps)
            self.memory.pop_frame(top.saved_sp)
            call_inst = top.call_inst
            if not self._frames:
                break
            if isinstance(call_inst, insts.InvokeInst):
                caller = self._frames[-1]
                self._enter_block(caller, call_inst.unwind_dest)
                return _NO_RESULT
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                            "unwind with no active invoke")

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def _enter_block(self, frame: _Frame, block: BasicBlock) -> None:
        """Branch *frame* to *block*, executing its phis atomically."""
        previous = frame.block
        frame.block = block
        phis = block.phis()
        if phis:
            # All phis read their inputs before any phi writes (standard
            # simultaneous-assignment semantics).
            incoming = []
            for phi in phis:
                value = phi.incoming_for_block(previous)
                if value is None:
                    raise ExecutionTrap(
                        TrapKind.SOFTWARE_TRAP,
                        "phi in %{0} missing edge from %{1}"
                        .format(block.name, previous.name))
                incoming.append(self._value(frame, value))
            for phi, value in zip(phis, incoming):
                frame.registers[id(phi)] = value
            self.steps += len(phis)
        frame.index = len(phis)

    def _exec_br(self, frame: _Frame, inst: insts.BranchInst):
        if inst.is_conditional:
            taken = self._value(frame, inst.operand(0))
            target = inst.operand(1) if taken else inst.operand(2)
        else:
            target = inst.operand(0)
        self._enter_block(frame, target)
        return _NO_RESULT

    def _exec_mbr(self, frame: _Frame, inst: insts.MultiwayBranchInst):
        selector = self._value(frame, inst.selector)
        target = inst.default
        for case_value, case_label in inst.cases():
            if case_value.value == selector:
                target = case_label
                break
        self._enter_block(frame, target)
        return _NO_RESULT

    def _exec_phi_error(self, frame: _Frame, inst):
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                            "phi executed outside block entry")

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _exec_arith(self, frame: _Frame, inst):
        lhs = self._value(frame, inst.operand(0))
        rhs = self._value(frame, inst.operand(1))
        opcode = inst.opcode
        type_ = inst.type
        if type_.is_floating_point:
            result = _float_arith(opcode, lhs, rhs)
            if type_ is _F32:
                result = _round_f32(result)
            self._set(frame, inst, result)
            frame.index += 1
            return _NO_RESULT
        # Integer arithmetic with two's-complement wraparound.
        if opcode == "add":
            raw = lhs + rhs
        elif opcode == "sub":
            raw = lhs - rhs
        elif opcode == "mul":
            raw = lhs * rhs
        else:  # div / rem
            if rhs == 0:
                return self._handle_trap(frame, inst,
                                         TrapKind.DIVIDE_BY_ZERO, 0)
            quotient = abs(lhs) // abs(rhs)
            if (lhs < 0) != (rhs < 0):
                quotient = -quotient
            if opcode == "div":
                raw = quotient
            else:
                raw = lhs - quotient * rhs
        wrapped = type_.wrap(raw)
        if wrapped != raw and inst.exceptions_enabled \
                and self.exceptions_dynamic:
            return self._handle_trap(frame, inst,
                                     TrapKind.INTEGER_OVERFLOW, 0)
        self._set(frame, inst, wrapped)
        frame.index += 1
        return _NO_RESULT

    def _exec_logical(self, frame: _Frame, inst):
        lhs = self._value(frame, inst.operand(0))
        rhs = self._value(frame, inst.operand(1))
        if inst.type.is_bool:
            lhs_bits, rhs_bits = int(lhs), int(rhs)
        else:
            lhs_bits, rhs_bits = lhs, rhs
        opcode = inst.opcode
        if opcode == "and":
            raw = lhs_bits & rhs_bits
        elif opcode == "or":
            raw = lhs_bits | rhs_bits
        else:
            raw = lhs_bits ^ rhs_bits
        if inst.type.is_bool:
            self._set(frame, inst, bool(raw & 1))
        else:
            self._set(frame, inst, inst.type.wrap(raw))
        frame.index += 1
        return _NO_RESULT

    def _exec_shift(self, frame: _Frame, inst):
        value = self._value(frame, inst.operand(0))
        amount = self._value(frame, inst.operand(1)) & (inst.type.bits - 1)
        if inst.opcode == "shl":
            raw = value << amount
        else:
            # shr: arithmetic for signed types, logical for unsigned.
            if inst.type.is_signed:
                raw = value >> amount
            else:
                raw = (value & ((1 << inst.type.bits) - 1)) >> amount
        self._set(frame, inst, inst.type.wrap(raw))
        frame.index += 1
        return _NO_RESULT

    def _exec_compare(self, frame: _Frame, inst):
        lhs = self._value(frame, inst.operand(0))
        rhs = self._value(frame, inst.operand(1))
        relation = inst.relation
        if relation == "eq":
            result = lhs == rhs
        elif relation == "ne":
            result = lhs != rhs
        elif relation == "lt":
            result = lhs < rhs
        elif relation == "gt":
            result = lhs > rhs
        elif relation == "le":
            result = lhs <= rhs
        else:
            result = lhs >= rhs
        self._set(frame, inst, bool(result))
        frame.index += 1
        return _NO_RESULT

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def _exec_load(self, frame: _Frame, inst: insts.LoadInst):
        address = self._value(frame, inst.pointer)
        value = self.memory.read_typed(int(address), inst.type)
        self._set(frame, inst, value)
        frame.index += 1
        return _NO_RESULT

    def _exec_store(self, frame: _Frame, inst: insts.StoreInst):
        address = self._value(frame, inst.pointer)
        value = self._value(frame, inst.value)
        self.memory.write_typed(int(address), inst.value.type, value)
        frame.index += 1
        return _NO_RESULT

    def _exec_gep(self, frame: _Frame, inst: insts.GetElementPtrInst):
        address = int(self._value(frame, inst.pointer))
        pointee = inst.pointer.type.pointee
        target = self.target
        current: types.Type = pointee
        for position, index_value in enumerate(inst.indices):
            index = int(self._value(frame, index_value))
            if position == 0:
                address += index * target.size_of(current)
            elif current.is_struct:
                address += target.struct_offsets(current)[index]
                current = current.fields[index]
            else:  # array
                address += index * target.size_of(current.element)
                current = current.element
        self._set(frame, inst, address & _pointer_mask(target))
        frame.index += 1
        return _NO_RESULT

    def _exec_alloca(self, frame: _Frame, inst: insts.AllocaInst):
        count = 1
        if inst.count is not None:
            count = int(self._value(frame, inst.count))
        size = self.target.size_of(inst.allocated_type) * max(count, 0)
        align = max(self.target.align_of(inst.allocated_type), 1)
        try:
            address = self.memory.push_frame(max(size, 1), align)
        except ExecutionTrap as trap:
            return self._handle_trap(frame, inst, trap.trap_number, 0,
                                     trap.detail, trap.unmaskable)
        self._set(frame, inst, address)
        frame.index += 1
        return _NO_RESULT

    # ------------------------------------------------------------------
    # Vector extension
    # ------------------------------------------------------------------
    #
    # Vector register values are plain tuples of lane values.  Every
    # executor walks lanes 0..L-1 in order and reuses the scalar
    # arithmetic helpers, so a vectorized loop is bit-identical to its
    # scalar original (including float association and per-lane fault
    # addresses) — the property the differential harness checks.

    def _exec_vbinary(self, frame: _Frame, inst):
        lhs = self._value(frame, inst.operand(0))
        rhs = self._value(frame, inst.operand(1))
        opcode = inst.opcode[1:]  # vadd -> add, ...
        element = inst.type.element
        if element.is_floating_point:
            result = tuple(_float_arith(opcode, a, b)
                           for a, b in zip(lhs, rhs))
            if element is _F32:
                result = tuple(_round_f32(v) for v in result)
        elif opcode == "add":
            result = tuple(element.wrap(a + b) for a, b in zip(lhs, rhs))
        elif opcode == "sub":
            result = tuple(element.wrap(a - b) for a, b in zip(lhs, rhs))
        else:
            result = tuple(element.wrap(a * b) for a, b in zip(lhs, rhs))
        observe.counter("vec.lanes", inst.type.lanes, engine="interp")
        self._set(frame, inst, result)
        frame.index += 1
        return _NO_RESULT

    def _exec_vsplat(self, frame: _Frame, inst):
        scalar = self._value(frame, inst.scalar)
        observe.counter("vec.lanes", inst.type.lanes, engine="interp")
        self._set(frame, inst, (scalar,) * inst.type.lanes)
        frame.index += 1
        return _NO_RESULT

    def _exec_vreduce(self, frame: _Frame, inst):
        acc = self._value(frame, inst.init)
        lanes = self._value(frame, inst.vector)
        kind = inst.kind
        element = inst.type
        if kind == "add":
            if element.is_floating_point:
                for lane in lanes:
                    acc = acc + lane
                    if element is _F32:
                        acc = _round_f32(acc)
            else:
                for lane in lanes:
                    acc = element.wrap(acc + lane)
        elif kind == "min":
            for lane in lanes:
                acc = lane if lane < acc else acc
        else:
            for lane in lanes:
                acc = lane if lane > acc else acc
        observe.counter("vec.lanes", len(lanes), engine="interp")
        self._set(frame, inst, acc)
        frame.index += 1
        return _NO_RESULT

    def _exec_vload(self, frame: _Frame, inst):
        address = int(self._value(frame, inst.pointer))
        element = inst.type.element
        stride = self.target.size_of(element)
        read = self.memory.read_typed
        result = tuple(read(address + i * stride, element)
                       for i in range(inst.type.lanes))
        observe.counter("vec.lanes", inst.type.lanes, engine="interp")
        self._set(frame, inst, result)
        frame.index += 1
        return _NO_RESULT

    def _exec_vstore(self, frame: _Frame, inst):
        address = int(self._value(frame, inst.pointer))
        value = self._value(frame, inst.value)
        element = inst.value.type.element
        stride = self.target.size_of(element)
        write = self.memory.write_typed
        for i, lane in enumerate(value):
            write(address + i * stride, element, lane)
        observe.counter("vec.lanes", len(value), engine="interp")
        frame.index += 1
        return _NO_RESULT

    # ------------------------------------------------------------------
    # Cast
    # ------------------------------------------------------------------

    def _exec_cast(self, frame: _Frame, inst: insts.CastInst):
        value = self._value(frame, inst.value)
        self._set(frame, inst,
                  cast_value(value, inst.value.type, inst.type, self.target))
        frame.index += 1
        return _NO_RESULT

    # ------------------------------------------------------------------
    # Intrinsics (Section 3.4, 3.5, 4.1)
    # ------------------------------------------------------------------

    def _call_intrinsic(self, frame: _Frame, name: str,
                        args: List[object]) -> object:
        from repro.ir.intrinsics import intrinsic_info

        info = intrinsic_info(name)
        if info.privileged and not self.privileged:
            raise ExecutionTrap(TrapKind.PRIVILEGE_VIOLATION,
                                "{0} requires the privileged bit".format(name))
        if name == "llva.trap.register":
            self.trap_handlers[int(args[0])] = int(args[1])
            return None
        if name == "llva.trap.raise":
            result = self._deliver_trap(frame, None,
                                        int(args[0]), int(args[1]))
            if result is not _NO_RESULT:  # pragma: no cover - defensive
                raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                    "trap handler returned a value")
            return None
        if name == "llva.exceptions.set":
            self.exceptions_dynamic = bool(args[0])
            return None
        if name == "llva.priv.enabled":
            return self.privileged
        if name == "llva.priv.set":
            self.privileged = bool(args[0])
            return None
        if name == "llva.register.read":
            return self._last_trap_registers.get(int(args[0]), 0) \
                & 0xFFFFFFFFFFFFFFFF
        if name == "llva.stack.depth":
            return len(self._frames) & 0xFFFFFFFF
        if name == "llva.stack.caller":
            level = int(args[0])
            index = len(self._frames) - 1 - level
            if index < 0:
                return 0
            function = self._frames[index].function
            return self.image.address_of(function.name)
        if name == "llva.pagetable.map":
            vaddr, _paddr, _prot = args
            if not self.memory.is_mapped(int(vaddr)):
                self.memory.add_region(int(vaddr), 4096)
            return None
        if name == "llva.pagetable.unmap":
            return None  # mappings are never physically reclaimed here
        if name == "llva.io.read":
            channel = self.io_channels.get(int(args[0]), [])
            return channel.pop(0) if channel else 0
        if name == "llva.io.write":
            self.io_channels.setdefault(int(args[0]), []).append(int(args[1]))
            return None
        if name == "llva.smc.replace":
            return self._intrinsic_smc_replace(args)
        if name == "llva.sec.register":
            return None
        if name == "llva.storage.register":
            # Recorded for LLEE; meaningless to a bare interpreter run.
            self.storage_api_address = int(args[0])
            return None
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                            "unimplemented intrinsic {0}".format(name))

    storage_api_address: int = 0

    def _intrinsic_smc_replace(self, args: List[object]) -> None:
        target_fn = self.image.function_at(int(args[0]))
        donor_fn = self.image.function_at(int(args[1]))
        if target_fn is None or donor_fn is None:
            raise ExecutionTrap(TrapKind.MEMORY_FAULT,
                                "llva.smc.replace of non-function address")
        target_fn.replace_body_from(donor_fn)
        for listener in self.smc_listeners:
            listener(target_fn)
        return None

    #: opcode -> executor, called as ``executor(interpreter, frame,
    #: inst)``.  Class-level: a per-instance table of bound methods
    #: would put every interpreter in a reference cycle.
    _dispatch: Dict[str, Callable] = {}


Interpreter._dispatch = {
    "add": Interpreter._exec_arith, "sub": Interpreter._exec_arith,
    "mul": Interpreter._exec_arith, "div": Interpreter._exec_arith,
    "rem": Interpreter._exec_arith,
    "and": Interpreter._exec_logical, "or": Interpreter._exec_logical,
    "xor": Interpreter._exec_logical,
    "shl": Interpreter._exec_shift, "shr": Interpreter._exec_shift,
    "seteq": Interpreter._exec_compare, "setne": Interpreter._exec_compare,
    "setlt": Interpreter._exec_compare, "setgt": Interpreter._exec_compare,
    "setle": Interpreter._exec_compare, "setge": Interpreter._exec_compare,
    "ret": Interpreter._exec_ret, "br": Interpreter._exec_br,
    "mbr": Interpreter._exec_mbr, "invoke": Interpreter._exec_call,
    "unwind": Interpreter._exec_unwind,
    "load": Interpreter._exec_load, "store": Interpreter._exec_store,
    "getelementptr": Interpreter._exec_gep,
    "alloca": Interpreter._exec_alloca,
    "cast": Interpreter._exec_cast, "call": Interpreter._exec_call,
    "phi": Interpreter._exec_phi_error,
    "vadd": Interpreter._exec_vbinary, "vsub": Interpreter._exec_vbinary,
    "vmul": Interpreter._exec_vbinary,
    "vsplat": Interpreter._exec_vsplat,
    "vreduce.add": Interpreter._exec_vreduce,
    "vreduce.min": Interpreter._exec_vreduce,
    "vreduce.max": Interpreter._exec_vreduce,
    "vload": Interpreter._exec_vload, "vstore": Interpreter._exec_vstore,
}


# Module-level sentinel: _run_loop keeps going while executors return this.
_NO_RESULT = object()


def _zero_of(type_: types.Type):
    """The defined default result for a masked-exception instruction."""
    if type_.is_vector:
        return (_zero_of(type_.element),) * type_.lanes
    if type_.is_floating_point:
        return 0.0
    if type_.is_bool:
        return False
    return 0


def cast_value(value, source: types.Type, dest: types.Type,
               target: types.TargetData):
    """The ``cast`` conversion matrix, shared with the constant folder."""
    if source is dest:
        return value
    if dest.is_bool:
        return bool(value)
    if dest.is_integer:
        if source.is_floating_point:
            if value != value or value in (float("inf"), float("-inf")):
                raw = 0  # NaN/inf to int is undefined in C; pin to zero
            else:
                raw = int(value)  # C-style truncation toward zero
        elif source.is_bool:
            raw = 1 if value else 0
        else:  # integer or pointer
            raw = int(value)
        return dest.wrap(raw)
    if dest.is_floating_point:
        if source.is_bool:
            result = 1.0 if value else 0.0
        else:
            result = float(value)
        if dest is _F32:
            result = _round_f32(result)
        return result
    if dest.is_pointer:
        if source.is_bool:
            return 1 if value else 0
        return int(value) & _pointer_mask(target)
    raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                        "invalid cast {0} -> {1}".format(source, dest))


def _pointer_mask(target: types.TargetData) -> int:
    return (1 << (target.pointer_size * 8)) - 1


def _float_arith(opcode: str, lhs: float, rhs: float) -> float:
    if opcode == "add":
        return lhs + rhs
    if opcode == "sub":
        return lhs - rhs
    if opcode == "mul":
        return lhs * rhs
    if opcode == "min":
        # The machine-level reduce fold: lhs is the accumulator, rhs the
        # lane.  `lane if lane REL acc else acc`, exactly as the
        # reference interpreter's vreduce walks lanes (keeps the
        # accumulator on a NaN lane).
        return rhs if rhs < lhs else lhs
    if opcode == "max":
        return rhs if rhs > lhs else lhs
    if opcode == "div":
        if rhs == 0.0:
            # IEEE: infinity / NaN, never a trap.
            if lhs == 0.0:
                return float("nan")
            return float("inf") if lhs > 0 else float("-inf")
        return lhs / rhs
    # rem: C fmod semantics (sign of the dividend).
    if rhs == 0.0:
        return float("nan")
    import math
    return math.fmod(lhs, rhs)


def _round_f32(value: float) -> float:
    import struct as _struct
    return _struct.unpack("<f", _struct.pack("<f", value))[0]

"""The LLVA instruction set — exactly the 28 instructions of Table 1.

=============  ==========================================================
Class          Instructions
=============  ==========================================================
arithmetic     ``add  sub  mul  div  rem``
bitwise        ``and  or  xor  shl  shr``
comparison     ``seteq  setne  setlt  setgt  setle  setge``
control-flow   ``ret  br  mbr  invoke  unwind``
memory         ``load  store  getelementptr  alloca``
other          ``cast  call  phi``
=============  ==========================================================

Every instruction is three-address with typed register/constant operands,
carries strict type rules ("no mixed-type operations", Section 3.1), and
carries the boolean ``ExceptionsEnabled`` attribute of Section 3.3 — true
by default only for ``load``, ``store`` and ``div``.

Instructions are themselves :class:`~repro.ir.values.Value`\\ s: the virtual
register an instruction defines *is* the instruction object, which directly
gives the SSA property (every register has exactly one definition).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.ir import types, values
from repro.ir.types import LlvaTypeError, Type
from repro.ir.values import Constant, ConstantInt, User, Value

#: The full opcode inventory, grouped exactly as the paper's Table 1.
OPCODE_GROUPS = {
    "arithmetic": ("add", "sub", "mul", "div", "rem"),
    "bitwise": ("and", "or", "xor", "shl", "shr"),
    "comparison": ("seteq", "setne", "setlt", "setgt", "setle", "setge"),
    "control-flow": ("ret", "br", "mbr", "invoke", "unwind"),
    "memory": ("load", "store", "getelementptr", "alloca"),
    "other": ("cast", "call", "phi"),
    # The vector extension rides after the paper's 28 opcodes so the
    # bitcode opcode indices of the base ISA never move.
    "vector": ("vadd", "vsub", "vmul", "vsplat",
               "vreduce.add", "vreduce.min", "vreduce.max",
               "vload", "vstore"),
}

#: Flat tuple of every opcode: the 28 of Table 1 plus the vector extension.
ALL_OPCODES: Tuple[str, ...] = tuple(
    op for group in OPCODE_GROUPS.values() for op in group)

#: The vector-extension opcodes.
VECTOR_OPCODES: Tuple[str, ...] = OPCODE_GROUPS["vector"]

#: Opcodes whose ExceptionsEnabled attribute defaults to true (Section 3.3).
#: vload/vstore inherit the memory-access default of load/store.
DEFAULT_EXCEPTIONS_ENABLED = frozenset(
    {"load", "store", "div", "vload", "vstore"})

#: Opcodes that terminate a basic block.
TERMINATOR_OPCODES = frozenset({"ret", "br", "mbr", "invoke", "unwind"})


class Instruction(User):
    """Base class of all LLVA instructions."""

    __slots__ = ("opcode", "parent", "exceptions_enabled")

    #: Overridden by each concrete subclass.
    OPCODE: str = ""

    def __init__(self, type_: Type, operands: Sequence[Value],
                 name: Optional[str] = None):
        super().__init__(type_, operands, name)
        self.opcode = self.OPCODE
        self.parent = None  # the owning BasicBlock, set on insertion
        self.exceptions_enabled = self.OPCODE in DEFAULT_EXCEPTIONS_ENABLED

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    @property
    def produces_value(self) -> bool:
        return not self.type.is_void

    @property
    def function(self):
        """The function containing this instruction (or None)."""
        return self.parent.parent if self.parent is not None else None

    def may_raise(self) -> bool:
        """Whether executing this instruction can deliver an exception,
        given its current ``ExceptionsEnabled`` setting."""
        return self.exceptions_enabled and bool(self.possible_exceptions())

    def possible_exceptions(self) -> Tuple[str, ...]:
        """The set of exception conditions this opcode defines (Section
        3.3: "Each LLVA instruction defines a set of possible
        exceptions")."""
        return ()

    def has_side_effects(self) -> bool:
        """True if the instruction must be kept even when its value is
        unused (stores, calls, terminators, potential traps)."""
        return self.is_terminator or self.may_raise()

    def erase(self) -> None:
        """Unlink from the parent block and drop operand references."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    def successors(self) -> Tuple["Value", ...]:
        """Successor blocks (terminators only)."""
        return ()

    def __repr__(self) -> str:
        return "<{0} {1}>".format(type(self).__name__, self.opcode)


# ---------------------------------------------------------------------------
# Arithmetic and bitwise
# ---------------------------------------------------------------------------

class BinaryInst(Instruction):
    """Shared base for the three-address binary operations."""

    __slots__ = ()

    def __init__(self, lhs: Value, rhs: Value, name: Optional[str] = None):
        self._check_operand_types(lhs, rhs)
        super().__init__(lhs.type, (lhs, rhs), name)

    def _check_operand_types(self, lhs: Value, rhs: Value) -> None:
        if lhs.type is not rhs.type:
            raise LlvaTypeError(
                "{0}: mixed operand types {1} and {2} (no implicit "
                "coercion in LLVA)".format(self.OPCODE, lhs.type, rhs.type))

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    @property
    def is_commutative(self) -> bool:
        return self.OPCODE in ("add", "mul", "and", "or", "xor")


class ArithmeticInst(BinaryInst):
    """``add``, ``sub``, ``mul``, ``div``, ``rem`` on int or fp operands."""

    __slots__ = ()

    def _check_operand_types(self, lhs: Value, rhs: Value) -> None:
        super()._check_operand_types(lhs, rhs)
        if not lhs.type.is_arithmetic:
            raise LlvaTypeError(
                "{0} requires integer or floating-point operands, got {1}"
                .format(self.OPCODE, lhs.type))

    def possible_exceptions(self) -> Tuple[str, ...]:
        if self.OPCODE in ("div", "rem"):
            if self.type.is_integer:
                return ("divide-by-zero",)
            return ()
        if self.type.is_integer:
            return ("integer-overflow",)
        return ()


class AddInst(ArithmeticInst):
    OPCODE = "add"
    __slots__ = ()


class SubInst(ArithmeticInst):
    OPCODE = "sub"
    __slots__ = ()


class MulInst(ArithmeticInst):
    OPCODE = "mul"
    __slots__ = ()


class DivInst(ArithmeticInst):
    OPCODE = "div"
    __slots__ = ()


class RemInst(ArithmeticInst):
    OPCODE = "rem"
    __slots__ = ()


class LogicalInst(BinaryInst):
    """``and``, ``or``, ``xor`` on integer or bool operands."""

    __slots__ = ()

    def _check_operand_types(self, lhs: Value, rhs: Value) -> None:
        super()._check_operand_types(lhs, rhs)
        if not (lhs.type.is_integer or lhs.type.is_bool):
            raise LlvaTypeError(
                "{0} requires integral operands, got {1}"
                .format(self.OPCODE, lhs.type))


class AndInst(LogicalInst):
    OPCODE = "and"
    __slots__ = ()


class OrInst(LogicalInst):
    OPCODE = "or"
    __slots__ = ()


class XorInst(LogicalInst):
    OPCODE = "xor"
    __slots__ = ()


class ShiftInst(BinaryInst):
    """``shl``/``shr``: shift an integer by a ``ubyte`` amount.

    ``shr`` is arithmetic for signed operands and logical for unsigned —
    signedness lives in the type, not the opcode.
    """

    __slots__ = ()

    def _check_operand_types(self, lhs: Value, rhs: Value) -> None:
        if not lhs.type.is_integer:
            raise LlvaTypeError(
                "{0} requires an integer first operand, got {1}"
                .format(self.OPCODE, lhs.type))
        if rhs.type is not types.UBYTE:
            raise LlvaTypeError(
                "{0} shift amount must be ubyte, got {1}"
                .format(self.OPCODE, rhs.type))


class ShlInst(ShiftInst):
    OPCODE = "shl"
    __slots__ = ()


class ShrInst(ShiftInst):
    OPCODE = "shr"
    __slots__ = ()


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

class CompareInst(BinaryInst):
    """``seteq``/``setne``/``setlt``/``setgt``/``setle``/``setge``.

    Operands share any scalar type; the result is always ``bool``.
    """

    __slots__ = ()

    def __init__(self, lhs: Value, rhs: Value, name: Optional[str] = None):
        self._check_operand_types(lhs, rhs)
        # Skip BinaryInst.__init__ so the result type is bool, not lhs.type.
        Instruction.__init__(self, types.BOOL, (lhs, rhs), name)

    def _check_operand_types(self, lhs: Value, rhs: Value) -> None:
        if lhs.type is not rhs.type:
            raise LlvaTypeError(
                "{0}: mixed operand types {1} and {2}"
                .format(self.OPCODE, lhs.type, rhs.type))
        if not lhs.type.is_scalar:
            raise LlvaTypeError(
                "{0} requires scalar operands, got {1}"
                .format(self.OPCODE, lhs.type))

    @property
    def is_commutative(self) -> bool:
        return self.OPCODE in ("seteq", "setne")

    @property
    def relation(self) -> str:
        """The comparison relation: ``eq ne lt gt le ge``."""
        return self.OPCODE[3:]


class SetEqInst(CompareInst):
    OPCODE = "seteq"
    __slots__ = ()


class SetNeInst(CompareInst):
    OPCODE = "setne"
    __slots__ = ()


class SetLtInst(CompareInst):
    OPCODE = "setlt"
    __slots__ = ()


class SetGtInst(CompareInst):
    OPCODE = "setgt"
    __slots__ = ()


class SetLeInst(CompareInst):
    OPCODE = "setle"
    __slots__ = ()


class SetGeInst(CompareInst):
    OPCODE = "setge"
    __slots__ = ()


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------

class RetInst(Instruction):
    """``ret void`` or ``ret <type> <value>``."""

    OPCODE = "ret"
    __slots__ = ()

    def __init__(self, value: Optional[Value] = None):
        operands = () if value is None else (value,)
        super().__init__(types.VOID, operands)

    @property
    def return_value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None


class BranchInst(Instruction):
    """``br label %dest`` or ``br bool %cond, label %then, label %else``."""

    OPCODE = "br"
    __slots__ = ()

    def __init__(self, *, target: Optional[Value] = None,
                 condition: Optional[Value] = None,
                 if_true: Optional[Value] = None,
                 if_false: Optional[Value] = None):
        if condition is None:
            if target is None or if_true is not None or if_false is not None:
                raise LlvaTypeError("unconditional br takes a single target")
            _require_label(target)
            operands: Tuple[Value, ...] = (target,)
        else:
            if target is not None or if_true is None or if_false is None:
                raise LlvaTypeError(
                    "conditional br takes a condition and two targets")
            if condition.type is not types.BOOL:
                raise LlvaTypeError("br condition must be bool, got {0}"
                                    .format(condition.type))
            _require_label(if_true)
            _require_label(if_false)
            operands = (condition, if_true, if_false)
        super().__init__(types.VOID, operands)

    @property
    def is_conditional(self) -> bool:
        return self.num_operands == 3

    @property
    def condition(self) -> Optional[Value]:
        return self.operand(0) if self.is_conditional else None

    def successors(self) -> Tuple[Value, ...]:
        if self.is_conditional:
            return (self.operand(1), self.operand(2))
        return (self.operand(0),)


class MultiwayBranchInst(Instruction):
    """``mbr`` — the multi-way branch (switch) on an integer value.

    Operand layout: ``[value, default_label, case_const0, case_label0,
    case_const1, case_label1, ...]``.
    """

    OPCODE = "mbr"
    __slots__ = ()

    def __init__(self, value: Value, default: Value,
                 cases: Sequence[Tuple[ConstantInt, Value]] = ()):
        if not value.type.is_integer:
            raise LlvaTypeError(
                "mbr requires an integer selector, got {0}"
                .format(value.type))
        _require_label(default)
        operands: List[Value] = [value, default]
        for case_value, case_label in cases:
            if not isinstance(case_value, ConstantInt):
                raise LlvaTypeError("mbr case values must be constant ints")
            if case_value.type is not value.type:
                raise LlvaTypeError(
                    "mbr case type {0} does not match selector type {1}"
                    .format(case_value.type, value.type))
            _require_label(case_label)
            operands.append(case_value)
            operands.append(case_label)
        super().__init__(types.VOID, operands)

    @property
    def selector(self) -> Value:
        return self.operand(0)

    @property
    def default(self) -> Value:
        return self.operand(1)

    def cases(self) -> Iterator[Tuple[ConstantInt, Value]]:
        for index in range(2, self.num_operands, 2):
            yield self.operand(index), self.operand(index + 1)

    @property
    def num_cases(self) -> int:
        return (self.num_operands - 2) // 2

    def successors(self) -> Tuple[Value, ...]:
        return (self.default,) + tuple(label for _v, label in self.cases())


class CallInst(Instruction):
    """``call`` through a function or function-pointer operand.

    Operand layout: ``[callee, arg0, arg1, ...]``.  The abstract calling
    convention of Section 3.2: no explicit argument registers, stack
    adjustment, or save/restore code — the translator synthesizes all of
    it.
    """

    OPCODE = "call"
    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value],
                 name: Optional[str] = None):
        signature = _callee_signature(callee)
        _check_call_args(signature, args)
        super().__init__(signature.return_type, (callee,) + tuple(args),
                         name)

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    @property
    def signature(self) -> types.FunctionType:
        return _callee_signature(self.callee)


class InvokeInst(Instruction):
    """``invoke``: a call with explicit exceptional control flow.

    Operand layout: ``[callee, normal_label, unwind_label, arg0, ...]``.
    If the callee (or anything it calls) executes ``unwind``, control
    resumes at *unwind_label* instead of *normal_label* (Section 3.1:
    source-language exceptions via explicit, portable stack unwinding).
    """

    OPCODE = "invoke"
    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value],
                 normal: Value, unwind: Value, name: Optional[str] = None):
        signature = _callee_signature(callee)
        _check_call_args(signature, args)
        _require_label(normal)
        _require_label(unwind)
        super().__init__(signature.return_type,
                         (callee, normal, unwind) + tuple(args), name)

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def normal_dest(self) -> Value:
        return self.operand(1)

    @property
    def unwind_dest(self) -> Value:
        return self.operand(2)

    @property
    def args(self) -> Tuple[Value, ...]:
        return self.operands[3:]

    @property
    def signature(self) -> types.FunctionType:
        return _callee_signature(self.callee)

    def successors(self) -> Tuple[Value, ...]:
        return (self.normal_dest, self.unwind_dest)


class UnwindInst(Instruction):
    """``unwind``: pop frames to the dynamically-nearest ``invoke``."""

    OPCODE = "unwind"
    __slots__ = ()

    def __init__(self):
        super().__init__(types.VOID, ())


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

class LoadInst(Instruction):
    """``load <type>* %ptr`` — the only way to read memory."""

    OPCODE = "load"
    __slots__ = ()

    def __init__(self, pointer: Value, name: Optional[str] = None):
        pointee = _require_pointer(pointer, "load")
        if not pointee.is_scalar:
            raise LlvaTypeError(
                "load result must be scalar, got {0}".format(pointee))
        super().__init__(pointee, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    def possible_exceptions(self) -> Tuple[str, ...]:
        return ("memory-fault",)


class StoreInst(Instruction):
    """``store <type> %value, <type>* %ptr`` — the only way to write."""

    OPCODE = "store"
    __slots__ = ()

    def __init__(self, value: Value, pointer: Value):
        pointee = _require_pointer(pointer, "store")
        if value.type is not pointee:
            raise LlvaTypeError(
                "store of {0} through pointer to {1}"
                .format(value.type, pointee))
        super().__init__(types.VOID, (value, pointer))

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)

    def possible_exceptions(self) -> Tuple[str, ...]:
        return ("memory-fault",)

    def has_side_effects(self) -> bool:
        return True


class GetElementPtrInst(Instruction):
    """``getelementptr`` — typed, target-independent pointer arithmetic.

    Offsets are expressed symbolically: array steps are ``long``/``uint``
    register or constant indices, structure steps are constant ``ubyte``
    field numbers (Section 3.1's example indexes ``%T`` with
    ``long 0, ubyte 1, long 3``).  The translator — and only the
    translator — turns these into byte offsets using the target's pointer
    size and struct layout, which is what makes type-safe LLVA code
    portable across 32- and 64-bit implementations (Section 3.2).
    """

    OPCODE = "getelementptr"
    __slots__ = ()

    def __init__(self, pointer: Value, indices: Sequence[Value],
                 name: Optional[str] = None):
        pointee = _require_pointer(pointer, "getelementptr")
        if not indices:
            raise LlvaTypeError("getelementptr requires at least one index")
        result = self._walk_indices(pointee, indices)
        super().__init__(types.pointer_to(result),
                         (pointer,) + tuple(indices), name)

    @staticmethod
    def _walk_indices(pointee: types.Type,
                      indices: Sequence[Value]) -> types.Type:
        current = pointee
        for position, index in enumerate(indices):
            if position == 0:
                # The leading index steps over whole objects of the
                # pointee type; the type does not change.
                if not index.type.is_integer:
                    raise LlvaTypeError(
                        "gep index 0 must be an integer, got {0}"
                        .format(index.type))
                continue
            if current.is_struct:
                if (not isinstance(index, ConstantInt)
                        or index.type is not types.UBYTE):
                    raise LlvaTypeError(
                        "gep struct index must be a constant ubyte")
                field_number = index.value
                fields = current.fields  # type: ignore[attr-defined]
                if not 0 <= field_number < len(fields):
                    raise LlvaTypeError(
                        "gep field number {0} out of range for {1}"
                        .format(field_number, current))
                current = fields[field_number]
            elif current.is_array:
                if not index.type.is_integer:
                    raise LlvaTypeError(
                        "gep array index must be an integer, got {0}"
                        .format(index.type))
                current = current.element  # type: ignore[attr-defined]
            else:
                raise LlvaTypeError(
                    "gep cannot index into {0}".format(current))
        return current

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> Tuple[Value, ...]:
        return self.operands[1:]

    def constant_indices(self) -> Optional[Tuple[int, ...]]:
        """The index chain as plain ints if fully constant, else None."""
        out: List[int] = []
        for index in self.indices:
            if not isinstance(index, ConstantInt):
                return None
            out.append(index.value)
        return tuple(out)


class AllocaInst(Instruction):
    """``alloca <type>[, uint <n>]`` — explicit stack allocation.

    Returns a typed pointer into the current frame.  Section 3.2: "the
    translator preallocates all fixed-size alloca objects in the
    function's stack frame at compile time"; our code generators do
    exactly that, and only dynamic allocas adjust the stack pointer at
    run time.
    """

    OPCODE = "alloca"
    __slots__ = ("allocated_type",)

    def __init__(self, allocated_type: Type, count: Optional[Value] = None,
                 name: Optional[str] = None):
        if not (allocated_type.is_scalar or allocated_type.is_array
                or allocated_type.is_struct):
            raise LlvaTypeError(
                "cannot alloca type {0}".format(allocated_type))
        operands: Tuple[Value, ...] = ()
        if count is not None:
            if count.type is not types.UINT:
                raise LlvaTypeError(
                    "alloca count must be uint, got {0}".format(count.type))
            operands = (count,)
        super().__init__(types.pointer_to(allocated_type), operands, name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None

    @property
    def is_static(self) -> bool:
        """Fixed-size alloca, preallocatable in the frame at translate
        time."""
        return self.count is None or isinstance(self.count, ConstantInt)

    def possible_exceptions(self) -> Tuple[str, ...]:
        return ("stack-overflow",)


# ---------------------------------------------------------------------------
# Other
# ---------------------------------------------------------------------------

class CastInst(Instruction):
    """``cast <value> to <type>`` — the sole type-conversion mechanism.

    There is no implicit coercion anywhere in LLVA; every conversion
    (integer widening/narrowing, int<->fp, int<->pointer, pointer<->
    pointer) is an explicit cast (Section 3.1).
    """

    OPCODE = "cast"
    __slots__ = ()

    def __init__(self, value: Value, target_type: Type,
                 name: Optional[str] = None):
        if not value.type.is_scalar:
            raise LlvaTypeError(
                "cast source must be scalar, got {0}".format(value.type))
        if not target_type.is_scalar:
            raise LlvaTypeError(
                "cast target must be scalar, got {0}".format(target_type))
        if value.type.is_floating_point and target_type.is_pointer:
            raise LlvaTypeError("cannot cast floating point to pointer")
        if value.type.is_pointer and target_type.is_floating_point:
            raise LlvaTypeError("cannot cast pointer to floating point")
        super().__init__(target_type, (value,), name)

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def is_noop(self) -> bool:
        """True for casts the translator drops entirely (same type, or
        pointer-to-pointer)."""
        source = self.value.type
        return source is self.type or (source.is_pointer
                                       and self.type.is_pointer)

    @property
    def preserves_value(self) -> bool:
        """True for casts whose result is their operand's value: the
        no-op casts, and an integer widening that keeps signedness or
        goes from unsigned to a wider signed type (every value of the
        source type is one of the destination type)."""
        if self.is_noop:
            return True
        source = self.value.type
        dest = self.type
        return source.is_integer and dest.is_integer \
            and dest.bits > source.bits \
            and (dest.is_signed or not source.is_signed)


class PhiInst(Instruction):
    """``phi`` — SSA merge of values at control-flow join points.

    Operand layout: ``[value0, block0, value1, block1, ...]``.  The
    translator eliminates phis by placing copies in predecessor blocks
    (Section 3.1); see :mod:`repro.targets.codegen`.
    """

    OPCODE = "phi"
    __slots__ = ()

    def __init__(self, type_: Type,
                 incoming: Sequence[Tuple[Value, Value]] = (),
                 name: Optional[str] = None):
        if not type_.is_scalar:
            raise LlvaTypeError(
                "phi type must be scalar, got {0}".format(type_))
        operands: List[Value] = []
        for value, block in incoming:
            self._check_incoming(type_, value, block)
            operands.append(value)
            operands.append(block)
        super().__init__(type_, operands, name)

    @staticmethod
    def _check_incoming(type_: Type, value: Value, block: Value) -> None:
        if value.type is not type_:
            raise LlvaTypeError(
                "phi incoming value has type {0}, expected {1}"
                .format(value.type, type_))
        _require_label(block)

    def add_incoming(self, value: Value, block: Value) -> None:
        self._check_incoming(self.type, value, block)
        self._append_operand(value)
        self._append_operand(block)

    @property
    def num_incoming(self) -> int:
        return self.num_operands // 2

    def incoming(self) -> Iterator[Tuple[Value, Value]]:
        for index in range(0, self.num_operands, 2):
            yield self.operand(index), self.operand(index + 1)

    def incoming_for_block(self, block: Value) -> Optional[Value]:
        for value, pred in self.incoming():
            if pred is block:
                return value
        return None

    def remove_incoming(self, block: Value) -> None:
        """Drop the edge from *block* (used by CFG simplification)."""
        pairs = [(v, b) for v, b in self.incoming() if b is not block]
        self._pop_operands(0)
        for value, pred in pairs:
            self._append_operand(value)
            self._append_operand(pred)


# ---------------------------------------------------------------------------
# Vector extension
# ---------------------------------------------------------------------------

class VectorBinaryInst(BinaryInst):
    """``vadd``/``vsub``/``vmul`` — element-wise arithmetic on vectors.

    Both operands and the result share one vector type.  Integer lanes wrap
    like scalar arithmetic with ``ExceptionsEnabled`` off, so a vectorized
    loop computes bit-identical results to its scalar original.
    """

    __slots__ = ()

    def _check_operand_types(self, lhs: Value, rhs: Value) -> None:
        super()._check_operand_types(lhs, rhs)
        if not lhs.type.is_vector:
            raise LlvaTypeError(
                "{0} requires vector operands, got {1}"
                .format(self.OPCODE, lhs.type))


class VAddInst(VectorBinaryInst):
    OPCODE = "vadd"
    __slots__ = ()


class VSubInst(VectorBinaryInst):
    OPCODE = "vsub"
    __slots__ = ()


class VMulInst(VectorBinaryInst):
    OPCODE = "vmul"
    __slots__ = ()


class VSplatInst(Instruction):
    """``vsplat <L x T> %scalar`` — broadcast a scalar into every lane."""

    OPCODE = "vsplat"
    __slots__ = ()

    def __init__(self, vector_type: Type, scalar: Value,
                 name: Optional[str] = None):
        if not vector_type.is_vector:
            raise LlvaTypeError(
                "vsplat result must be a vector, got {0}".format(vector_type))
        if scalar.type is not vector_type.element:  # type: ignore[attr-defined]
            raise LlvaTypeError(
                "vsplat of {0} into {1} lanes"
                .format(scalar.type, vector_type))
        super().__init__(vector_type, (scalar,), name)

    @property
    def scalar(self) -> Value:
        return self.operand(0)


class VReduceInst(Instruction):
    """``vreduce.add/min/max T %init, <L x T> %v`` — ordered lane fold.

    Folds lanes left-to-right into the scalar *init* accumulator:
    ``((((init op v0) op v1) ...) op vL-1)``.  The explicit initial value
    and the fixed lane order make a reduction bit-identical to the scalar
    accumulation loop it replaces — floating-point association is
    preserved, which the differential harness depends on.
    """

    __slots__ = ()

    def __init__(self, init: Value, vector: Value,
                 name: Optional[str] = None):
        if not vector.type.is_vector:
            raise LlvaTypeError(
                "{0} requires a vector operand, got {1}"
                .format(self.OPCODE, vector.type))
        element = vector.type.element  # type: ignore[attr-defined]
        if init.type is not element:
            raise LlvaTypeError(
                "{0} accumulator has type {1}, vector lanes are {2}"
                .format(self.OPCODE, init.type, element))
        super().__init__(element, (init, vector), name)

    @property
    def init(self) -> Value:
        return self.operand(0)

    @property
    def vector(self) -> Value:
        return self.operand(1)

    @property
    def kind(self) -> str:
        """The fold operation: ``add``, ``min``, or ``max``."""
        return self.OPCODE.rsplit(".", 1)[1]


class VReduceAddInst(VReduceInst):
    OPCODE = "vreduce.add"
    __slots__ = ()


class VReduceMinInst(VReduceInst):
    OPCODE = "vreduce.min"
    __slots__ = ()


class VReduceMaxInst(VReduceInst):
    OPCODE = "vreduce.max"
    __slots__ = ()


class VLoadInst(Instruction):
    """``vload <L x T>, T* %ptr`` — load L contiguous lanes.

    Reads lanes 0..L-1 from ``ptr + i*sizeof(T)`` in ascending order; a
    fault on any lane delivers the memory-fault exception with that lane's
    address, exactly as the equivalent scalar load sequence would.
    """

    OPCODE = "vload"
    __slots__ = ()

    def __init__(self, vector_type: Type, pointer: Value,
                 name: Optional[str] = None):
        if not vector_type.is_vector:
            raise LlvaTypeError(
                "vload result must be a vector, got {0}".format(vector_type))
        pointee = _require_pointer(pointer, "vload")
        if pointee is not vector_type.element:  # type: ignore[attr-defined]
            raise LlvaTypeError(
                "vload of {0} through pointer to {1}"
                .format(vector_type, pointee))
        super().__init__(vector_type, (pointer,), name)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    def possible_exceptions(self) -> Tuple[str, ...]:
        return ("memory-fault",)


class VStoreInst(Instruction):
    """``vstore <L x T> %v, T* %ptr`` — store L contiguous lanes.

    Writes lanes in ascending order with the same per-lane fault rule as
    :class:`VLoadInst`.
    """

    OPCODE = "vstore"
    __slots__ = ()

    def __init__(self, value: Value, pointer: Value):
        if not value.type.is_vector:
            raise LlvaTypeError(
                "vstore requires a vector value, got {0}".format(value.type))
        pointee = _require_pointer(pointer, "vstore")
        if pointee is not value.type.element:  # type: ignore[attr-defined]
            raise LlvaTypeError(
                "vstore of {0} through pointer to {1}"
                .format(value.type, pointee))
        super().__init__(types.VOID, (value, pointer))

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)

    def possible_exceptions(self) -> Tuple[str, ...]:
        return ("memory-fault",)

    def has_side_effects(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _require_label(value: Value) -> None:
    if value.type is not types.LABEL:
        raise LlvaTypeError(
            "expected a basic-block label, got {0}".format(value.type))


def _require_pointer(value: Value, opcode: str) -> Type:
    if not value.type.is_pointer:
        raise LlvaTypeError(
            "{0} requires a pointer operand, got {1}"
            .format(opcode, value.type))
    return value.type.pointee  # type: ignore[attr-defined]


def _callee_signature(callee: Value) -> types.FunctionType:
    type_ = callee.type
    if type_.is_pointer:
        type_ = type_.pointee  # type: ignore[attr-defined]
    if not type_.is_function:
        raise LlvaTypeError(
            "call target must be a function (pointer), got {0}"
            .format(callee.type))
    return type_  # type: ignore[return-value]


def _check_call_args(signature: types.FunctionType,
                     args: Sequence[Value]) -> None:
    if signature.vararg:
        if len(args) < len(signature.params):
            raise LlvaTypeError(
                "call passes {0} args, callee requires at least {1}"
                .format(len(args), len(signature.params)))
    elif len(args) != len(signature.params):
        raise LlvaTypeError(
            "call passes {0} args, callee takes {1}"
            .format(len(args), len(signature.params)))
    for position, (arg, param) in enumerate(zip(args, signature.params)):
        if arg.type is not param:
            raise LlvaTypeError(
                "call argument {0} has type {1}, parameter is {2}"
                .format(position, arg.type, param))


#: Map from opcode to the implementing class, for the parser and bitcode
#: reader.
INSTRUCTION_CLASSES = {
    cls.OPCODE: cls
    for cls in (
        AddInst, SubInst, MulInst, DivInst, RemInst,
        AndInst, OrInst, XorInst, ShlInst, ShrInst,
        SetEqInst, SetNeInst, SetLtInst, SetGtInst, SetLeInst, SetGeInst,
        RetInst, BranchInst, MultiwayBranchInst, InvokeInst, UnwindInst,
        LoadInst, StoreInst, GetElementPtrInst, AllocaInst,
        CastInst, CallInst, PhiInst,
        VAddInst, VSubInst, VMulInst, VSplatInst,
        VReduceAddInst, VReduceMinInst, VReduceMaxInst,
        VLoadInst, VStoreInst,
    )
}

VECTOR_BINARY_CLASSES = {
    "vadd": VAddInst, "vsub": VSubInst, "vmul": VMulInst,
}

VREDUCE_CLASSES = {
    "vreduce.add": VReduceAddInst,
    "vreduce.min": VReduceMinInst,
    "vreduce.max": VReduceMaxInst,
}

COMPARE_CLASSES = {
    "eq": SetEqInst, "ne": SetNeInst, "lt": SetLtInst,
    "gt": SetGtInst, "le": SetLeInst, "ge": SetGeInst,
}

BINARY_CLASSES = {
    "add": AddInst, "sub": SubInst, "mul": MulInst, "div": DivInst,
    "rem": RemInst, "and": AndInst, "or": OrInst, "xor": XorInst,
    "shl": ShlInst, "shr": ShrInst,
}

"""Values, constants, and def-use chains for LLVA IR.

Everything an instruction can refer to is a :class:`Value`: constants,
function arguments, global symbols, basic blocks (as branch targets) and
other instructions (the register they define).  LLVA's "infinite, typed
register file in SSA form" (Section 3.1) falls out of this structure: each
instruction that produces a value *is* the unique definition of its virtual
register.

Values track their users eagerly (def-use chains), which is what makes the
sparse SSA optimizations of Section 5.1 — constant propagation, dead code
elimination, value numbering — efficient.  All operand mutation must go
through :meth:`User.set_operand` / :meth:`Value.replace_all_uses_with` so
the chains stay consistent; the verifier cross-checks them.

Constants other than global symbols keep no use list
(:attr:`Value.records_uses` is false).  ``const_int``, ``TRUE``/``FALSE``
and the null/undef/zero constants are interned once per process, so a
use list on them would collect every instruction of every module ever
built: it would keep all those modules alive and make each
:meth:`User.set_operand` and verifier pass slower as the process ages.
No transform needs to find the users of a literal; functions and global
variables do keep their uses (call graph, global optimisation, inlining).
"""

from __future__ import annotations

import struct as _struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir import types
from repro.ir.types import Type


class Use:
    """One operand slot of one user: the edge of a def-use chain."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return "<use #{0} of {1!r}>".format(self.index, self.user)


class Value:
    """Base class for everything that can appear as an operand."""

    __slots__ = ("type", "name", "uses", "__weakref__")

    #: Whether operand slots that refer to this value are recorded in
    #: :attr:`uses`.  False for literal constants, which are shared.
    records_uses = True

    def __init__(self, type_: Type, name: Optional[str] = None):
        self.type = type_
        self.name = name
        self.uses: List[Use] = []

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    def users(self) -> Iterator["User"]:
        """Iterate the users of this value (a user with several operand
        slots referring to this value appears once per slot)."""
        for use in self.uses:
            yield use.user

    def has_uses(self) -> bool:
        return bool(self.uses)

    def replace_all_uses_with(self, replacement: "Value") -> int:
        """Rewrite every use of ``self`` to refer to *replacement*.

        Returns the number of operand slots rewritten.  This is the
        workhorse of SSA rewriting (constant propagation, GVN, mem2reg).
        Raises ``TypeError`` for a value that records no uses: an
        interned constant's users span every module in the process.
        """
        if replacement is self:
            raise ValueError("cannot replace a value with itself")
        if not self.records_uses:
            raise TypeError(
                "{0!r} records no uses; rewrite its users directly"
                .format(self))
        count = 0
        # set_operand mutates self.uses; iterate over a snapshot.
        for use in list(self.uses):
            use.user.set_operand(use.index, replacement)
            count += 1
        return count

    def ref(self) -> str:
        """Short printable reference, e.g. ``%tmp.1`` or ``int 4``."""
        if self.name is not None:
            return "%{0}".format(self.name)
        return "%<unnamed>"

    def __repr__(self) -> str:
        return "<{0} {1}>".format(type(self).__name__, self.ref())


class User(Value):
    """A value that uses other values as operands."""

    __slots__ = ("_operands",)

    def __init__(self, type_: Type, operands: Sequence[Value],
                 name: Optional[str] = None):
        super().__init__(type_, name)
        self._operands: List[Value] = []
        for operand in operands:
            self._append_operand(operand)

    @property
    def operands(self) -> Tuple[Value, ...]:
        return tuple(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def set_operand(self, index: int, value: Value) -> None:
        """Replace operand *index*, keeping use lists consistent."""
        old = self._operands[index]
        if old is value:
            return
        self._remove_use(old, index)
        self._operands[index] = value
        if value.records_uses:
            value.uses.append(Use(self, index))

    def _append_operand(self, value: Value) -> None:
        index = len(self._operands)
        self._operands.append(value)
        if value.records_uses:
            value.uses.append(Use(self, index))

    def _pop_operands(self, start: int) -> None:
        """Drop operands from *start* to the end (phi edge removal)."""
        while len(self._operands) > start:
            index = len(self._operands) - 1
            self._remove_use(self._operands[index], index)
            self._operands.pop()

    def _remove_use(self, value: Value, index: int) -> None:
        if not value.records_uses:
            return
        for position, use in enumerate(value.uses):
            if use.user is self and use.index == index:
                del value.uses[position]
                return
        raise RuntimeError(
            "def-use chains corrupted: {0!r} not a use of {1!r}"
            .format(self, value))

    def drop_all_references(self) -> None:
        """Detach this user from all of its operands (before deletion)."""
        self._pop_operands(0)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

class Constant(Value):
    """Base class for compile-time constant values."""

    __slots__ = ()

    records_uses = False

    def ref(self) -> str:
        return "{0} {1}".format(self.type, self.literal())

    def literal(self) -> str:
        """The operand spelling without the leading type."""
        raise NotImplementedError


class ConstantInt(Constant):
    """An integer constant of a specific integer type."""

    __slots__ = ("value",)

    def __init__(self, type_: types.IntegerType, value: int):
        if not type_.is_integer:
            raise types.LlvaTypeError(
                "ConstantInt requires an integer type, got {0}".format(type_))
        if not (type_.min_value <= value <= type_.max_value):
            raise types.LlvaTypeError(
                "{0} does not fit in {1}".format(value, type_))
        super().__init__(type_)
        self.value = value

    def literal(self) -> str:
        return str(self.value)


class ConstantBool(Constant):
    """``bool true`` / ``bool false``."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        super().__init__(types.BOOL)
        self.value = bool(value)

    def literal(self) -> str:
        return "true" if self.value else "false"


class ConstantFP(Constant):
    """A floating-point constant (float or double)."""

    __slots__ = ("value",)

    def __init__(self, type_: types.FloatingPointType, value: float):
        if not type_.is_floating_point:
            raise types.LlvaTypeError(
                "ConstantFP requires float/double, got {0}".format(type_))
        super().__init__(type_)
        if type_ is types.FLOAT:
            # Round through single precision so folding matches execution.
            value = _struct.unpack("<f", _struct.pack("<f", value))[0]
        self.value = float(value)

    def literal(self) -> str:
        return repr(self.value)


class ConstantNull(Constant):
    """The null pointer of a given pointer type."""

    __slots__ = ()

    def __init__(self, type_: types.PointerType):
        if not type_.is_pointer:
            raise types.LlvaTypeError(
                "null requires a pointer type, got {0}".format(type_))
        super().__init__(type_)

    def literal(self) -> str:
        return "null"


class UndefValue(Constant):
    """An unspecified value of a first-class type.

    Produced by optimizations for provably-uninitialized reads; the
    interpreter materializes it as zero so differential tests stay
    deterministic.
    """

    __slots__ = ()

    def literal(self) -> str:
        return "undef"


class ConstantAggregate(Constant):
    """Base for constants of aggregate type (global initializers only —
    registers never hold aggregates)."""

    __slots__ = ("elements",)

    def __init__(self, type_: Type, elements: Tuple[Constant, ...]):
        super().__init__(type_)
        self.elements = elements


class ConstantArray(ConstantAggregate):
    __slots__ = ()

    def __init__(self, element_type: Type, elements: Sequence[Constant]):
        elements = tuple(elements)
        for element in elements:
            if element.type is not element_type:
                raise types.LlvaTypeError(
                    "array element {0} does not have type {1}"
                    .format(element.ref(), element_type))
        super().__init__(types.array_of(element_type, len(elements)),
                         elements)

    def literal(self) -> str:
        return "[ " + ", ".join(e.ref() for e in self.elements) + " ]"


class ConstantStruct(ConstantAggregate):
    __slots__ = ()

    def __init__(self, struct_type: types.StructType,
                 elements: Sequence[Constant]):
        elements = tuple(elements)
        if len(elements) != len(struct_type.fields):
            raise types.LlvaTypeError("struct initializer arity mismatch")
        for element, field in zip(elements, struct_type.fields):
            if element.type is not field:
                raise types.LlvaTypeError(
                    "struct field initializer {0} does not have type {1}"
                    .format(element.ref(), field))
        super().__init__(struct_type, elements)

    def literal(self) -> str:
        return "{ " + ", ".join(e.ref() for e in self.elements) + " }"


class ConstantZero(Constant):
    """``zeroinitializer`` for any sized type (globals and memory)."""

    __slots__ = ()

    def literal(self) -> str:
        return "zeroinitializer"


def make_byte_array(data: bytes) -> ConstantArray:
    """Build an ``[n x sbyte]`` constant from raw bytes (no implicit
    terminator)."""
    elements = [const_int(types.SBYTE, types.SBYTE.wrap(b)) for b in data]
    return ConstantArray(types.SBYTE, elements)


def make_string_constant(text: bytes) -> ConstantArray:
    """Build a NUL-terminated ``[n x sbyte]`` constant from *text*."""
    return make_byte_array(text + b"\x00")


# Interned simple constants -------------------------------------------------

TRUE = ConstantBool(True)
FALSE = ConstantBool(False)

_int_cache: Dict[Tuple[int, int], ConstantInt] = {}
_null_cache: Dict[int, ConstantNull] = {}
_undef_cache: Dict[int, UndefValue] = {}
_zero_cache: Dict[int, ConstantZero] = {}


def const_int(type_: types.IntegerType, value: int) -> ConstantInt:
    """Return the interned integer constant ``type value``."""
    key = (id(type_), value)
    cached = _int_cache.get(key)
    if cached is None:
        cached = _int_cache[key] = ConstantInt(type_, value)
    return cached


def const_bool(value: bool) -> ConstantBool:
    return TRUE if value else FALSE


def const_fp(type_: types.FloatingPointType, value: float) -> ConstantFP:
    # FP constants are not interned: NaN != NaN makes keys unreliable.
    return ConstantFP(type_, value)


def const_null(pointer_type: types.PointerType) -> ConstantNull:
    key = id(pointer_type)
    cached = _null_cache.get(key)
    if cached is None:
        cached = _null_cache[key] = ConstantNull(pointer_type)
    return cached


def const_undef(type_: Type) -> UndefValue:
    key = id(type_)
    cached = _undef_cache.get(key)
    if cached is None:
        cached = _undef_cache[key] = UndefValue(type_)
    return cached


def const_zero(type_: Type) -> Constant:
    """The zero constant of any first-class or aggregate type."""
    if type_.is_integer:
        return const_int(type_, 0)  # type: ignore[arg-type]
    if type_.is_bool:
        return FALSE
    if type_.is_floating_point:
        return const_fp(type_, 0.0)  # type: ignore[arg-type]
    if type_.is_pointer:
        return const_null(type_)  # type: ignore[arg-type]
    key = id(type_)
    cached = _zero_cache.get(key)
    if cached is None:
        cached = _zero_cache[key] = ConstantZero(type_)
    return cached


class Placeholder(Value):
    """A typed stand-in for a value not yet materialized.

    Used by the assembly parser and the bitcode reader for forward
    references; every placeholder must be resolved with
    :meth:`Value.replace_all_uses_with` before the IR is used.
    """

    __slots__ = ()


class Argument(Value):
    """A formal parameter of a :class:`repro.ir.module.Function`."""

    __slots__ = ("function", "index")

    def __init__(self, type_: Type, name: str, index: int):
        super().__init__(type_, name)
        self.function = None  # set by Function.__init__
        self.index = index

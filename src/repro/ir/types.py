"""The LLVA type system (paper Section 3.1, "LLVA Type System").

LLVA is fully typed with a low-level, source-language-independent type
system: a small set of primitive types with predefined sizes (``bool``,
``ubyte``, ``sbyte``, ``ushort``, ``short``, ``uint``, ``int``, ``ulong``,
``long``, ``float``, ``double``) and exactly four derived types (pointer,
array, structure, and function).

Types are *interned*: constructing the same type twice yields the same
object, so identity comparison (``is``) is type equality.  This mirrors the
uniquing of types in the paper's compiler implementation and makes strict
type rules ("no mixed-type operations") cheap to enforce.

Layout questions (sizeof, alignment, struct field offsets) are never
answered by a type alone: they require a :class:`TargetData`, which carries
the two implementation properties the V-ISA deliberately abstracts but must
expose through V-ABI flags — pointer size and endianness (Section 3.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Type:
    """Base class for every LLVA type.

    Instances are immutable and interned; use the module-level factory
    helpers (:func:`pointer_to`, :func:`array_of`, :func:`struct_of`,
    :func:`function_of`) or the primitive singletons (:data:`INT`,
    :data:`DOUBLE`, ...) rather than constructing subclasses directly.
    """

    __slots__ = ()

    @property
    def is_primitive(self) -> bool:
        return isinstance(self, PrimitiveType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntegerType)

    @property
    def is_signed(self) -> bool:
        return isinstance(self, IntegerType) and self.signed

    @property
    def is_unsigned(self) -> bool:
        return isinstance(self, IntegerType) and not self.signed

    @property
    def is_floating_point(self) -> bool:
        return isinstance(self, FloatingPointType)

    @property
    def is_bool(self) -> bool:
        return self is BOOL

    @property
    def is_void(self) -> bool:
        return self is VOID

    @property
    def is_label(self) -> bool:
        return self is LABEL

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    @property
    def is_function(self) -> bool:
        return isinstance(self, FunctionType)

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorType)

    @property
    def is_arithmetic(self) -> bool:
        """True for types valid as ``add``/``sub``/... operands."""
        return self.is_integer or self.is_floating_point

    @property
    def is_scalar(self) -> bool:
        """True for types a virtual register may hold (Section 3.1).

        Registers can only hold scalar values: boolean, integer, floating
        point, and pointer.
        """
        return (
            self.is_bool
            or self.is_integer
            or self.is_floating_point
            or self.is_pointer
        )

    @property
    def is_first_class(self) -> bool:
        """Types that may be produced by an instruction.

        Scalars (the register types of Section 3.1) plus the short vector
        types of the vector extension.  Vectors are deliberately *not*
        scalar: they cannot flow through phi nodes, calls, returns, loads,
        casts, or comparisons — only the dedicated ``v*`` instructions
        produce and consume them, which keeps vector values block-local.
        """
        return self.is_scalar or self.is_vector

    def __repr__(self) -> str:
        return "<llva type {0}>".format(self)


class PrimitiveType(Type):
    """A primitive type with a fixed name and size."""

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size  # size in bytes; 0 for void/label

    def __str__(self) -> str:
        return self.name


class VoidType(PrimitiveType):
    __slots__ = ()

    def __init__(self):
        super().__init__("void", 0)


class LabelType(PrimitiveType):
    """The type of basic-block labels (branch targets)."""

    __slots__ = ()

    def __init__(self):
        super().__init__("label", 0)


class BoolType(PrimitiveType):
    __slots__ = ()

    def __init__(self):
        super().__init__("bool", 1)


class IntegerType(PrimitiveType):
    """A fixed-width signed or unsigned integer type."""

    __slots__ = ("signed",)

    def __init__(self, name: str, size: int, signed: bool):
        super().__init__(name, size)
        self.signed = signed

    @property
    def bits(self) -> int:
        return self.size * 8

    @property
    def min_value(self) -> int:
        if self.signed:
            return -(1 << (self.bits - 1))
        return 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary Python int into this type's value range.

        Models the two's-complement wraparound of fixed-width hardware
        arithmetic, which the interpreter and constant folder must agree on.
        """
        value &= (1 << self.bits) - 1
        if self.signed and value > self.max_value:
            value -= 1 << self.bits
        return value


class FloatingPointType(PrimitiveType):
    __slots__ = ()


# Primitive singletons.  The paper's set: bool, ubyte/sbyte, ushort/short,
# uint/int, ulong/long, float, double (plus void and label).
VOID = VoidType()
LABEL = LabelType()
BOOL = BoolType()
UBYTE = IntegerType("ubyte", 1, signed=False)
SBYTE = IntegerType("sbyte", 1, signed=True)
USHORT = IntegerType("ushort", 2, signed=False)
SHORT = IntegerType("short", 2, signed=True)
UINT = IntegerType("uint", 4, signed=False)
INT = IntegerType("int", 4, signed=True)
ULONG = IntegerType("ulong", 8, signed=False)
LONG = IntegerType("long", 8, signed=True)
FLOAT = FloatingPointType("float", 4)
DOUBLE = FloatingPointType("double", 8)

#: All primitive types, keyed by their assembly spelling.
PRIMITIVES: Dict[str, PrimitiveType] = {
    t.name: t
    for t in (
        VOID, LABEL, BOOL, UBYTE, SBYTE, USHORT, SHORT,
        UINT, INT, ULONG, LONG, FLOAT, DOUBLE,
    )
}

#: Integer types ordered small-to-large, used by the bitcode writer.
INTEGER_TYPES: Tuple[IntegerType, ...] = (
    UBYTE, SBYTE, USHORT, SHORT, UINT, INT, ULONG, LONG,
)


class PointerType(Type):
    """A typed pointer.  ``%QT*`` in assembly syntax."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: Type):
        self.pointee = pointee

    def __str__(self) -> str:
        return "{0}*".format(self.pointee)


class ArrayType(Type):
    """A fixed-length homogeneous array: ``[4 x %QT*]``."""

    __slots__ = ("element", "length")

    def __init__(self, element: Type, length: int):
        self.element = element
        self.length = length

    def __str__(self) -> str:
        return "[{0} x {1}]".format(self.length, self.element)


#: Lane-count ceiling for vector types.  Keeps the extension "short
#: vector" shaped (SSE/AltiVec-era widths) and bounds the per-value cost
#: of the scalarizing target lowerings.
MAX_VECTOR_LANES = 16


class VectorType(Type):
    """A short vector of arithmetic lanes: ``<4 x double>``.

    The lane count is part of the type (and thus of the instruction
    encoding), mirroring how subword-SIMD ISAs encode element width in the
    opcode.  Elements are restricted to the arithmetic primitives — no
    vectors of pointers, bools, or aggregates — so every lane is a value
    the scalar tiers already know how to compute.
    """

    __slots__ = ("element", "lanes")

    def __init__(self, element: Type, lanes: int):
        self.element = element
        self.lanes = lanes

    def __str__(self) -> str:
        return "<{0} x {1}>".format(self.lanes, self.element)


class StructType(Type):
    """A structure: an ordered tuple of member types.

    Two flavours exist:

    * *anonymous* structs are interned structurally — two anonymous
      structs with identical bodies are the same type;
    * *named* structs (the ``%struct.QuadTree = type {...}`` form of
      Figure 2) are nominal and may be created with an unset (opaque)
      body that is filled in later, which is what makes recursive types
      like the paper's QuadTree expressible.
    """

    __slots__ = ("_fields", "name", "_layouts")

    def __init__(self, fields: Optional[Tuple[Type, ...]],
                 name: Optional[str] = None):
        self._fields = fields
        self.name = name
        #: Pointer size -> (size, alignment, field offsets), kept by
        #: :meth:`TargetData._struct_layout` the first time it lays the
        #: struct out.  An opaque struct keeps nothing.
        self._layouts: Dict[int, Tuple[int, int, Tuple[int, ...]]] = {}

    @property
    def fields(self) -> Tuple[Type, ...]:
        if self._fields is None:
            raise LlvaTypeError(
                "opaque struct %{0} has no body yet".format(self.name))
        return self._fields

    @property
    def is_opaque(self) -> bool:
        return self._fields is None

    def set_body(self, fields: Iterable[Type]) -> None:
        """Fill in the body of a named (possibly opaque) struct."""
        if self.name is None:
            raise LlvaTypeError("cannot mutate an anonymous struct type")
        field_tuple = tuple(fields)
        _check_struct_fields(field_tuple)
        if self._fields is not None and self._fields != field_tuple:
            raise LlvaTypeError(
                "struct %{0} body already set".format(self.name))
        self._fields = field_tuple

    def __str__(self) -> str:
        if self.name is not None:
            return "%{0}".format(self.name)
        return self.body_str()

    def body_str(self) -> str:
        if self._fields is None:
            return "opaque"
        return "{ " + ", ".join(str(f) for f in self._fields) + " }"


class FunctionType(Type):
    """A function signature: return type plus parameter types."""

    __slots__ = ("return_type", "params", "vararg")

    def __init__(self, return_type: Type, params: Tuple[Type, ...],
                 vararg: bool = False):
        self.return_type = return_type
        self.params = params
        self.vararg = vararg

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.vararg:
            parts.append("...")
        return "{0} ({1})".format(self.return_type, ", ".join(parts))


class TypeError_(Exception):
    """Raised when an LLVA type rule is violated.

    Named with a trailing underscore to avoid shadowing the builtin; the
    public alias is :data:`repro.ir.TypeError_` re-exported as
    ``LlvaTypeError``.
    """


LlvaTypeError = TypeError_


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------

_pointer_cache: Dict[int, PointerType] = {}
_vector_cache: Dict[Tuple[int, int], VectorType] = {}
_array_cache: Dict[Tuple[int, int], ArrayType] = {}
_struct_cache: Dict[Tuple[int, ...], StructType] = {}
_function_cache: Dict[Tuple[int, Tuple[int, ...], bool], FunctionType] = {}


def pointer_to(pointee: Type) -> PointerType:
    """Return the interned pointer type to *pointee*."""
    if pointee.is_void or pointee.is_label:
        # "void*" is spelled as sbyte* at the V-ISA level; the minic
        # front-end performs that lowering.  Disallow it here to keep the
        # type system closed.
        raise LlvaTypeError("cannot form pointer to {0}".format(pointee))
    if pointee.is_vector:
        # Vectors are register-only values; vload/vstore address memory
        # through element pointers, so a pointer-to-vector type never
        # needs to exist.
        raise LlvaTypeError("cannot form pointer to {0}".format(pointee))
    key = id(pointee)
    cached = _pointer_cache.get(key)
    if cached is None:
        cached = _pointer_cache[key] = PointerType(pointee)
    return cached


def array_of(element: Type, length: int) -> ArrayType:
    """Return the interned array type ``[length x element]``."""
    if length < 0:
        raise LlvaTypeError("array length must be non-negative")
    if not (element.is_scalar or element.is_array or element.is_struct):
        raise LlvaTypeError(
            "invalid array element type {0}".format(element))
    key = (id(element), length)
    cached = _array_cache.get(key)
    if cached is None:
        cached = _array_cache[key] = ArrayType(element, length)
    return cached


def vector_of(element: Type, lanes: int) -> VectorType:
    """Return the interned vector type ``<lanes x element>``.

    *element* must be an integer or floating-point primitive and *lanes*
    must be in ``[2, MAX_VECTOR_LANES]``; a 1-lane vector is just a scalar
    and is rejected to keep the canonical form unique.
    """
    if not element.is_arithmetic:
        raise LlvaTypeError(
            "invalid vector element type {0}".format(element))
    if not isinstance(lanes, int) or lanes < 2 or lanes > MAX_VECTOR_LANES:
        raise LlvaTypeError(
            "vector lane count must be an integer in [2, {0}], got {1!r}"
            .format(MAX_VECTOR_LANES, lanes))
    key = (id(element), lanes)
    cached = _vector_cache.get(key)
    if cached is None:
        cached = _vector_cache[key] = VectorType(element, lanes)
    return cached


def _check_struct_fields(fields: Tuple[Type, ...]) -> None:
    for f in fields:
        if not (f.is_scalar or f.is_array or f.is_struct):
            raise LlvaTypeError("invalid struct field type {0}".format(f))


def struct_of(fields: Iterable[Type]) -> StructType:
    """Return the interned *anonymous* struct type with these members."""
    field_tuple = tuple(fields)
    _check_struct_fields(field_tuple)
    key = tuple(id(f) for f in field_tuple)
    cached = _struct_cache.get(key)
    if cached is None:
        cached = _struct_cache[key] = StructType(field_tuple)
    return cached


def named_struct(name: str,
                 fields: Optional[Iterable[Type]] = None) -> StructType:
    """Create a fresh *named* (nominal) struct type.

    With ``fields=None`` the struct starts opaque; fill it in with
    :meth:`StructType.set_body`, which permits recursive types such as the
    paper's ``%struct.QuadTree = type { double, [4 x %QT*] }``.
    """
    struct = StructType(None, name)
    if fields is not None:
        struct.set_body(fields)
    return struct


def function_of(return_type: Type, params: Iterable[Type],
                vararg: bool = False) -> FunctionType:
    """Return the interned function type."""
    param_tuple = tuple(params)
    if not (return_type.is_void or return_type.is_scalar):
        raise LlvaTypeError(
            "invalid function return type {0}".format(return_type))
    for p in param_tuple:
        if not p.is_scalar:
            raise LlvaTypeError("invalid parameter type {0}".format(p))
    key = (id(return_type), tuple(id(p) for p in param_tuple), vararg)
    cached = _function_cache.get(key)
    if cached is None:
        cached = _function_cache[key] = FunctionType(
            return_type, param_tuple, vararg)
    return cached


# ---------------------------------------------------------------------------
# Target layout
# ---------------------------------------------------------------------------

class Endianness:
    """Byte-order constants for V-ABI flags."""

    LITTLE = "little"
    BIG = "big"


class TargetData:
    """Layout rules for one hardware configuration (Section 3.2).

    The V-ISA abstracts pointer size and endianness, but the translator must
    know both: ``getelementptr`` offsets and struct layouts differ between
    32-bit and 64-bit targets (the paper's example: ``&T[0].Children[3]`` is
    at offset 20 with 32-bit pointers and 32 with 64-bit pointers).
    """

    def __init__(self, pointer_size: int = 8,
                 endianness: str = Endianness.LITTLE):
        if pointer_size not in (4, 8):
            raise ValueError("pointer size must be 4 or 8 bytes")
        if endianness not in (Endianness.LITTLE, Endianness.BIG):
            raise ValueError("bad endianness {0!r}".format(endianness))
        self.pointer_size = pointer_size
        self.endianness = endianness

    @property
    def pointer_int_type(self) -> IntegerType:
        """The unsigned integer type with the width of a pointer."""
        return ULONG if self.pointer_size == 8 else UINT

    def size_of(self, type_: Type) -> int:
        """Return sizeof(*type_*) in bytes, including struct padding."""
        if type_.is_pointer:
            return self.pointer_size
        if isinstance(type_, PrimitiveType):
            if type_.size == 0:
                raise LlvaTypeError("{0} has no size".format(type_))
            return type_.size
        if isinstance(type_, ArrayType):
            return type_.length * self.size_of(type_.element)
        if isinstance(type_, VectorType):
            return type_.lanes * self.size_of(type_.element)
        if isinstance(type_, StructType):
            return self._struct_layout(type_)[0]
        raise LlvaTypeError("{0} has no size".format(type_))

    def align_of(self, type_: Type) -> int:
        """Return the natural alignment of *type_* in bytes."""
        if type_.is_pointer:
            return self.pointer_size
        if isinstance(type_, PrimitiveType):
            if type_.size == 0:
                raise LlvaTypeError("{0} has no alignment".format(type_))
            return type_.size
        if isinstance(type_, ArrayType):
            return self.align_of(type_.element)
        if isinstance(type_, VectorType):
            # Lane-aligned, not vector-aligned: vload/vstore are defined
            # over any element-aligned address so the autovectorizer never
            # needs alignment peeling.
            return self.align_of(type_.element)
        if isinstance(type_, StructType):
            return self._struct_layout(type_)[1]
        raise LlvaTypeError("{0} has no alignment".format(type_))

    def struct_offsets(self, struct: StructType) -> Tuple[int, ...]:
        """Return the byte offset of each field of *struct*."""
        return self._struct_layout(struct)[2]

    def _struct_layout(self, struct: StructType
                       ) -> Tuple[int, int, Tuple[int, ...]]:
        """*struct*'s size, alignment and field offsets.  A struct is
        laid out once per pointer size (endianness does not move a
        field), and the layout is kept on the struct."""
        layout = struct._layouts.get(self.pointer_size)
        if layout is not None:
            return layout
        offset = 0
        struct_align = 1
        offsets: List[int] = []
        for field in struct.fields:
            align = self.align_of(field)
            offset = _round_up(offset, align)
            offsets.append(offset)
            offset += self.size_of(field)
            struct_align = max(struct_align, align)
        layout = (_round_up(offset, struct_align), struct_align,
                  tuple(offsets))
        struct._layouts[self.pointer_size] = layout
        return layout

    def gep_offset(self, pointee: Type, indices: Sequence[object]) -> int:
        """Compute the byte offset of a ``getelementptr`` index chain.

        *indices* alternates array indices (ints, scaled by element size)
        and struct field numbers, exactly as in the instruction; the first
        index always scales by ``sizeof(pointee)``.  Symbolic (non-constant)
        indices cannot be folded here and raise ``ValueError``.
        """
        offset = 0
        current: Type = pointee
        for position, index in enumerate(indices):
            if not isinstance(index, int):
                raise ValueError("symbolic gep index at position {0}"
                                 .format(position))
            if position == 0:
                offset += index * self.size_of(current)
            elif isinstance(current, StructType):
                offset += self.struct_offsets(current)[index]
                current = current.fields[index]
                continue
            elif isinstance(current, ArrayType):
                offset += index * self.size_of(current.element)
                current = current.element
                continue
            else:
                raise LlvaTypeError(
                    "cannot index into {0}".format(current))
        return offset


def _round_up(value: int, align: int) -> int:
    if align <= 1:
        return value
    return (value + align - 1) // align * align


#: Default layouts used throughout the test suite and benchmarks.
TARGET_64_LE = TargetData(pointer_size=8, endianness=Endianness.LITTLE)
TARGET_32_LE = TargetData(pointer_size=4, endianness=Endianness.LITTLE)
TARGET_64_BE = TargetData(pointer_size=8, endianness=Endianness.BIG)
TARGET_32_BE = TargetData(pointer_size=4, endianness=Endianness.BIG)

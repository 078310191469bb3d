"""Unit and property tests for the LLVA type system (paper Section 3.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import types
from repro.ir.types import (
    Endianness,
    LlvaTypeError,
    TargetData,
    array_of,
    function_of,
    named_struct,
    pointer_to,
    struct_of,
)


class TestPrimitives:
    def test_paper_primitive_set(self):
        # The paper lists primitives "with predefined sizes (ubyte, uint,
        # float, double, etc...)".
        expected = {
            "void", "label", "bool", "ubyte", "sbyte", "ushort", "short",
            "uint", "int", "ulong", "long", "float", "double",
        }
        assert set(types.PRIMITIVES) == expected

    @pytest.mark.parametrize("name,size", [
        ("bool", 1), ("ubyte", 1), ("sbyte", 1), ("ushort", 2),
        ("short", 2), ("uint", 4), ("int", 4), ("ulong", 8),
        ("long", 8), ("float", 4), ("double", 8),
    ])
    def test_sizes(self, name, size):
        assert types.PRIMITIVES[name].size == size

    def test_signedness(self):
        assert types.INT.is_signed
        assert types.UINT.is_unsigned
        assert not types.DOUBLE.is_integer

    def test_scalar_classification(self):
        assert types.INT.is_scalar
        assert types.BOOL.is_scalar
        assert pointer_to(types.INT).is_scalar
        assert not types.VOID.is_scalar
        assert not array_of(types.INT, 3).is_scalar
        assert not struct_of([types.INT]).is_scalar

    def test_integer_ranges(self):
        assert types.SBYTE.min_value == -128
        assert types.SBYTE.max_value == 127
        assert types.UBYTE.min_value == 0
        assert types.UBYTE.max_value == 255
        assert types.LONG.max_value == 2**63 - 1

    def test_wrap_behaviour(self):
        assert types.UBYTE.wrap(256) == 0
        assert types.UBYTE.wrap(-1) == 255
        assert types.SBYTE.wrap(128) == -128
        assert types.INT.wrap(2**31) == -(2**31)


class TestInterning:
    def test_pointer_interning(self):
        assert pointer_to(types.INT) is pointer_to(types.INT)

    def test_array_interning(self):
        assert array_of(types.INT, 4) is array_of(types.INT, 4)
        assert array_of(types.INT, 4) is not array_of(types.INT, 5)

    def test_anonymous_struct_interning(self):
        a = struct_of([types.INT, types.DOUBLE])
        b = struct_of([types.INT, types.DOUBLE])
        assert a is b

    def test_function_interning(self):
        a = function_of(types.INT, [types.INT], vararg=False)
        b = function_of(types.INT, [types.INT], vararg=False)
        c = function_of(types.INT, [types.INT], vararg=True)
        assert a is b
        assert a is not c

    def test_named_structs_are_nominal(self):
        a = named_struct("A", [types.INT])
        b = named_struct("A", [types.INT])
        assert a is not b


class TestTypeRules:
    def test_no_pointer_to_void(self):
        with pytest.raises(LlvaTypeError):
            pointer_to(types.VOID)

    def test_no_void_struct_field(self):
        with pytest.raises(LlvaTypeError):
            struct_of([types.VOID])

    def test_no_aggregate_params(self):
        with pytest.raises(LlvaTypeError):
            function_of(types.VOID, [array_of(types.INT, 2)])

    def test_no_negative_array(self):
        with pytest.raises(LlvaTypeError):
            array_of(types.INT, -1)

    def test_opaque_struct_has_no_fields(self):
        opaque = named_struct("opaque.test")
        assert opaque.is_opaque
        with pytest.raises(LlvaTypeError):
            _ = opaque.fields

    def test_set_body_twice_conflicts(self):
        s = named_struct("twice.test", [types.INT])
        with pytest.raises(LlvaTypeError):
            s.set_body([types.DOUBLE])

    def test_anonymous_struct_immutable(self):
        s = struct_of([types.INT])
        with pytest.raises(LlvaTypeError):
            s.set_body([types.DOUBLE])


class TestTargetData:
    def test_pointer_sizes(self):
        assert TargetData(4).size_of(pointer_to(types.INT)) == 4
        assert TargetData(8).size_of(pointer_to(types.INT)) == 8

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            TargetData(pointer_size=3)
        with pytest.raises(ValueError):
            TargetData(endianness="middle")

    def test_struct_padding(self):
        # { sbyte, int } pads the sbyte to 4-byte alignment.
        s = struct_of([types.SBYTE, types.INT])
        td = TargetData(8)
        assert td.struct_offsets(s) == (0, 4)
        assert td.size_of(s) == 8

    def test_struct_tail_padding(self):
        s = struct_of([types.INT, types.SBYTE])
        td = TargetData(8)
        assert td.size_of(s) == 8  # rounded up to align 4

    def test_paper_quadtree_offsets(self):
        """The paper's example: &T[0].Children[3] is at byte offset 20
        with 32-bit pointers and 32 with 64-bit pointers."""
        qt = named_struct("qt.offsets")
        qt.set_body([types.DOUBLE, array_of(pointer_to(qt), 4)])
        assert TargetData(4).gep_offset(qt, [0, 1, 3]) == 20
        assert TargetData(8).gep_offset(qt, [0, 1, 3]) == 32

    def test_gep_offset_leading_index_scales_whole_object(self):
        td = TargetData(8)
        s = struct_of([types.INT, types.INT])
        assert td.gep_offset(s, [2]) == 16
        assert td.gep_offset(s, [2, 1]) == 20

    def test_gep_symbolic_index_rejected(self):
        td = TargetData(8)
        with pytest.raises(ValueError):
            td.gep_offset(types.INT, ["sym"])

    def test_void_has_no_size(self):
        with pytest.raises(LlvaTypeError):
            TargetData(8).size_of(types.VOID)
        with pytest.raises(LlvaTypeError):
            TargetData(8).align_of(types.LABEL)

    def test_array_size(self):
        td = TargetData(8)
        assert td.size_of(array_of(types.SHORT, 7)) == 14
        assert td.align_of(array_of(types.SHORT, 7)) == 2

    def test_pointer_int_type(self):
        assert TargetData(8).pointer_int_type is types.ULONG
        assert TargetData(4).pointer_int_type is types.UINT


@given(st.integers())
def test_wrap_is_idempotent(value):
    for type_ in types.INTEGER_TYPES:
        wrapped = type_.wrap(value)
        assert type_.wrap(wrapped) == wrapped
        assert type_.min_value <= wrapped <= type_.max_value


@given(st.integers(min_value=-2**63, max_value=2**63 - 1),
       st.integers(min_value=-2**63, max_value=2**63 - 1))
def test_wrap_is_additive_homomorphism(a, b):
    """Two's-complement wraparound commutes with addition."""
    for type_ in types.INTEGER_TYPES:
        assert type_.wrap(a + b) == type_.wrap(type_.wrap(a) + type_.wrap(b))


@given(st.lists(st.sampled_from([
    types.BOOL, types.SBYTE, types.SHORT, types.INT, types.LONG,
    types.FLOAT, types.DOUBLE]), min_size=1, max_size=8))
def test_struct_offsets_are_aligned_and_monotone(fields):
    s = struct_of(fields)
    for td in (TargetData(4), TargetData(8)):
        offsets = td.struct_offsets(s)
        last_end = 0
        for offset, fieldtype in zip(offsets, fields):
            assert offset % td.align_of(fieldtype) == 0
            assert offset >= last_end
            last_end = offset + td.size_of(fieldtype)
        assert td.size_of(s) >= last_end
        assert td.size_of(s) % td.align_of(s) == 0

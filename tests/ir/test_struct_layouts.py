"""A struct is laid out once per pointer size, and the layout it keeps
is the one a fresh computation gives."""

import pytest

from repro.benchsuite import SUITE_ORDER, load_workload
from repro.ir import types
from repro.ir.types import LlvaTypeError, TargetData
from repro.minic import compile_source


def _fresh(td: TargetData, type_):
    """(size, alignment, field offsets) of *type_*, computed afresh
    without any kept layout."""
    if type_.is_pointer:
        return td.pointer_size, td.pointer_size, ()
    if isinstance(type_, types.PrimitiveType):
        return type_.size, type_.size, ()
    if isinstance(type_, (types.ArrayType, types.VectorType)):
        count = getattr(type_, "length", None)
        if count is None:
            count = type_.lanes
        size, align, _ = _fresh(td, type_.element)
        return count * size, align, ()
    offset, align, offsets = 0, 1, []
    for field in type_.fields:
        size, field_align, _ = _fresh(td, field)
        offset = (offset + field_align - 1) // field_align * field_align
        offsets.append(offset)
        offset += size
        align = max(align, field_align)
    return (offset + align - 1) // align * align, align, tuple(offsets)


def _structs(type_, found):
    """Collect every struct type reachable from *type_* into *found*."""
    if type_ is None or id(type_) in found:
        return
    if isinstance(type_, types.StructType):
        found[id(type_)] = type_
        for field in type_.fields:
            _structs(field, found)
    elif isinstance(type_, types.PointerType):
        _structs(type_.pointee, found)
    elif isinstance(type_, (types.ArrayType, types.VectorType)):
        _structs(type_.element, found)


def _module_structs(module):
    found = {}
    for struct in module.named_types.values():
        _structs(struct, found)
    for variable in module.globals.values():
        _structs(variable.value_type, found)
    for function in module.functions.values():
        for block in function.blocks:
            for inst in block.instructions:
                _structs(inst.type, found)
                for operand in inst.operands:
                    _structs(operand.type, found)
    return list(found.values())


@pytest.fixture(scope="module")
def suite_structs():
    structs = {}
    for name in SUITE_ORDER:
        module = compile_source(load_workload(name, 0.01).source, name,
                                optimization_level=0)
        structs[name] = _module_structs(module)
    return structs


def test_kept_layouts_equal_a_fresh_computation(suite_structs):
    assert len(suite_structs) == 17
    assert sum(len(s) for s in suite_structs.values()) > 0
    for name, structs in suite_structs.items():
        for struct in structs:
            for td in (TargetData(4), TargetData(8, "big")):
                expected = _fresh(td, struct)
                for _ in range(2):  # computed, then kept
                    assert (td.size_of(struct), td.align_of(struct),
                            td.struct_offsets(struct)) == expected, \
                        (name, str(struct), td.pointer_size)
                assert struct._layouts[td.pointer_size] == expected


def test_opaque_struct_keeps_nothing_until_its_body_is_set():
    node = types.named_struct("layout.Node")
    holder = types.struct_of([types.INT, types.pointer_to(node)])
    td = TargetData(8)
    with pytest.raises(LlvaTypeError):
        td.size_of(node)
    with pytest.raises(LlvaTypeError):
        td.struct_offsets(node)
    assert node._layouts == {}
    outer = types.named_struct("layout.Outer")
    outer.set_body([types.SBYTE, node])
    with pytest.raises(LlvaTypeError):
        td.size_of(outer)
    assert outer._layouts == {}
    node.set_body([types.SBYTE, types.DOUBLE, types.pointer_to(node)])
    assert td.size_of(node) == 24
    assert td.struct_offsets(node) == (0, 8, 16)
    assert td.size_of(outer) == 32
    assert td.struct_offsets(outer) == (0, 8)
    assert td.struct_offsets(holder) == (0, 8)
    assert TargetData(4).struct_offsets(holder) == (0, 4)
    assert node._layouts == {8: (24, 8, (0, 8, 16))}
    assert holder._layouts == {8: (16, 8, (0, 8)), 4: (8, 4, (0, 4))}

"""Program images: a module materialized into simulated memory.

Loading a module assigns every function a code address (so function
pointers are ordinary pointer-sized integers, castable like any other
pointer) and lays out every global variable, writing its initializer with
the target's endianness and pointer size.  Zero-initialized globals
occupy address space but are never written, as ``.bss`` occupies no
file bytes in :meth:`~repro.targets.native.NativeModule.data_size`.

An image takes its :class:`ImageLayout` right after that first layout,
before any instruction runs: the symbol addresses, the end of the
global arena and the bytes of each initialized global.  An image built
from a layout, and :meth:`ProgramImage.reload` in memory that was
reset, apply it: one ``write_bytes`` per initialized global instead of
a walk over every initializer constant.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import observe
from repro.execution.memory import FUNCTION_BASE, Memory
from repro.ir import types, values
from repro.ir.module import Function, GlobalVariable, Module
from repro.ir.values import (
    Constant,
    ConstantAggregate,
    ConstantBool,
    ConstantFP,
    ConstantInt,
    ConstantNull,
    ConstantZero,
    UndefValue,
)

_FUNCTION_STRIDE = 16


class ImageLayout(NamedTuple):
    """A module's image as plain data, taken before any instruction ran.
    Zero-initialized globals need no bytes: new or reset memory already
    reads zero."""

    function_addresses: Dict[str, int]
    functions_by_address: Dict[int, Function]
    global_addresses: Dict[str, int]
    #: The end of the global arena.
    global_end: int
    #: ``(address, bytes)`` of each global whose initializer is not
    #: ``zeroinitializer``.
    initialized: Tuple[Tuple[int, bytes], ...]


class ProgramImage:
    """A loaded module: symbol addresses plus initialized memory.

    Without *layout* the image lays the module out by walking it, then
    takes its :attr:`layout`; with one (taken by an image of the same
    module and target) it applies that instead.  Either way the image
    owns its address maps, because :meth:`register_function` adds to
    them."""

    def __init__(self, module: Module, memory: Memory,
                 layout: Optional[ImageLayout] = None):
        self.module = module
        self.memory = memory
        if layout is None:
            self.function_addresses: Dict[str, int] = {}
            self.functions_by_address: Dict[int, Function] = {}
            self.global_addresses: Dict[str, int] = {}
            self._layout_functions()
            written = self._layout_globals()
            layout = ImageLayout(
                dict(self.function_addresses),
                dict(self.functions_by_address),
                dict(self.global_addresses), memory.global_end,
                tuple((address, memory.read_bytes(address, size))
                      for _, address, size in written))
        else:
            self._apply(layout)
        self.layout = layout

    # -- layout ----------------------------------------------------------------

    def _layout_functions(self) -> None:
        next_address = FUNCTION_BASE
        for function in self.module.functions.values():
            self.function_addresses[function.name] = next_address
            self.functions_by_address[next_address] = function
            next_address += _FUNCTION_STRIDE

    def _layout_globals(self) -> List[Tuple[GlobalVariable, int, int]]:
        """Give every global its address and write the initializers that
        are not ``zeroinitializer``; the ``(global, address, size)`` of
        each global written."""
        target = self.memory.target
        written = []
        # Allocate all addresses first so initializers may refer to any
        # global (mutual references between globals are legal).
        for variable in self.module.globals.values():
            size = target.size_of(variable.value_type)
            align = target.align_of(variable.value_type)
            address = self.memory.allocate_global(size, align)
            self.global_addresses[variable.name] = address
            initializer = variable.initializer
            if initializer is not None \
                    and not isinstance(initializer, ConstantZero):
                written.append((variable, address, size))
        for variable, address, _ in written:
            self.write_constant(address, variable.value_type,
                                variable.initializer)
        if written and observe.enabled():
            observe.counter("image.initializers_written", len(written))
        return written

    def _apply(self, layout: ImageLayout) -> None:
        self.function_addresses = dict(layout.function_addresses)
        self.functions_by_address = dict(layout.functions_by_address)
        self.global_addresses = dict(layout.global_addresses)
        memory = self.memory
        memory.map_globals(layout.global_end)
        for address, data in layout.initialized:
            memory.write_bytes(address, data)

    def reload(self) -> None:
        """Apply the image's :attr:`layout` again to its memory after a
        :meth:`~repro.execution.memory.Memory.reset`: the addresses,
        and the initialized globals' bytes, of the first load.  A
        function registered since is gone."""
        self._apply(self.layout)

    def register_function(self, function: Function) -> int:
        """Self-extending code (Section 3.4): give a function added to
        the module *after* loading its code address, so it is callable
        through pointers like any other.  Idempotent."""
        existing = self.function_addresses.get(function.name)
        if existing is not None:
            return existing
        address = FUNCTION_BASE + _FUNCTION_STRIDE * len(
            self.function_addresses)
        self.function_addresses[function.name] = address
        self.functions_by_address[address] = function
        return address

    # -- queries ---------------------------------------------------------------

    def address_of(self, symbol: str) -> int:
        if symbol in self.global_addresses:
            return self.global_addresses[symbol]
        if symbol in self.function_addresses:
            return self.function_addresses[symbol]
        raise KeyError("no symbol {0!r} in image".format(symbol))

    def function_at(self, address: int) -> Optional[Function]:
        return self.functions_by_address.get(address)

    # -- initializer writing ------------------------------------------------------

    def constant_value(self, constant: Constant):
        """Evaluate a scalar constant to its runtime representation."""
        if isinstance(constant, ConstantInt):
            return constant.value
        if isinstance(constant, ConstantBool):
            return constant.value
        if isinstance(constant, ConstantFP):
            return constant.value
        if isinstance(constant, ConstantNull):
            return 0
        if isinstance(constant, UndefValue):
            return _zero_for(constant.type)
        raise TypeError("not a scalar constant: {0!r}".format(constant))

    def write_constant(self, address: int, type_: types.Type,
                       constant: Constant) -> None:
        """Write *constant* of *type_* into memory at *address*."""
        memory = self.memory
        target = memory.target
        if isinstance(constant, ConstantZero):
            return  # global memory is handed out once, already zero
        if isinstance(constant, ConstantAggregate):
            if isinstance(type_, types.ArrayType):
                stride = target.size_of(type_.element)
                for index, element in enumerate(constant.elements):
                    self.write_constant(address + index * stride,
                                        type_.element, element)
                return
            if isinstance(type_, types.StructType):
                offsets = target.struct_offsets(type_)
                for offset, field, element in zip(
                        offsets, type_.fields, constant.elements):
                    self.write_constant(address + offset, field, element)
                return
            raise TypeError("aggregate constant for non-aggregate type")
        if isinstance(constant, (Function, GlobalVariable)):
            memory.write_typed(address, constant.type,
                               self.address_of(constant.name))
            return
        memory.write_typed(address, type_, self.constant_value(constant))


def _zero_for(type_: types.Type):
    if type_.is_floating_point:
        return 0.0
    if type_.is_bool:
        return False
    return 0

"""Program images: a module materialized into simulated memory.

Loading a module assigns every function a code address (so function
pointers are ordinary pointer-sized integers, castable like any other
pointer) and lays out every global variable, writing its initializer with
the target's endianness and pointer size.  Zero-initialized globals
occupy address space but are never written, as ``.bss`` occupies no
file bytes in :meth:`~repro.targets.native.NativeModule.data_size`.
:meth:`ProgramImage.reload` lays the globals out again in memory that
was reset, at the same addresses.
"""

from __future__ import annotations

from typing import Dict, Optional

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


class ProgramImage:
    """A loaded module: symbol addresses plus initialized memory."""

    def __init__(self, module: Module, memory: Memory):
        self.module = module
        self.memory = memory
        self.function_addresses: Dict[str, int] = {}
        self.functions_by_address: Dict[int, Function] = {}
        self.global_addresses: Dict[str, int] = {}
        self._layout_functions()
        self._layout_globals()

    # -- layout ----------------------------------------------------------------

    def _layout_functions(self) -> None:
        next_address = FUNCTION_BASE
        for function in self.module.functions.values():
            self.function_addresses[function.name] = next_address
            self.functions_by_address[next_address] = function
            next_address += _FUNCTION_STRIDE

    def _layout_globals(self) -> None:
        target = self.memory.target
        # Allocate all addresses first so initializers may refer to any
        # global (mutual references between globals are legal).
        for variable in self.module.globals.values():
            size = target.size_of(variable.value_type)
            align = target.align_of(variable.value_type)
            address = self.memory.allocate_global(size, align)
            self.global_addresses[variable.name] = address
        for variable in self.module.globals.values():
            if variable.initializer is not None:
                self.write_constant(
                    self.global_addresses[variable.name],
                    variable.value_type, variable.initializer)

    def reload(self) -> None:
        """Write the initializers again into the image's memory after a
        :meth:`~repro.execution.memory.Memory.reset`.  The module's
        globals are the same, so every one gets the address it had."""
        self.global_addresses.clear()
        self._layout_globals()

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

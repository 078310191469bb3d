"""Virtual object code reader — inverse of :mod:`repro.bitcode.writer`.

Reconstruction is two-phase within each function body: instruction
records are decoded into typed placeholders first, so operands may
forward-reference instructions that appear later in the stream (legal
whenever a dominating definition lives in a block stored later), then
every placeholder is patched to the materialized instruction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bitcode.encoding import BitcodeError, Reader
from repro.bitcode.writer import (
    CONST_ARRAY,
    CONST_BOOL,
    CONST_FP,
    CONST_INT,
    CONST_NULL,
    CONST_STRUCT,
    CONST_SYMBOL,
    CONST_UNDEF,
    CONST_ZERO,
    KIND_ARRAY,
    KIND_FUNCTION,
    KIND_POINTER,
    KIND_STRUCT,
    KIND_VECTOR,
    MAGIC,
    PRIMITIVE_ORDER,
    VERSION,
)
from repro.ir import instructions as insts
from repro.ir import types, values
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.values import Placeholder, Value


def read_module(data: bytes, name: str = "module") -> Module:
    """Deserialize object-code bytes into a fresh module.

    Malformed object code raises :class:`BitcodeError` and nothing else;
    when the decoder tripped over the bad bytes somewhere deeper (a bad
    index, an ill-typed record, undecodable text), that exception is
    chained as the cause.
    """
    try:
        return _ModuleReader(data, name).read()
    except BitcodeError:
        raise
    except (ArithmeticError, LookupError, RecursionError, TypeError,
            ValueError, types.LlvaTypeError) as error:
        raise BitcodeError("malformed object code: {0}: {1}".format(
            type(error).__name__, error)) from error


class _ModuleReader:
    def __init__(self, data: bytes, name: str):
        self.reader = Reader(data)
        self.module = Module(name)
        self.types: List[types.Type] = []
        self.symbols: List = []

    def read(self) -> Module:
        reader = self.reader
        if reader.raw(4) != MAGIC:
            raise BitcodeError("bad magic")
        version = reader.u8()
        if version != VERSION:
            raise BitcodeError("unsupported version {0}".format(version))
        self.module.pointer_size = reader.u8()
        self.module.endianness = "little" if reader.u8() == 0 else "big"
        self.has_names = reader.u8() == 1
        self._read_type_table()
        self._read_symbol_table()
        self._read_bodies()
        return self.module

    # -- types ---------------------------------------------------------------

    def _read_type_table(self) -> None:
        reader = self.reader
        self.types = list(PRIMITIVE_ORDER)
        named_count = reader.vbr()
        named: List[Tuple[str, int]] = []
        named_structs: Dict[int, types.StructType] = {}
        for _ in range(named_count):
            struct_name = reader.string()
            index = reader.vbr()
            named.append((struct_name, index))
            struct = types.named_struct(struct_name)
            named_structs[index] = struct
            self.module.named_types[struct_name] = struct
        derived_count = reader.vbr()
        # First pass: create shells so records may reference any index.
        records: List[Tuple[int, List[int], int]] = []
        base = len(PRIMITIVE_ORDER)
        for offset in range(derived_count):
            index = base + offset
            kind = reader.u8()
            if kind == KIND_POINTER:
                records.append((kind, [reader.vbr()], index))
            elif kind in (KIND_ARRAY, KIND_VECTOR):
                element = reader.vbr()
                length = reader.vbr()
                records.append((kind, [element, length], index))
            elif kind == KIND_STRUCT:
                count = reader.vbr()
                fields = [reader.vbr() for _ in range(count)]
                records.append((kind, fields, index))
            elif kind == KIND_FUNCTION:
                return_index = reader.vbr()
                count = reader.vbr()
                params = [reader.vbr() for _ in range(count)]
                vararg = reader.u8()
                records.append(
                    (kind, [return_index] + params + [vararg], index))
            else:
                raise BitcodeError("bad type kind {0}".format(kind))
            self.types.append(named_structs.get(index))  # shell or None
        # Second pass: materialize in dependency order via memoized
        # resolution.  Named structs already exist; only their bodies are
        # deferred.
        self._records = {index: (kind, payload)
                         for kind, payload, index in records}
        for _, _, index in records:
            self._resolve_type(index)
        # Third pass: fill named-struct bodies.
        for _name, index in named:
            kind, payload = self._records[index]
            if kind != KIND_STRUCT:
                raise BitcodeError("named type is not a struct")
            struct = self.types[index]
            assert isinstance(struct, types.StructType)
            if struct.is_opaque:
                struct.set_body(
                    self._resolve_type(i) for i in payload)

    def _resolve_type(self, index: int) -> types.Type:
        existing = self.types[index]
        if existing is not None:
            if not (isinstance(existing, types.StructType)
                    and existing.is_opaque):
                return existing
            return existing  # opaque named struct: usable as-is
        kind, payload = self._records[index]
        if kind == KIND_POINTER:
            result: types.Type = types.pointer_to(
                self._resolve_type(payload[0]))
        elif kind == KIND_ARRAY:
            result = types.array_of(self._resolve_type(payload[0]),
                                    payload[1])
        elif kind == KIND_VECTOR:
            result = types.vector_of(self._resolve_type(payload[0]),
                                     payload[1])
        elif kind == KIND_STRUCT:
            result = types.struct_of(
                self._resolve_type(i) for i in payload)
        else:
            vararg = bool(payload[-1])
            return_type = self._resolve_type(payload[0])
            params = [self._resolve_type(i) for i in payload[1:-1]]
            result = types.function_of(return_type, params, vararg)
        self.types[index] = result
        return result

    def _type(self, index: int) -> types.Type:
        type_ = self.types[index]
        if type_ is None:
            raise BitcodeError("unresolved type index {0}".format(index))
        return type_

    # -- symbols ----------------------------------------------------------------

    def _read_symbol_table(self) -> None:
        reader = self.reader
        global_count = reader.vbr()
        pending_inits: List[Tuple[GlobalVariable, int]] = []
        # Two passes over globals are not possible in a stream, so
        # initializers referencing functions use symbol indices resolved
        # after functions are read; we decode initializers lazily by
        # storing their constants only after all symbols exist.  To keep
        # the format single-pass, initializer records may only reference
        # symbol indices, which we patch below.
        raw_inits: List[Tuple[GlobalVariable, "_LazyConstant"]] = []
        for _ in range(global_count):
            symbol_name = reader.string()
            value_type = self._type(reader.vbr())
            flags = reader.u8()
            variable = self.module.create_global(
                symbol_name, value_type,
                initializer=None,
                is_constant=bool(flags & 1),
                internal=bool(flags & 2))
            self.symbols.append(variable)
            if flags & 4:
                raw_inits.append((variable, self._read_lazy_constant()))
        function_count = reader.vbr()
        self._defined_functions: List[Function] = []
        for _ in range(function_count):
            symbol_name = reader.string()
            function_type = self._type(reader.vbr())
            flags = reader.u8()
            if not isinstance(function_type, types.FunctionType):
                raise BitcodeError("function symbol with non-function type")
            arg_names: Optional[List[str]] = None
            if self.has_names:
                arg_names = [reader.string()
                             for _ in function_type.params]
            function = self.module.create_function(
                symbol_name, function_type, arg_names,
                internal=bool(flags & 1))
            self.symbols.append(function)
            if flags & 2:
                self._defined_functions.append(function)
        for variable, lazy in raw_inits:
            variable.initializer = lazy.materialize(self)

    def _read_lazy_constant(self) -> "_LazyConstant":
        return _LazyConstant.parse(self.reader)

    def _constant_from_record(self, record) -> values.Constant:
        kind, payload = record
        if kind == CONST_INT:
            return values.const_int(self._type(payload[0]), payload[1])
        if kind == CONST_FP:
            return values.const_fp(self._type(payload[0]), payload[1])
        if kind == CONST_BOOL:
            return values.const_bool(bool(payload[0]))
        if kind == CONST_NULL:
            return values.const_null(self._type(payload[0]))
        if kind == CONST_UNDEF:
            return values.const_undef(self._type(payload[0]))
        if kind == CONST_SYMBOL:
            return self.symbols[payload[0]]
        if kind == CONST_ZERO:
            return values.const_zero(self._type(payload[0]))
        if kind == CONST_ARRAY:
            array_type = self._type(payload[0])
            elements = [self._constant_from_record(r) for r in payload[1]]
            return values.ConstantArray(array_type.element, elements)
        if kind == CONST_STRUCT:
            struct_type = self._type(payload[0])
            elements = [self._constant_from_record(r) for r in payload[1]]
            return values.ConstantStruct(struct_type, elements)
        raise BitcodeError("bad constant kind {0}".format(kind))

    # -- bodies --------------------------------------------------------------------

    def _read_bodies(self) -> None:
        for function in self._defined_functions:
            self._read_body(function)

    def _read_body(self, function: Function) -> None:
        reader = self.reader
        pool_count = reader.vbr()
        pool: List[values.Constant] = []
        for _ in range(pool_count):
            record = _LazyConstant.parse(reader)
            pool.append(record.materialize(self))
        block_count = reader.vbr()
        blocks = [BasicBlock("bb{0}".format(i)) for i in range(block_count)]
        for block in blocks:
            block.parent = function
            function.blocks.append(block)
        # Decode raw instruction records.
        records: List[Tuple[int, bool, int, Tuple[int, ...], int]] = []
        counts: List[int] = []
        for block_index in range(block_count):
            inst_count = reader.vbr()
            counts.append(inst_count)
            for _ in range(inst_count):
                opcode_index, ee_flag, type_index, operand_ids = \
                    reader.instruction()
                records.append((opcode_index, ee_flag, type_index,
                                operand_ids, block_index))
        # Unified id space.
        id_base_args = len(pool)
        id_base_blocks = id_base_args + len(function.args)
        id_base_insts = id_base_blocks + block_count
        placeholders: Dict[int, Placeholder] = {}

        def lookup(value_id: int) -> Value:
            if value_id < id_base_args:
                return pool[value_id]
            if value_id < id_base_blocks:
                return function.args[value_id - id_base_args]
            if value_id < id_base_insts:
                return blocks[value_id - id_base_blocks]
            index = value_id - id_base_insts
            built = materialized[index]
            if built is not None:
                return built
            placeholder = placeholders.get(index)
            if placeholder is None:
                record_type = self._type(records[index][2])
                placeholder = Placeholder(record_type)
                placeholders[index] = placeholder
            return placeholder

        materialized: List[Optional[insts.Instruction]] = \
            [None] * len(records)
        for index, (opcode_index, ee_flag, type_index, operand_ids,
                    block_index) in enumerate(records):
            opcode = insts.ALL_OPCODES[opcode_index]
            operands = [lookup(value_id) for value_id in operand_ids]
            inst = self._build_instruction(
                opcode, self._type(type_index), operands)
            ee_default = opcode in insts.DEFAULT_EXCEPTIONS_ENABLED
            inst.exceptions_enabled = ee_default != ee_flag
            blocks[block_index].instructions.append(inst)
            inst.parent = blocks[block_index]
            materialized[index] = inst
            placeholder = placeholders.pop(index, None)
            if placeholder is not None:
                placeholder.replace_all_uses_with(inst)
        if placeholders:
            raise BitcodeError("dangling forward references in body")
        if self.has_names:
            named_count = reader.vbr()
            for _ in range(named_count):
                value_id = reader.vbr()
                value_name = reader.string()
                lookup(value_id).name = value_name

    def _build_instruction(self, opcode: str, result_type: types.Type,
                           operands: List[Value]) -> insts.Instruction:
        if opcode in insts.BINARY_CLASSES:
            return insts.BINARY_CLASSES[opcode](operands[0], operands[1])
        if opcode.startswith("set"):
            return insts.COMPARE_CLASSES[opcode[3:]](
                operands[0], operands[1])
        if opcode == "ret":
            return insts.RetInst(operands[0] if operands else None)
        if opcode == "br":
            if len(operands) == 1:
                return insts.BranchInst(target=operands[0])
            return insts.BranchInst(condition=operands[0],
                                    if_true=operands[1],
                                    if_false=operands[2])
        if opcode == "mbr":
            cases = [(operands[i], operands[i + 1])
                     for i in range(2, len(operands), 2)]
            return insts.MultiwayBranchInst(operands[0], operands[1],
                                            cases)
        if opcode == "invoke":
            return insts.InvokeInst(operands[0], operands[3:],
                                    operands[1], operands[2])
        if opcode == "unwind":
            return insts.UnwindInst()
        if opcode == "call":
            return insts.CallInst(operands[0], operands[1:])
        if opcode == "load":
            return insts.LoadInst(operands[0])
        if opcode == "store":
            return insts.StoreInst(operands[0], operands[1])
        if opcode == "getelementptr":
            return insts.GetElementPtrInst(operands[0], operands[1:])
        if opcode == "alloca":
            if not result_type.is_pointer:
                raise BitcodeError("alloca with non-pointer result type")
            return insts.AllocaInst(
                result_type.pointee,
                operands[0] if operands else None)
        if opcode == "cast":
            return insts.CastInst(operands[0], result_type)
        if opcode == "phi":
            pairs = [(operands[i], operands[i + 1])
                     for i in range(0, len(operands), 2)]
            return insts.PhiInst(result_type, pairs)
        if opcode in insts.VECTOR_BINARY_CLASSES:
            return insts.VECTOR_BINARY_CLASSES[opcode](
                operands[0], operands[1])
        if opcode == "vsplat":
            return insts.VSplatInst(result_type, operands[0])
        if opcode in insts.VREDUCE_CLASSES:
            return insts.VREDUCE_CLASSES[opcode](operands[0], operands[1])
        if opcode == "vload":
            return insts.VLoadInst(result_type, operands[0])
        if opcode == "vstore":
            return insts.VStoreInst(operands[0], operands[1])
        raise BitcodeError("bad opcode {0!r}".format(opcode))


class _LazyConstant:
    """A parsed-but-unmaterialized constant record.

    Parsing and materialization are split so global initializers can
    reference function symbols that appear later in the symbol table.
    """

    def __init__(self, kind: int, payload):
        self.kind = kind
        self.payload = payload

    @classmethod
    def parse(cls, reader: Reader) -> "_LazyConstant":
        kind = reader.u8()
        if kind == CONST_INT:
            return cls(kind, [reader.vbr(), reader.svbr()])
        if kind == CONST_FP:
            return cls(kind, [reader.vbr(), reader.f64()])
        if kind == CONST_BOOL:
            return cls(kind, [reader.u8()])
        if kind in (CONST_NULL, CONST_UNDEF, CONST_ZERO):
            return cls(kind, [reader.vbr()])
        if kind == CONST_SYMBOL:
            return cls(kind, [reader.vbr()])
        if kind in (CONST_ARRAY, CONST_STRUCT):
            type_index = reader.vbr()
            count = reader.vbr()
            elements = [cls.parse(reader) for _ in range(count)]
            return cls(kind, [type_index, elements])
        raise BitcodeError("bad constant kind {0}".format(kind))

    def materialize(self, module_reader: _ModuleReader) -> values.Constant:
        payload = self.payload
        if self.kind in (CONST_ARRAY, CONST_STRUCT):
            elements = [lazy.materialize(module_reader)
                        for lazy in payload[1]]
            type_ = module_reader._type(payload[0])
            if self.kind == CONST_ARRAY:
                if not isinstance(type_, types.ArrayType):
                    raise BitcodeError(
                        "array constant of type {0}".format(type_))
                return values.ConstantArray(type_.element, elements)
            if not isinstance(type_, types.StructType):
                raise BitcodeError(
                    "struct constant of type {0}".format(type_))
            return values.ConstantStruct(type_, elements)
        return module_reader._constant_from_record((self.kind, payload))

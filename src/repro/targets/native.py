"""Native object code: the output of translation.

A :class:`NativeModule` holds the translated machine functions for one
target plus size/count accounting (the "Native size" and "#X86/#SPARC
Inst." columns of Table 2).  It serializes to a compact byte format so
LLEE can cache translations offline through the storage API
(Section 4.1) and reload them with a relocation step.
"""

from __future__ import annotations

import hashlib
import json
import marshal
from sys import intern
from typing import Dict, Optional, Tuple

from repro.ir import types
from repro.ir.module import Module
from repro.targets.machine import (
    Imm,
    LabelRef,
    MachineFunction,
    MachineInstr,
    Mem,
    PhysReg,
    SymRef,
    TargetInfo,
)

NATIVE_MAGIC = "LLVA-NATIVE-2"


class NativeModule:
    """Translated code for one target."""

    def __init__(self, target: TargetInfo, source_name: str = "module"):
        self.target = target
        self.source_name = source_name
        self.functions: Dict[str, MachineFunction] = {}

    def add_function(self, machine: MachineFunction) -> MachineFunction:
        self.functions[machine.name] = machine
        return machine

    def num_instructions(self) -> int:
        return sum(f.num_instructions() for f in self.functions.values())

    def code_size(self) -> int:
        """Total encoded bytes of machine code."""
        return sum(f.code_size() for f in self.functions.values())

    def data_size(self, module: Module) -> int:
        """Bytes of *initialized* global data in the executable file.

        Zero-initialized and uninitialized globals live in .bss: they
        occupy address space but no file bytes, in the native executable
        and in the virtual object code alike.
        """
        from repro.ir.values import ConstantZero

        td = self.target.target_data
        total = 0
        for variable in module.globals.values():
            if variable.initializer is None \
                    or isinstance(variable.initializer, ConstantZero):
                total += 16  # symbol + bss record overhead only
                continue
            try:
                total += td.size_of(variable.value_type)
            except types.LlvaTypeError:
                pass
        return total

    def executable_size(self, module: Module,
                        per_function_overhead: int = 32,
                        base_overhead: int = 1024) -> int:
        """A linked-executable size model: code + data + symbol/linkage
        overhead (headers, plt-like stubs)."""
        return (self.code_size() + self.data_size(module)
                + per_function_overhead * len(self.functions)
                + base_overhead)


def translate_module(module: Module, target) -> NativeModule:
    """Translate every defined function of *module* (the offline,
    whole-module translation mode)."""
    native = NativeModule(target, module.name)
    for function in module.functions.values():
        if function.is_declaration:
            continue
        native.add_function(target.translate_function(function))
    return native


# ---------------------------------------------------------------------------
# Serialization (for the LLEE offline cache)
# ---------------------------------------------------------------------------

_TYPE_BY_NAME = dict(types.PRIMITIVES)


def _type_tag(type_: Optional[types.Type], target: TargetInfo) -> str:
    if type_ is None:
        return ""
    if type_.is_pointer:
        # Machine code only needs a pointer's size and integer-ness.
        return "ptr"
    return str(type_)


def _type_from_tag(tag: str, target: TargetInfo) -> Optional[types.Type]:
    if not tag:
        return None
    if tag == "ptr":
        return types.pointer_to(types.SBYTE)
    primitive = _TYPE_BY_NAME.get(tag)
    if primitive is not None:
        return primitive
    raise ValueError("bad native type tag {0!r}".format(tag))


def _operand_to_json(operand, target: TargetInfo):
    if isinstance(operand, PhysReg):
        return ["r", operand.name, 1 if operand.is_float else 0]
    if isinstance(operand, Imm):
        return ["i", operand.value]
    if isinstance(operand, Mem):
        return ["m",
                operand.base.name if operand.base is not None else None,
                operand.offset,
                operand.index.name if operand.index is not None else None,
                operand.scale,
                operand.symbol]
    if isinstance(operand, LabelRef):
        return ["l", operand.name]
    if isinstance(operand, SymRef):
        return ["s", operand.name]
    raise TypeError(
        "unserializable operand {0!r} (virtual registers must be "
        "allocated before caching)".format(operand))


_TYPE_ATTRS = ("value_type", "mem_value_type", "from_type", "to_type",
               "return_type")


def serialize_native(native: NativeModule) -> bytes:
    """Encode a native module for the offline cache.

    The blob is one header line, ``NATIVE_MAGIC`` and the SHA-256 of the
    payload, followed by the JSON payload itself.
    """
    target = native.target
    payload = {
        "target": target.name,
        "source": native.source_name,
        "functions": [],
    }
    for machine in native.functions.values():
        blocks = []
        for block in machine.blocks:
            instrs = []
            for instr in block.instructions:
                attrs = {}
                for key, value in instr.attrs.items():
                    if key in _TYPE_ATTRS:
                        attrs[key] = _type_tag(value, target)
                    else:
                        attrs[key] = value
                instrs.append([
                    instr.mnemonic, instr.semantics,
                    [_operand_to_json(op, target)
                     for op in instr.operands],
                    attrs,
                ])
            blocks.append([block.name, instrs])
        payload["functions"].append({
            "name": machine.name,
            "frame_size": machine.frame_size,
            "smc_version": machine.smc_version,
            "blocks": blocks,
        })
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    header = "{0} {1}\n".format(NATIVE_MAGIC,
                                hashlib.sha256(body).hexdigest())
    return header.encode("ascii") + body


def _checked(data: bytes) -> Tuple[bytes, bytes]:
    """The header line and payload of a native cache object whose
    payload hashes to its header's digest; ``ValueError`` otherwise."""
    header, _, body = data.partition(b"\n")
    magic, _, digest = header.partition(b" ")
    if magic != NATIVE_MAGIC.encode("ascii"):
        raise ValueError("not a native cache object")
    if digest != hashlib.sha256(body).hexdigest().encode("ascii"):
        raise ValueError("native cache object fails its checksum")
    return header, body


def native_header(data: bytes) -> bytes:
    """The header line of a native cache object (magic and payload
    digest), once the payload is checked against it; raises
    ``ValueError`` as :func:`deserialize_native` does.  Two objects
    with one header line hold the same code."""
    return _checked(data)[0]


def deserialize_native(data: bytes, target) -> NativeModule:
    """Decode a cached native module; raises ``ValueError`` when the
    blob is not one :func:`serialize_native` wrote, its payload does not
    match its checksum, or it was produced for a different target (the
    validation step of Section 4.1's cache lookup)."""
    _header, body = _checked(data)
    payload = json.loads(body.decode("utf-8"))
    if payload.get("target") != target.name:
        raise ValueError(
            "cached translation is for target {0!r}, not {1!r}"
            .format(payload.get("target"), target.name))
    native = NativeModule(target, payload.get("source", "module"))
    loader = _Loader(target)
    shared = loader.instrs.get
    load = loader.instruction
    dumps = marshal.dumps
    for record in payload["functions"]:
        machine = MachineFunction(intern(record["name"]), target)
        machine.frame_size = record["frame_size"]
        machine.smc_version = record.get("smc_version", 0)
        for block_name, instr_records in record["blocks"]:
            machine.add_block(intern(block_name)).instructions = [
                shared(k := dumps(r, _KEY)) or load(r, k)
                for r in instr_records]
        native.add_function(machine)
    return native


#: The ``marshal`` version of the loader's keys.  Unlike ``==``, its
#: encoding tells apart 1, 1.0 and true, 0.0 and -0.0, and attrs in
#: another order; version 2 writes no back-references, so equal values
#: encode alike.
_KEY = 2


class _Loader:
    """Loads each distinct instruction record, operand record and attrs
    dict of one module once, and interns the names in them.

    A module has about two distinct instructions per five, one distinct
    operand per ten and one distinct attrs dict per twenty, so loaded
    code shares them; nothing changes machine code once it is loaded
    (only translation rewrites operands and attrs, on fresh code)."""

    def __init__(self, target: TargetInfo):
        self.target = target
        self.instrs: Dict[bytes, MachineInstr] = {}
        self.operands: Dict[bytes, object] = {}
        self.attrs: Dict[bytes, dict] = {}

    def instruction(self, record, key: bytes) -> MachineInstr:
        mnemonic, semantics, operand_records, attrs = record
        operands = self.operands
        loaded = []
        for operand_record in operand_records:
            operand_key = marshal.dumps(operand_record, _KEY)
            operand = operands.get(operand_key)
            if operand is None:
                operand = operands[operand_key] = _operand(operand_record)
            loaded.append(operand)
        instr = MachineInstr(intern(mnemonic), intern(semantics), loaded)
        attrs_key = marshal.dumps(attrs, _KEY)
        shared = self.attrs.get(attrs_key)
        if shared is None:
            shared = self.attrs[attrs_key] = {
                intern(name): _type_from_tag(value, self.target)
                if name in _TYPE_ATTRS else _interned(value)
                for name, value in attrs.items()}
        instr.attrs = shared
        self.instrs[key] = instr
        return instr


def _operand(record):
    kind = record[0]
    if kind == "r":
        return PhysReg(intern(record[1]), bool(record[2]))
    if kind == "i":
        return Imm(record[1])
    if kind == "m":
        return Mem(base=_register(record[1]), offset=record[2],
                   index=_register(record[3]), scale=record[4],
                   symbol=_interned(record[5]))
    if kind == "l":
        return LabelRef(intern(record[1]))
    if kind == "s":
        return SymRef(intern(record[1]))
    raise ValueError("bad operand kind {0!r}".format(kind))


def _register(name: Optional[str]) -> Optional[PhysReg]:
    return PhysReg(intern(name)) if name is not None else None


def _interned(value):
    return intern(value) if type(value) is str else value

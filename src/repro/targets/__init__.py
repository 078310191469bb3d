"""Translators from LLVA to the two simulated hardware I-ISAs.

The x86 back end pairs naive CISC selection with the spill-everything
allocator ("virtually no optimization and very simple register
allocation", Section 5.2); the SPARC back end pairs RISC legalization
(immediate synthesis, delay slots, explicit loads/stores) with a linear
scan allocator.  Both share the lowering driver in
:mod:`repro.targets.codegen`.
"""

from repro.targets.codegen import FunctionLowering
from repro.targets.machine import (
    MachineBasicBlock,
    MachineError,
    MachineFunction,
    MachineInstr,
    Semantics,
    TargetInfo,
    spill_slot_type,
)
from repro.targets.native import (
    NativeModule,
    deserialize_native,
    serialize_native,
    translate_module,
)
from repro.targets.sparc import make_sparc_target
from repro.targets.verify import (
    MachineVerificationError,
    disassemble,
    verify_machine_function,
    verify_native_module,
)
from repro.targets.x86 import make_x86_target

TARGET_FACTORIES = {
    "x86": make_x86_target,
    "sparc": make_sparc_target,
}


def make_target(name: str):
    """Construct a target by name (``x86`` or ``sparc``)."""
    return TARGET_FACTORIES[name]()


__all__ = [
    "FunctionLowering",
    "MachineBasicBlock",
    "MachineError",
    "MachineFunction",
    "MachineInstr",
    "Semantics",
    "TargetInfo",
    "spill_slot_type",
    "NativeModule",
    "deserialize_native",
    "serialize_native",
    "translate_module",
    "make_sparc_target",
    "make_x86_target",
    "make_target",
    "TARGET_FACTORIES",
    "MachineVerificationError",
    "disassemble",
    "verify_machine_function",
    "verify_native_module",
]

"""Tier-2 translator: hot LLVA functions compiled to Python bytecode.

The fast engine (:mod:`repro.execution.fastpath`) is tier 1: every
function is lowered once into arrays of specialized closures and run
through a dispatch loop.  That pays one Python call per instruction.
This module is tier 2: a *hot* function is compiled into Python
**source**, then ``compile()``d into a genuine Python bytecode
generator function —

* registers become dense local variables (``r0``, ``r1``, ...) named by
  the same V-ABI slot numbering tier 1 uses, so trap-handler register
  snapshots stay identical across tiers;
* a block with exactly one incoming edge slot runs in place: its code
  follows that edge's phi copies, step bump and budget check.  The
  entry and every other block is an arm of a ``while True`` loop,
  reached through a balanced tree of ``__blk < k`` tests (at most
  ceil(log2(n)) comparisons for n arms); an edge to one assigns
  ``__blk`` and continues the loop.  Every path through a block ends in
  ``return``, ``continue`` or ``raise``, so a branch emits one side
  under an ``if`` and lets the other follow at the same depth, nesting
  only when both sides run in place; past :data:`_MAX_IN_PLACE_DEPTH`
  in-place blocks below an arm an edge dispatches instead, which keeps
  the source inside CPython's indentation limit.  No per-instruction
  dispatch at all;
* step counting is merged: one ``__steps += k`` per straight-line run,
  placed so the architectural count is exact at every fault point, and
  a budget check is one line (``__limit`` stores the count and builds
  the :class:`StepLimitExceeded`);
* constant ``getelementptr`` chains fold to literal byte offsets, and
  a scalar load or store is one ``__ld(p, C)``/``__st(p, C, v)`` call
  (:meth:`~repro.execution.memory.Memory.load`/``store``), where ``C``
  is a codec constant of the unit's namespace and a constant store
  value is masked at code generation.  Through a global, or a
  ``getelementptr`` of one, the address is first tested the way
  ``Memory.load`` tests for the global arena (``GLOBAL_BASE <= p`` and
  ``p + size <= global_end``); an address that passes is one
  ``C.unpack_from``/``C.pack_into`` on
  :attr:`~repro.execution.memory.Memory.global_arena`, and any other
  takes ``__ld``/``__st``, so every fault keeps its report;
* a cast that cannot change its value
  (:attr:`~repro.ir.instructions.CastInst.preserves_value`) is a copy,
  which relies on every register holding a value of its type (an entry
  function's arguments included: ``repro run`` rejects one outside its
  parameter's range);
* the constants of a run — the memory helpers the body uses (the
  global arena and its end among them), each referenced global's
  address, the runtime handlers it calls and ``max_steps`` — are
  computed once per unit per run by the unit's
  ``__bind(st)`` and passed as the defaults of ``__tier2``'s trailing
  parameters (:meth:`CompiledUnit.bind`), so a call runs no prologue;
* a runtime routine is a direct call of its handler.

The compiled unit is a **generator**.  Anything that touches the frame
stack is *yielded* as a request to the tier-2 driver
(``fastpath._tier2_driver``): an LLVA call, an intrinsic, an indirect
call, and a trap to deliver.  The driver keeps the explicit frame stack
in charge: it pushes a tier-2 callee's frame and runs its generator in
the same loop, and it returns to the tier-1 run loop only to run a
tier-1 frame or a trap handler, so deep LLVA recursion never grows the
host stack and a tier-1 caller can call a tier-2 callee (and vice
versa) freely.  A runtime fault is caught in the generated code (a
direct runtime call) or thrown *into* the generator at the yield point,
so the ExceptionsEnabled masking rules run in compiled code with the
same semantics as tier 1.

Functions the code generator does not support (``invoke``/``unwind``
bodies, exotic operands) are *pinned* to tier 1; a delivered trap
inside a tier-2 activation completes precisely in place and then
*deopts* the function (future invocations run tier 1).  Tier 2 never
runs under llva-san: :class:`~repro.execution.config.ExecConfig`
rejects the combination, because shadow-memory checking needs
per-instruction sites.

Promotion is counter-driven: a function is compiled after
``threshold`` tier-1 invocations, or once its tier-1 activations have
accumulated :data:`DEFAULT_STEP_THRESHOLD` architectural steps
(credited on return).  ``threshold=0`` promotes on first call.

Translations persist across processes through the Section 4.1 storage
API: :meth:`Tier2Cache.attach_storage` loads previously generated
sources (one blob per executable, keyed by :func:`cache_key`; per
function a content hash, with engine-version, timestamp and
target-fingerprint validation) so a warm start skips source generation
and goes straight to ``compile()`` — or skips even that, when the blob
carries ``.pyc``-style marshalled bytecode from the same Python build
(``sys.implementation.cache_tag``); :meth:`Tier2Cache.flush_storage`
writes new translations back.  Any corrupt, truncated, stale, or
version-mismatched blob logs the ``llee.cache.invalid`` metric and
falls back to online translation.
"""

from __future__ import annotations

import base64
import hashlib
import json
import marshal
import math
import struct
import sys
import time
from types import FunctionType
from typing import Dict, List, Optional, Tuple

from repro import observe
from repro.execution.config import DEFAULT_THRESHOLD
from repro.execution.events import ExecutionTrap
from repro.execution.interpreter import (
    StepLimitExceeded,
    _float_arith,
    _pointer_mask,
    _round_f32,
    _zero_of,
)
from repro.execution.fastpath import _vector_struct_format
from repro.execution.memory import (
    CODECS,
    GLOBAL_BASE,
    MemoryError_,
    _CODEC_TYPES,
    _FP_FORMAT,
    scalar_codec,
    store_codec,
)
from repro.execution.runtime import is_runtime_name
from repro.ir import instructions as insts
from repro.ir import types
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.printer import print_function
from repro.ir.values import (
    ConstantBool,
    ConstantFP,
    ConstantInt,
    ConstantNull,
    UndefValue,
)
from repro.llee.storage import load_entry, store_entry

#: Bump whenever generated code or the yield protocol changes shape;
#: persisted translations from other versions are discarded.
#: v3: trace-arm exits record a lifecycle event (gone in v7).
#: v4: the vector extension (vadd/vsub/vmul, vsplat, vreduce.*,
#: vload/vstore) lowers to tuple-valued registers, and generated code
#: carries the ``__vlanes`` observability hook.
#: v5: contiguous vload/vstore go through one bulk read/write (single
#: region lookup, one struct format) with a per-lane replay on fault.
#: v6: the blob carries a SHA-256 of its ``functions`` payload.
#: v7: one code shape (block dispatch): the factory takes no
#: mid-function entry argument, and blob entries carry only ``hash``,
#: ``num_slots``, ``func_refs``, ``source`` and ``code``.
#: v8: scalar loads and stores are ``__ld(p, C)``/``__st(p, C, v)``
#: with codec constants, and the prologue binds only the helpers used.
#: v9: no prologue: ``__bind(st)`` computes the per-run constants, which
#: the engine passes as ``__tier2``'s parameter defaults, and a runtime
#: routine is called directly instead of yielded.
#: v10: a block with one incoming edge runs in place at the end of it,
#: the other blocks dispatch through a balanced ``__blk < k`` test, a
#: load or store through a global is a codec call on the global arena
#: when the address passes its bounds test, a value-preserving cast is
#: a copy, and a budget check is one line.
TIER2_VERSION = 10

#: Architectural steps credited to a function (on return of its tier-1
#: activations) before it is promoted regardless of invocation count.
DEFAULT_STEP_THRESHOLD = 50_000

#: Storage-API cache name for persisted translations.
TIER2_CACHE_NAME = "llee-tier2"


class UnsupportedFunction(Exception):
    """Raised by the code generator for functions tier 2 cannot compile
    (the function is then pinned to tier 1)."""


class CompiledUnit:
    """One tier-2 translation: a generator factory plus its metadata."""

    __slots__ = ("function", "smc_version", "factory", "binder",
                 "num_args", "num_slots", "source", "func_hash", "code")

    def __init__(self, function, smc_version, factory, binder, num_args,
                 num_slots, source, func_hash, code):
        self.function = function
        self.smc_version = smc_version
        #: ``(st, args, *per-run constants) -> generator``; call the
        #: function :meth:`bind` returns instead.
        self.factory = factory
        #: ``st -> per-run constants``, in ``factory``'s parameter order.
        self.binder = binder
        self.num_args = num_args
        self.num_slots = num_slots
        self.source = source
        self.func_hash = func_hash
        #: The module-level code object ``exec``'d to make ``factory``;
        #: persisted (marshalled, .pyc-style) so warm starts skip both
        #: codegen and ``compile()``.
        self.code = code

    def bind(self, st) -> FunctionType:
        """The unit's generator function for one run of the engine *st*:
        ``factory`` with the run's constants (memory helpers, global
        addresses, runtime handlers, the step budget) as the defaults
        of its trailing parameters, so a call passes only ``st`` and
        the argument sequence.  The engine keeps it until the run
        ends."""
        factory = self.factory
        return FunctionType(factory.__code__, factory.__globals__,
                            factory.__name__, self.binder(st))


class Tier2Stats:
    __slots__ = ("functions_compiled", "warm_compiles", "codegen_seconds",
                 "compile_seconds", "invalidations", "deopts", "pins",
                 "promotions_by_steps")

    def __init__(self):
        self.functions_compiled = 0
        #: Compilations served from a persisted source (codegen skipped).
        self.warm_compiles = 0
        self.codegen_seconds = 0.0
        #: Total translation time (source generation + ``compile()``).
        self.compile_seconds = 0.0
        self.invalidations = 0
        self.deopts = 0
        self.pins = 0
        self.promotions_by_steps = 0


def _functions_digest(functions: dict) -> str:
    """SHA-256 of a persisted ``functions`` payload in canonical JSON:
    a blob whose sources or marshalled bytecode were altered on disk
    is rejected before any entry is compiled or executed."""
    return hashlib.sha256(json.dumps(functions, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def cache_key(object_code: bytes) -> str:
    """The ``llee-tier2`` cache key of a virtual executable: the digest
    of its object code alone.  A blob depends only on the module and
    checks the pointer size and byte order it was generated for itself,
    so the CLI and an LLEE of any target share one entry."""
    return hashlib.sha256(object_code).hexdigest()[:24]


def function_hash(function: Function) -> str:
    """A stable content hash of one function body (the per-function
    component of the persistent translation key)."""
    return hashlib.sha256(
        print_function(function).encode("utf-8")).hexdigest()[:24]


# ---------------------------------------------------------------------------
# The code generator
# ---------------------------------------------------------------------------

_CMP_OP = {"seteq": "==", "setne": "!=", "setlt": "<",
           "setgt": ">", "setle": "<=", "setge": ">="}
_BIN_OP = {"add": "+", "sub": "-", "mul": "*",
           "and": "&", "or": "|", "xor": "^"}


class _SourceWriter:
    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _FnCodegen:
    """Generates the Python source of one tier-2 generator function."""

    def __init__(self, function: Function, target: types.TargetData):
        self.function = function
        self.target = target
        self.w = _SourceWriter()
        self.slot_of: Dict[int, int] = {}
        #: id(block) -> its dispatch arm's ``__blk`` value, for the
        #: blocks that do not run in place (:meth:`plan_layout`).
        self.arm_of: Dict[int, int] = {}
        #: alias -> referenced module-level symbol name (functions and
        #: globals both resolve through the image at generator entry).
        self.global_refs: Dict[str, str] = {}
        self._alias_of: Dict[str, str] = {}
        #: aliases of direct-call Function targets: alias -> name.
        self.func_refs: Dict[str, str] = {}
        self._func_alias_of: Dict[str, str] = {}
        #: The memory helpers the body calls (names of _HELPERS).
        self.helpers: set = set()
        #: aliases of direct-call runtime routines: alias -> name.
        self.runtime_refs: Dict[str, str] = {}
        self._runtime_alias_of: Dict[str, str] = {}
        self.uses_budget = False
        self._tmp = 0

    # -- operands ------------------------------------------------------

    def expr(self, operand) -> str:
        slot = self.slot_of.get(id(operand))
        if slot is not None:
            return "r{0}".format(slot)
        if isinstance(operand, ConstantInt):
            return repr(operand.value)
        if isinstance(operand, ConstantBool):
            return "True" if operand.value else "False"
        if isinstance(operand, ConstantFP):
            value = operand.value
            if not math.isfinite(value):
                raise UnsupportedFunction("non-finite float constant")
            return repr(value)
        if isinstance(operand, ConstantNull):
            return "0"
        if isinstance(operand, UndefValue):
            return repr(_zero_of(operand.type))
        if isinstance(operand, (Function, GlobalVariable)):
            return self.global_ref(operand.name)
        raise UnsupportedFunction(
            "unresolvable operand {0!r}".format(
                getattr(operand, "name", operand)))

    def global_ref(self, name: str) -> str:
        alias = self._alias_of.get(name)
        if alias is None:
            alias = "__g{0}".format(len(self.global_refs))
            self.global_refs[alias] = name
            self._alias_of[name] = alias
        return alias

    def func_ref(self, function: Function) -> str:
        alias = self._func_alias_of.get(function.name)
        if alias is None:
            alias = "__fn{0}".format(len(self.func_refs))
            self.func_refs[alias] = function.name
            self._func_alias_of[function.name] = alias
        return alias

    def runtime_ref(self, name: str) -> str:
        alias = self._runtime_alias_of.get(name)
        if alias is None:
            alias = "__rt{0}".format(len(self.runtime_refs))
            self.runtime_refs[alias] = name
            self._runtime_alias_of[name] = alias
        return alias

    def emit_budget_check(self, ind: int) -> None:
        """Raise StepLimitExceeded once ``__steps`` passes the run's
        step budget ``__ms`` (``__limit`` stores the count first)."""
        self.uses_budget = True
        self.w.emit(ind, "if __steps > __ms: raise __limit(st, __steps)")

    def tmp(self) -> str:
        self._tmp += 1
        return "__t{0}".format(self._tmp)

    # -- integer helpers -----------------------------------------------

    @staticmethod
    def wrap_expr(expr: str, type_) -> str:
        mask = (1 << type_.bits) - 1
        if type_.is_signed:
            sign = 1 << (type_.bits - 1)
            return "((({0}) & {1}) ^ {2}) - {2}".format(expr, mask, sign)
        return "({0}) & {1}".format(expr, mask)

    # -- the fault suffix ----------------------------------------------

    def emit_exc_fault(self, ind: int, inst, dst: Optional[int]) -> None:
        """Inside ``except ... as __f:`` — apply the ExceptionsEnabled
        rule to a caught memory/stack fault, exactly like tier 1's
        ``_fast_fault``: deliver when unmaskable or (!ee and the dynamic
        mask allows), else complete with a zero result."""
        if inst.exceptions_enabled:
            self.w.emit(ind, "if __f.unmaskable or st.exceptions_dynamic:")
        else:
            self.w.emit(ind, "if __f.unmaskable:")
        self.w.emit(ind + 1, "st.steps = __steps")
        self.w.emit(ind + 1, "yield ('trap', __f.trap_number, "
                             "__f.address or 0, __f.detail)")
        self.w.emit(ind + 1, "__steps = st.steps")
        if dst is not None:
            self.w.emit(ind, "r{0} = {1!r}".format(dst, _zero_of(inst.type)))

    def emit_explicit_trap(self, ind: int, inst, dst: Optional[int],
                           trapno: int, masked_value_expr: str) -> None:
        """A condition the generated code detects itself (divide by
        zero, integer overflow): deliver if the static !ee bit and the
        dynamic mask agree, else store *masked_value_expr*."""
        if inst.exceptions_enabled:
            self.w.emit(ind, "if st.exceptions_dynamic:")
            self.w.emit(ind + 1, "st.steps = __steps")
            self.w.emit(ind + 1, "yield ('trap', {0}, 0, '')".format(trapno))
            self.w.emit(ind + 1, "__steps = st.steps")
            if dst is not None:
                self.w.emit(ind + 1,
                            "r{0} = {1!r}".format(dst, _zero_of(inst.type)))
            self.w.emit(ind, "else:")
            if dst is not None:
                self.w.emit(ind + 1, "r{0} = {1}".format(dst,
                                                         masked_value_expr))
            else:
                self.w.emit(ind + 1, "pass")
        else:
            if dst is not None:
                self.w.emit(ind, "r{0} = {1}".format(dst, masked_value_expr))

    # -- instruction emitters ------------------------------------------
    # Each returns True if it handled its own step accounting (faultable
    # ops are preceded by a flushed "__steps += run" by the block walker).

    def emit_arith(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        a = self.expr(inst.operand(0))
        b = self.expr(inst.operand(1))
        opcode = inst.opcode
        type_ = inst.type
        if type_.is_floating_point:
            if opcode in ("add", "sub", "mul"):
                raw = "{0} {1} {2}".format(a, _BIN_OP[opcode], b)
            else:
                raw = "_float_arith({0!r}, {1}, {2})".format(opcode, a, b)
            if type_ is types.FLOAT:
                raw = "_round_f32({0})".format(raw)
            self.w.emit(ind, "r{0} = {1}".format(dst, raw))
            return
        if opcode in ("div", "rem"):
            self.emit_divrem(ind, inst, dst, a, b)
            return
        raw = "{0} {1} {2}".format(a, _BIN_OP[opcode], b)
        if inst.exceptions_enabled:
            # !ee arithmetic: overflow traps (when dynamically enabled),
            # otherwise the wrapped value is stored — never zero.
            v = self.tmp()
            w = self.tmp()
            self.w.emit(ind, "{0} = {1}".format(v, raw))
            self.w.emit(ind, "{0} = {1}".format(
                w, self.wrap_expr(v, type_)))
            self.w.emit(ind, "if {0} != {1} and st.exceptions_dynamic:"
                        .format(w, v))
            self.w.emit(ind + 1, "st.steps = __steps")
            self.w.emit(ind + 1, "yield ('trap', 3, 0, '')")
            self.w.emit(ind + 1, "__steps = st.steps")
            self.w.emit(ind + 1, "r{0} = {1!r}".format(dst,
                                                       _zero_of(type_)))
            self.w.emit(ind, "else:")
            self.w.emit(ind + 1, "r{0} = {1}".format(dst, w))
            return
        self.w.emit(ind, "r{0} = {1}".format(dst, self.wrap_expr(raw, type_)))

    @staticmethod
    def _divrem_const_divisor(inst) -> Optional[int]:
        """For integer div/rem whose divisor is a nonzero constant that
        can neither trap nor overflow, the divisor's Python value; else
        None.  (Signed ``div`` by -1 keeps the checked path — INT_MIN
        divided by -1 is the one overflowing case.)"""
        if inst.opcode not in ("div", "rem"):
            return None
        type_ = inst.type
        if not type_.is_integer:
            return None
        divisor = inst.operand(1)
        if not isinstance(divisor, ConstantInt):
            return None
        value = int(divisor.value)
        if value == 0:
            return None
        if not type_.is_signed and value < 0:
            return None
        if type_.is_signed and value == -1 and inst.opcode == "div":
            return None
        return value

    def _emit_divrem_const(self, ind: int, inst, dst: int, a: str,
                           const: int) -> None:
        """Constant-nonzero-divisor fast path: no zero-check suffix and
        no !ee overflow suffix (neither condition can occur).  Unsigned
        operands are non-negative, so Python's floor ``//``/``%``
        already *are* the truncating forms."""
        if not inst.type.is_signed:
            op = "//" if inst.opcode == "div" else "%"
            self.w.emit(ind, "r{0} = ({1}) {2} {3}".format(
                dst, a, op, const))
            return
        av = self.tmp()
        q = self.tmp()
        self.w.emit(ind, "{0} = {1}".format(av, a))
        self.w.emit(ind, "{0} = abs({1}) // {2}".format(q, av, abs(const)))
        self.w.emit(ind, "if {0} {1} 0:".format(av,
                                                "<" if const > 0 else ">"))
        self.w.emit(ind + 1, "{0} = -{0}".format(q))
        if inst.opcode == "div":
            self.w.emit(ind, "r{0} = {1}".format(dst, q))
        else:
            self.w.emit(ind, "r{0} = {1} - {2} * ({3})".format(
                dst, av, q, const))

    def emit_divrem(self, ind: int, inst, dst: int, a: str, b: str) -> None:
        type_ = inst.type
        const = self._divrem_const_divisor(inst)
        if const is not None:
            self._emit_divrem_const(ind, inst, dst, a, const)
            return
        bv = self.tmp()
        av = self.tmp()
        self.w.emit(ind, "{0} = {1}".format(av, a))
        self.w.emit(ind, "{0} = {1}".format(bv, b))
        self.w.emit(ind, "if {0} == 0:".format(bv))
        self.emit_explicit_trap(ind + 1, inst, dst, 2,
                                repr(_zero_of(type_)))
        if not inst.exceptions_enabled:
            # emit_explicit_trap emitted the masked store only; keep the
            # else arm below symmetric.
            pass
        self.w.emit(ind, "else:")
        q = self.tmp()
        self.w.emit(ind + 1, "{0} = abs({1}) // abs({2})".format(q, av, bv))
        self.w.emit(ind + 1, "if ({0} < 0) != ({1} < 0):".format(av, bv))
        self.w.emit(ind + 2, "{0} = -{0}".format(q))
        if inst.opcode == "div":
            raw = q
        else:
            raw = "{0} - {1} * {2}".format(av, q, bv)
        v = self.tmp()
        w = self.tmp()
        self.w.emit(ind + 1, "{0} = {1}".format(v, raw))
        self.w.emit(ind + 1, "{0} = {1}".format(w, self.wrap_expr(v, type_)))
        if inst.exceptions_enabled:
            self.w.emit(ind + 1, "if {0} != {1} and st.exceptions_dynamic:"
                        .format(w, v))
            self.w.emit(ind + 2, "st.steps = __steps")
            self.w.emit(ind + 2, "yield ('trap', 3, 0, '')")
            self.w.emit(ind + 2, "__steps = st.steps")
            self.w.emit(ind + 2, "r{0} = {1!r}".format(dst, _zero_of(type_)))
            self.w.emit(ind + 1, "else:")
            self.w.emit(ind + 2, "r{0} = {1}".format(dst, w))
        else:
            self.w.emit(ind + 1, "r{0} = {1}".format(dst, w))

    def emit_shift(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        type_ = inst.type
        bmask = type_.bits - 1
        a = self.expr(inst.operand(0))
        amount_operand = inst.operand(1)
        if isinstance(amount_operand, ConstantInt):
            amt = str(int(amount_operand.value) & bmask)
        else:
            amt = "(({0}) & {1})".format(self.expr(amount_operand), bmask)
        if inst.opcode == "shl":
            self.w.emit(ind, "r{0} = {1}".format(
                dst, self.wrap_expr("({0}) << {1}".format(a, amt), type_)))
        else:
            # shr is arithmetic for signed, logical for unsigned — both
            # are plain ``>>`` on the in-range host value.
            self.w.emit(ind, "r{0} = ({1}) >> {2}".format(dst, a, amt))

    def emit_compare(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        self.w.emit(ind, "r{0} = {1} {2} {3}".format(
            dst, self.expr(inst.operand(0)), _CMP_OP[inst.opcode],
            self.expr(inst.operand(1))))

    def emit_logical(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        self.w.emit(ind, "r{0} = {1} {2} {3}".format(
            dst, self.expr(inst.operand(0)), _BIN_OP[inst.opcode],
            self.expr(inst.operand(1))))

    def emit_access(self, ind: int, inst, pointer: str, size: int,
                    arena_call: str, checked_call: str,
                    dst: Optional[int]) -> None:
        """A scalar load or store: *checked_call* (``__ld``/``__st``)
        with the fault suffix.  Through a global, or a
        ``getelementptr`` of one, *arena_call* (one codec call on the
        global arena) runs instead when the address passes
        ``Memory.load``'s global test; such an access cannot fault."""
        if _global_based(inst.pointer):
            self.helpers.update(("__ga", "__ge"))
            self.w.emit(ind, "if {0} <= {1} and {1} + {2} <= __ge:".format(
                GLOBAL_BASE, pointer, size))
            self.w.emit(ind + 1, arena_call)
            self.w.emit(ind, "else:")
            ind += 1
        self.w.emit(ind, "try:")
        self.w.emit(ind + 1, checked_call)
        self.w.emit(ind, "except MemoryError_ as __f:")
        self.emit_exc_fault(ind + 1, inst, dst)

    def emit_load(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        codec = scalar_codec(self.target, inst.type)
        name = _CODEC_NAMES[codec]
        p = self.expr(inst.pointer)
        self.helpers.add("__ld")
        self.emit_access(
            ind, inst, p, codec.size,
            "r{0} = {1}.unpack_from(__ga, {2} - {3})[0]".format(
                dst, name, p, GLOBAL_BASE),
            "r{0} = __ld({1}, {2})".format(dst, p, name), dst)

    def emit_store(self, ind: int, inst) -> None:
        vtype = inst.value.type
        codec = store_codec(self.target, vtype)
        name = _CODEC_NAMES[codec]
        self.helpers.add("__st")
        value_operand = inst.value
        value = self.expr(value_operand)
        if vtype.is_integer or vtype.is_pointer:
            # The codec is unsigned: store the value masked to its width.
            mask = ((1 << vtype.bits) - 1 if vtype.is_integer
                    else _pointer_mask(self.target))
            if isinstance(value_operand, (ConstantInt, ConstantNull)):
                const = 0 if isinstance(value_operand, ConstantNull) \
                    else int(value_operand.value)
                value = repr(const & mask)
            else:
                value = "({0}) & {1}".format(value, mask)
        p = self.expr(inst.pointer)
        self.emit_access(
            ind, inst, p, codec.size,
            "{0}.pack_into(__ga, {1} - {2}, {3})".format(
                name, p, GLOBAL_BASE, value),
            "__st({0}, {1}, {2})".format(p, name, value), None)

    def emit_gep(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        target = self.target
        pointee = inst.pointer.type.pointee
        pmask = _pointer_mask(target)
        p = self.expr(inst.pointer)
        const_indices = inst.constant_indices()
        if const_indices is not None:
            off = target.gep_offset(pointee, list(const_indices))
            if off:
                self.w.emit(ind, "r{0} = (({1}) + {2}) & {3}".format(
                    dst, p, off, pmask))
            else:
                self.w.emit(ind, "r{0} = ({1}) & {2}".format(dst, p, pmask))
            return
        const_off = 0
        terms: List[str] = []
        current: types.Type = pointee
        for position, index_value in enumerate(inst.indices):
            if position == 0:
                scale = target.size_of(current)
            elif current.is_struct:
                field = index_value.value  # constant ubyte by construction
                const_off += target.struct_offsets(current)[field]
                current = current.fields[field]
                continue
            else:  # array
                scale = target.size_of(current.element)
                current = current.element
            if isinstance(index_value, ConstantInt):
                const_off += int(index_value.value) * scale
            else:
                terms.append("({0}) * {1}".format(self.expr(index_value),
                                                  scale))
        pieces = [("({0})".format(p))]
        if const_off:
            pieces.append(str(const_off))
        pieces.extend(terms)
        self.w.emit(ind, "r{0} = ({1}) & {2}".format(
            dst, " + ".join(pieces), pmask))

    def emit_alloca(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        target = self.target
        esize = target.size_of(inst.allocated_type)
        align = max(target.align_of(inst.allocated_type), 1)
        self.helpers.add("__mem")
        count_operand = inst.count
        if count_operand is None or isinstance(count_operand, ConstantInt):
            count = 1 if count_operand is None else count_operand.value
            total = max(esize * max(count, 0), 1)
            size_expr = str(total)
        else:
            size_expr = "max({0} * max({1}, 0), 1)".format(
                esize, self.expr(count_operand))
        self.w.emit(ind, "try:")
        self.w.emit(ind + 1, "r{0} = __mem.push_frame({1}, {2})".format(
            dst, size_expr, align))
        self.w.emit(ind, "except ExecutionTrap as __f:")
        self.emit_exc_fault(ind + 1, inst, dst)

    def emit_cast(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        source = inst.value.type
        dest = inst.type
        v = self.expr(inst.value)
        if inst.preserves_value:
            self.w.emit(ind, "r{0} = {1}".format(dst, v))
            return
        if dest.is_bool:
            self.w.emit(ind, "r{0} = bool({1})".format(dst, v))
            return
        if dest.is_integer:
            if source.is_floating_point:
                t = self.tmp()
                self.w.emit(ind, "{0} = {1}".format(t, v))
                self.w.emit(
                    ind,
                    "{0} = 0 if {0} != {0} or {0} in (__inf, __ninf) "
                    "else int({0})".format(t))
                self.w.emit(ind, "r{0} = {1}".format(
                    dst, self.wrap_expr(t, dest)))
            elif source.is_bool:
                self.w.emit(ind, "r{0} = 1 if {1} else 0".format(dst, v))
            else:
                self.w.emit(ind, "r{0} = {1}".format(
                    dst, self.wrap_expr(v, dest)))
            return
        if dest.is_floating_point:
            if source.is_bool:
                raw = "1.0 if {0} else 0.0".format(v)
            else:
                raw = "float({0})".format(v)
            if dest is types.FLOAT:
                raw = "_round_f32({0})".format(raw)
            self.w.emit(ind, "r{0} = {1}".format(dst, raw))
            return
        if dest.is_pointer:
            if source.is_bool:
                self.w.emit(ind, "r{0} = 1 if {1} else 0".format(dst, v))
            elif source.is_floating_point:
                raise UnsupportedFunction("float-to-pointer cast")
            else:
                self.w.emit(ind, "r{0} = ({1}) & {2}".format(
                    dst, v, _pointer_mask(self.target)))
            return
        raise UnsupportedFunction(
            "cast {0} -> {1}".format(source, dest))

    # -- control flow --------------------------------------------------

    def emit_edge(self, ind: int, pred: BasicBlock, succ: BasicBlock,
                  extra: int) -> None:
        """Transfer to *succ*: simultaneous phi assignment, merged step
        bump (taken-branch + one per phi), the max_steps check, then
        *succ*'s body when it runs in place, else the dispatch to its
        arm."""
        phis = succ.phis()
        bump = extra + len(phis)
        if phis:
            dsts = []
            srcs = []
            for phi in phis:
                value = phi.incoming_for_block(pred)
                if value is None:
                    raise UnsupportedFunction("phi missing incoming edge")
                dsts.append("r{0}".format(self.slot_of[id(phi)]))
                srcs.append(self.expr(value))
            # Tuple assignment evaluates every source before any write —
            # the simultaneous-assignment phi semantics for free.
            self.w.emit(ind, "{0} = {1}".format(", ".join(dsts),
                                                ", ".join(srcs)))
        if bump:
            self.w.emit(ind, "__steps += {0}".format(bump))
            self.emit_budget_check(ind)
        arm = self.arm_of.get(id(succ))
        if arm is None:
            self.emit_block_body(succ, ind)
        else:
            self.w.emit(ind, "__blk = {0}".format(arm))
            self.w.emit(ind, "continue")

    # Every emitted block ends in ``return``, ``continue`` or ``raise``
    # on every path, so an arm emitted under an ``if`` needs no
    # ``else:``: the code after the ``if`` is the other arm.

    def emit_br(self, ind: int, block: BasicBlock, inst) -> None:
        targets = _taken_targets(inst)
        if len(targets) == 1:
            self.emit_edge(ind, block, targets[0], 1)
            return
        taken, fallen = targets
        cond = self.expr(inst.operand(0))
        if id(taken) not in self.arm_of and id(fallen) in self.arm_of:
            # The dispatching arm goes under the ``if``, so the one
            # that runs in place does not nest.
            self.w.emit(ind, "if not {0}:".format(cond))
            self.emit_edge(ind + 1, block, fallen, 1)
            self.emit_edge(ind, block, taken, 1)
            return
        self.w.emit(ind, "if {0}:".format(cond))
        self.emit_edge(ind + 1, block, taken, 1)
        self.emit_edge(ind, block, fallen, 1)

    def emit_mbr(self, ind: int, block: BasicBlock, inst) -> None:
        cases = _mbr_cases(inst)
        if cases:
            sel = self.tmp()
            self.w.emit(ind, "{0} = {1}".format(sel,
                                                self.expr(inst.selector)))
        for position, (value, label) in enumerate(cases):
            self.w.emit(ind, "{0} {1} == {2!r}:".format(
                "elif" if position else "if", sel, value))
            self.emit_edge(ind + 1, block, label, 1)
        self.emit_edge(ind, block, inst.default, 1)

    def emit_ret(self, ind: int, inst, pending: int) -> None:
        self.w.emit(ind, "st.steps = __steps + {0}".format(pending + 1))
        if inst.return_value is None:
            self.w.emit(ind, "return")
        else:
            self.w.emit(ind, "return {0}".format(
                self.expr(inst.return_value)))

    def emit_call(self, ind: int, inst, pending: int) -> None:
        """A call costs one step.  A runtime routine is called directly
        through its per-run handler; every other call is a request
        yielded to the driver.  Runtime faults are caught (or thrown
        back in at the yield) so the masking rules run here, with the
        compiled function's state live."""
        dst = self.slot_of.get(id(inst))
        args = ", ".join(self.expr(a) for a in inst.args)
        args_tuple = "({0},)".format(args) if args else "()"
        callee = inst.callee
        lhs = "r{0} = ".format(dst) if dst is not None else ""
        self.w.emit(ind, "__steps += {0}".format(pending + 1))
        if isinstance(callee, Function) and not callee.is_intrinsic \
                and not (callee.is_declaration
                         and is_runtime_name(callee.name)):
            # Direct LLVA call: the budget check precedes the push
            # (tier-1 parity), then the driver pushes a frame and the
            # return value is sent back into the generator.
            self.emit_budget_check(ind)
            self.w.emit(ind, "st.steps = __steps")
            self.w.emit(ind, "{0}yield ('call', {1}, {2})".format(
                lhs, self.func_ref(callee), args_tuple))
            self.w.emit(ind, "__steps = st.steps")
            return
        self.w.emit(ind, "st.steps = __steps")
        self.w.emit(ind, "try:")
        if isinstance(callee, Function) and not callee.is_intrinsic:
            # A runtime routine leaves the step count as it is, so
            # __steps needs no reload after it.
            self.w.emit(ind + 1, "{0}{1}({2})".format(
                lhs, self.runtime_ref(callee.name), args))
            self.w.emit(ind, "except MemoryError_ as __f:")
            self.emit_exc_fault(ind + 1, inst, dst)
            return
        if isinstance(callee, Function):
            request = "('intr', {0!r}, {1})".format(callee.name,
                                                    args_tuple)
        else:
            request = "('icall', {0}, {1})".format(self.expr(callee),
                                                   args_tuple)
        self.w.emit(ind + 1, "{0}yield {1}".format(lhs, request))
        self.w.emit(ind, "except MemoryError_ as __f:")
        self.emit_exc_fault(ind + 1, inst, dst)
        self.w.emit(ind, "__steps = st.steps")

    # -- vector emitters -----------------------------------------------
    # Vector runtime values are host tuples (one entry per lane), and
    # every lane walk is emitted 0..L-1 in order so results and fault
    # addresses match tiers 0/1 bit for bit.  ``vec.lanes`` counting
    # guards on the unit's ``__vlanes`` hook (None when the unit was
    # built with observability off — one is-None test per vector op).

    def _emit_vlanes(self, ind: int, lanes: int) -> None:
        self.w.emit(ind, "if __vlanes is not None:")
        self.w.emit(ind + 1, "__vlanes({0})".format(lanes))

    def emit_vbinary(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        a = self.expr(inst.operand(0))
        b = self.expr(inst.operand(1))
        op = _BIN_OP[inst.opcode[1:]]
        element = inst.type.element
        if element is types.FLOAT:
            lane = "_round_f32(__x {0} __y)".format(op)
        elif element.is_floating_point:
            lane = "__x {0} __y".format(op)
        else:
            # Vector integer arithmetic always wraps (no !ee overflow
            # delivery on the lanes), matching the reference tier.
            lane = self.wrap_expr("__x {0} __y".format(op), element)
        self.w.emit(ind, "r{0} = tuple({1} for __x, __y in zip({2}, {3}))"
                    .format(dst, lane, a, b))
        self._emit_vlanes(ind, inst.type.lanes)

    def emit_vsplat(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        lanes = inst.type.lanes
        self.w.emit(ind, "r{0} = (({1}),) * {2}".format(
            dst, self.expr(inst.scalar), lanes))
        self._emit_vlanes(ind, lanes)

    def emit_vreduce(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        kind = inst.kind
        element = inst.type
        self.w.emit(ind, "r{0} = {1}".format(dst, self.expr(inst.init)))
        self.w.emit(ind, "for __lane in {0}:".format(
            self.expr(inst.vector)))
        if kind == "add":
            if element is types.FLOAT:
                self.w.emit(ind + 1,
                            "r{0} = _round_f32(r{0} + __lane)".format(dst))
            elif element.is_floating_point:
                self.w.emit(ind + 1, "r{0} = r{0} + __lane".format(dst))
            else:
                self.w.emit(ind + 1, "r{0} = {1}".format(
                    dst,
                    self.wrap_expr("r{0} + __lane".format(dst), element)))
        elif kind == "min":
            # Explicit compare-and-keep (never host min/max): replays
            # the scalar ``x < acc`` select, NaN ordering included.
            self.w.emit(ind + 1, "if __lane < r{0}:".format(dst))
            self.w.emit(ind + 2, "r{0} = __lane".format(dst))
        else:
            self.w.emit(ind + 1, "if __lane > r{0}:".format(dst))
            self.w.emit(ind + 2, "r{0} = __lane".format(dst))
        self._emit_vlanes(ind, inst.vector.type.lanes)

    def emit_vload(self, ind: int, inst) -> None:
        dst = self.slot_of[id(inst)]
        element = inst.type.element
        lanes = inst.type.lanes
        esize = self.target.size_of(element)
        endian = self.target.endianness
        self.helpers.add("__rb")
        if element.is_integer:
            self.helpers.add("__fb")
        base = self.tmp()
        self.w.emit(ind, "{0} = {1}".format(base,
                                            self.expr(inst.pointer)))
        reads = []
        for off in range(0, lanes * esize, esize):
            addr = base if off == 0 else "{0} + {1}".format(base, off)
            raw = "__rb({0}, {1})".format(addr, esize)
            if isinstance(element, types.IntegerType) \
                    and element.is_signed:
                sbit = 1 << (element.bits - 1)
                reads.append("(__fb({0}, {1!r}) ^ {2}) - {2}".format(
                    raw, endian, sbit))
            elif element.is_integer:
                reads.append("__fb({0}, {1!r})".format(raw, endian))
            else:
                fmt = _FP_FORMAT[(esize, endian)]
                reads.append("__unpack({0!r}, {1})[0]".format(fmt, raw))
        bulk = _vector_struct_format(element, esize, endian, lanes)
        self.w.emit(ind, "try:")
        if bulk is not None:
            # One region lookup for the whole vector; a bulk fault
            # replays lane by lane (still inside the outer try) so the
            # delivered trap carries the reference tier's exact
            # faulting-lane address.
            self.w.emit(ind + 1, "try:")
            self.w.emit(ind + 2, "r{0} = __unpack({1!r}, __rb({2}, {3}))"
                        .format(dst, bulk, base, lanes * esize))
            self.w.emit(ind + 1, "except MemoryError_:")
            self.w.emit(ind + 2, "r{0} = ({1})".format(
                dst, ", ".join(reads)))
        else:
            self.w.emit(ind + 1, "r{0} = ({1})".format(
                dst, ", ".join(reads)))
        self._emit_vlanes(ind + 1, lanes)
        self.w.emit(ind, "except MemoryError_ as __f:")
        self.emit_exc_fault(ind + 1, inst, dst)

    def emit_vstore(self, ind: int, inst) -> None:
        vtype = inst.value.type
        element = vtype.element
        lanes = vtype.lanes
        esize = self.target.size_of(element)
        endian = self.target.endianness
        self.helpers.add("__wb")
        base = self.tmp()
        val = self.tmp()
        self.w.emit(ind, "{0} = {1}".format(base,
                                            self.expr(inst.pointer)))
        self.w.emit(ind, "{0} = {1}".format(val, self.expr(inst.value)))
        if element.is_floating_point:
            fmt = _FP_FORMAT[(esize, endian)]

            def lane_bytes(slot: int) -> str:
                return "__pack({0!r}, float({1}[{2}]))".format(fmt, val,
                                                               slot)

            def bulk_bytes(bulk: str) -> str:
                return "__pack({0!r}, *{1})".format(bulk, val)
        else:
            mask = (1 << element.bits) - 1

            def lane_bytes(slot: int) -> str:
                return "({0}[{1}] & {2}).to_bytes({3}, {4!r})".format(
                    val, slot, mask, esize, endian)

            def bulk_bytes(bulk: str) -> str:
                # Unsigned code of the same width: the lanes are packed
                # as their masked (two's-complement) byte image.
                bulk = bulk[:-1] + bulk[-1].upper()
                return "__pack({0!r}, *[__x & {1} for __x in {2}])" \
                    .format(bulk, mask, val)
        bulk = _vector_struct_format(element, esize, endian, lanes)
        self.w.emit(ind, "try:")
        lane_ind = ind + 1
        if bulk is not None:
            # Bulk store first; on a bulk fault replay lane by lane so
            # leading lanes land (stop-at-fault) and the trap carries
            # the exact faulting-lane address.
            self.w.emit(ind + 1, "try:")
            self.w.emit(ind + 2, "__wb({0}, {1})".format(
                base, bulk_bytes(bulk)))
            self.w.emit(ind + 1, "except MemoryError_:")
            lane_ind = ind + 2
        for slot in range(lanes):
            off = slot * esize
            addr = base if off == 0 else "{0} + {1}".format(base, off)
            self.w.emit(lane_ind, "__wb({0}, {1})".format(
                addr, lane_bytes(slot)))
        self._emit_vlanes(ind + 1, lanes)
        self.w.emit(ind, "except MemoryError_ as __f:")
        self.emit_exc_fault(ind + 1, inst, None)

    # -- the block walker ----------------------------------------------

    #: Opcodes whose generated code cannot fault, yield, or branch —
    #: their step counts merge into one ``__steps += k``.  Vector
    #: arithmetic wraps (and reductions fold) without trapping, so the
    #: whole register-only vector group is pure.
    _PURE = frozenset(["and", "or", "xor", "shl", "shr", "seteq", "setne",
                       "setlt", "setgt", "setle", "setge",
                       "getelementptr", "cast",
                       "vadd", "vsub", "vmul", "vsplat",
                       "vreduce.add", "vreduce.min", "vreduce.max"])

    def _is_pure(self, inst) -> bool:
        opcode = inst.opcode
        if opcode in self._PURE:
            return True
        if opcode in ("add", "sub", "mul"):
            # Pure unless the !ee bit makes overflow deliverable.
            return inst.type.is_floating_point \
                or not inst.exceptions_enabled
        if opcode in ("div", "rem"):
            # A constant nonzero divisor removes both the zero check
            # and the overflow suffix, so the op can neither trap nor
            # yield — its step merges like any other pure op.
            return not inst.type.is_floating_point \
                and self._divrem_const_divisor(inst) is not None
        return False

    def plan_layout(self, blocks: List[BasicBlock]) -> List[BasicBlock]:
        """Decide where each block's code goes, before any is emitted,
        and return the dispatch arms in block order (numbering
        :attr:`arm_of`).  A block other than the entry with exactly one
        incoming edge slot runs in place, at the end of that edge, up to
        :data:`_MAX_IN_PLACE_DEPTH` in-place blocks below its arm; past
        that depth, and for every other block, the edge dispatches to
        an arm.  A block with one slot that no emitted edge takes (the
        untaken side of a constant ``br``, a shadowed ``mbr`` case) is
        an arm too, so every block is emitted exactly once."""
        incoming: Dict[int, int] = {}
        for block in blocks:
            for succ in block.successors():
                incoming[id(succ)] = incoming.get(id(succ), 0) + 1
        #: id(block) -> in-place blocks between it and its arm (0: an arm)
        depth: Dict[int, int] = {}
        work = []
        for position, block in enumerate(blocks):
            if position == 0 or incoming.get(id(block), 0) != 1:
                depth[id(block)] = 0
                work.append(block)
        while True:
            while work:
                block = work.pop()
                below = depth[id(block)] + 1
                for succ in _taken_targets(block.instructions[-1]
                                           if block.instructions else None):
                    if id(succ) not in depth:
                        depth[id(succ)] = below \
                            if below <= _MAX_IN_PLACE_DEPTH else 0
                        work.append(succ)
            unplaced = [block for block in blocks if id(block) not in depth]
            if not unplaced:
                break
            depth[id(unplaced[0])] = 0
            work.append(unplaced[0])
        arms = [block for block in blocks if depth[id(block)] == 0]
        self.arm_of = {id(block): index for index, block in enumerate(arms)}
        return arms

    def emit_dispatch(self, arms: List[BasicBlock], low: int, high: int,
                      ind: int) -> None:
        """The arms ``low``..``high - 1`` under a balanced ``__blk <
        k`` test: reaching an arm costs ceil(log2(n)) comparisons."""
        while high - low > 1:
            middle = (low + high) // 2
            self.w.emit(ind, "if __blk < {0}:".format(middle))
            self.emit_dispatch(arms, low, middle, ind + 1)
            low = middle
        self.emit_block_body(arms[low], ind)

    def emit_block_body(self, block: BasicBlock, ind: int) -> None:
        instructions = block.instructions
        start = len(block.phis())
        pending = 0  # pure ops since the last __steps flush
        body_emitted = False
        for index in range(start, len(instructions)):
            inst = instructions[index]
            opcode = inst.opcode
            if opcode in ("invoke", "unwind"):
                raise UnsupportedFunction(opcode)
            if opcode == "phi":
                raise UnsupportedFunction("phi after block head")
            if self._is_pure(inst):
                pending += 1
                self._emit_simple(ind, inst)
                body_emitted = True
                continue
            if opcode == "br":
                if pending:
                    self.w.emit(ind, "__steps += {0}".format(pending))
                self.emit_br(ind, block, inst)
                return
            if opcode == "mbr":
                if pending:
                    self.w.emit(ind, "__steps += {0}".format(pending))
                self.emit_mbr(ind, block, inst)
                return
            if opcode == "ret":
                self.emit_ret(ind, inst, pending)
                return
            if opcode in ("call",):
                self.emit_call(ind, inst, pending)
                pending = 0
                body_emitted = True
                continue
            # Faultable straight-line op: its own step merges into the
            # preceding run so the count is exact at the fault point.
            self.w.emit(ind, "__steps += {0}".format(pending + 1))
            pending = 0
            if opcode in ("add", "sub", "mul", "div", "rem"):
                self.emit_arith(ind, inst)
            elif opcode == "load":
                self.emit_load(ind, inst)
            elif opcode == "store":
                self.emit_store(ind, inst)
            elif opcode == "vload":
                self.emit_vload(ind, inst)
            elif opcode == "vstore":
                self.emit_vstore(ind, inst)
            elif opcode == "alloca":
                self.emit_alloca(ind, inst)
            else:
                raise UnsupportedFunction("opcode {0}".format(opcode))
            body_emitted = True
        if not body_emitted:
            raise UnsupportedFunction("block without terminator")
        raise UnsupportedFunction("block falls through")

    def _emit_simple(self, ind: int, inst) -> None:
        opcode = inst.opcode
        if opcode in ("add", "sub", "mul", "div", "rem"):
            self.emit_arith(ind, inst)
        elif opcode in ("and", "or", "xor"):
            self.emit_logical(ind, inst)
        elif opcode in ("shl", "shr"):
            self.emit_shift(ind, inst)
        elif opcode in _CMP_OP:
            self.emit_compare(ind, inst)
        elif opcode == "getelementptr":
            self.emit_gep(ind, inst)
        elif opcode == "cast":
            self.emit_cast(ind, inst)
        elif opcode in ("vadd", "vsub", "vmul"):
            self.emit_vbinary(ind, inst)
        elif opcode == "vsplat":
            self.emit_vsplat(ind, inst)
        elif opcode in ("vreduce.add", "vreduce.min", "vreduce.max"):
            self.emit_vreduce(ind, inst)
        else:  # pragma: no cover - guarded by _is_pure
            raise UnsupportedFunction(opcode)

    # -- driver --------------------------------------------------------

    def generate(self) -> Tuple[str, int]:
        """Emit the whole generator function; returns (source,
        num_slots)."""
        function = self.function
        blocks = function.blocks
        if not blocks:
            raise UnsupportedFunction("declaration")
        slot = 0
        for arg in function.args:
            self.slot_of[id(arg)] = slot
            slot += 1
        for block in blocks:
            for inst in block.instructions:
                if inst.produces_value:
                    self.slot_of[id(inst)] = slot
                    slot += 1
        num_slots = slot
        arms = self.plan_layout(blocks)
        # Body first (so the binder binds only what is referenced).
        body = _SourceWriter()
        self.w = body
        self.emit_dispatch(arms, 0, len(arms), 2)
        # ``__bind(st)`` computes the per-run constants once per run;
        # the engine makes them the defaults of ``__tier2``'s trailing
        # parameters (CompiledUnit.bind).
        head = _SourceWriter()
        head.emit(0, "def __bind(st):")
        bound = []
        if self.helpers:
            head.emit(1, "__mem = st.memory")
            if "__mem" in self.helpers:
                bound.append("__mem")
        for name, value in _HELPERS:
            if name in self.helpers:
                head.emit(1, "{0} = {1}".format(name, value))
                bound.append(name)
        for alias, name in self.global_refs.items():
            head.emit(1, "{0} = st.image.address_of({1!r})".format(alias,
                                                                   name))
            bound.append(alias)
        for alias, name in self.runtime_refs.items():
            head.emit(1, "{0} = st.runtime.handler({1!r})".format(alias,
                                                                  name))
            bound.append(alias)
        if self.uses_budget:
            head.emit(1, "__ms = __budget(st)")
            bound.append("__ms")
        head.emit(1, "return ({0}{1})".format(
            ", ".join(bound), "," if len(bound) == 1 else ""))
        head.emit(0, "def __tier2({0}):".format(
            ", ".join(["st", "__a"] + bound)))
        if function.args:
            # The arguments arrive as one sequence: a call with a fixed
            # arity is cheaper than one that spreads ``*args``.
            names = ["r{0}".format(i) for i in range(len(function.args))]
            head.emit(1, "{0}{1} = __a".format(
                ", ".join(names), "," if len(names) == 1 else ""))
        head.emit(1, "__steps = st.steps")
        head.emit(1, "__blk = 0")
        # A function whose body never yields must still be a generator
        # for the driver protocol; the dead yield below forces that.
        head.emit(1, "if False:")
        head.emit(2, "yield None")
        head.emit(1, "while True:")
        return head.text() + body.text(), num_slots


#: In-place blocks below one dispatch arm, at most: a longer chain
#: dispatches once per this many blocks.  Each in-place block indents
#: its successors by at most one level, so this bounds the generated
#: nesting well inside CPython's 100 indentation levels, and the code
#: generator's own recursion, whatever the function's shape.
_MAX_IN_PLACE_DEPTH = 32


def _taken_targets(terminator) -> tuple:
    """The successors the code generated for *terminator* can transfer
    to, in the order it tests them: both of a conditional ``br``, the
    one a constant condition picks, the first case of each ``mbr``
    value then its default; none for any other instruction."""
    if isinstance(terminator, insts.BranchInst):
        if not terminator.is_conditional:
            return (terminator.operand(0),)
        cond = terminator.operand(0)
        if isinstance(cond, ConstantBool):
            return (terminator.operand(1) if cond.value
                    else terminator.operand(2),)
        return (terminator.operand(1), terminator.operand(2))
    if isinstance(terminator, insts.MultiwayBranchInst):
        return tuple(label for _value, label in _mbr_cases(terminator)) \
            + (terminator.default,)
    return ()


def _mbr_cases(inst) -> List[Tuple[int, BasicBlock]]:
    """An ``mbr``'s ``(value, label)`` cases as tested: the first case
    of each value, since the first match wins."""
    seen = set()
    cases = []
    for value, label in inst.cases():
        if value.value not in seen:
            seen.add(value.value)
            cases.append((value.value, label))
    return cases


def _global_based(pointer) -> bool:
    """Whether *pointer* is a global or a ``getelementptr`` chain from
    one: an address that tier 2 tests against the global arena before
    it takes ``__ld``/``__st``."""
    while isinstance(pointer, insts.GetElementPtrInst):
        pointer = pointer.pointer
    return isinstance(pointer, GlobalVariable)


#: The memory helpers a unit's binder can bind, as (name, value).
_HELPERS = (("__ld", "__mem.load"), ("__st", "__mem.store"),
            ("__ga", "__mem.global_arena"), ("__ge", "__mem.global_end"),
            ("__rb", "__mem.read_bytes"), ("__wb", "__mem.write_bytes"),
            ("__fb", "int.from_bytes"))

#: Codec -> the name generated code calls it by: the byte order and the
#: scalar type of its format, e.g. ``__le_int``.
_CODEC_NAMES = {
    codec: "__{0}_{1}".format("le" if fmt[0] == "<" else "be",
                              _CODEC_TYPES[codec].name)
    for fmt, codec in CODECS.items()}


def _vlanes_counter():
    """Per-unit ``vec.lanes`` hook.  None when observability is off at
    build time — generated vector ops then pay a single is-None test —
    else a bound counter tagged with this tier's engine label.  Like
    tier 1's decode-time gate, toggling observability does not retrofit
    already-built units; the next (re)build picks the new state up."""
    if not observe.enabled():
        return None

    def bump(lanes, _c=observe.counter):
        _c("vec.lanes", lanes, engine="tier2")
    return bump


def _step_budget(st) -> int:
    """The run's ``max_steps``, with no limit as the largest int64."""
    budget = st.max_steps
    return 0x7fffffffffffffff if budget is None else budget


def _step_limit(st, steps: int) -> StepLimitExceeded:
    """What a unit whose count *steps* passed the run's budget raises,
    after storing the count on the engine *st*."""
    st.steps = steps
    return StepLimitExceeded("exceeded {0} steps".format(st.max_steps))


_BASE_NAMESPACE = {
    "MemoryError_": MemoryError_,
    "__budget": _step_budget,
    "__limit": _step_limit,
    "__vlanes": None,
    "ExecutionTrap": ExecutionTrap,
    "_float_arith": _float_arith,
    "_round_f32": _round_f32,
    "__pack": struct.pack,
    "__unpack": struct.unpack,
    "__inf": float("inf"),
    "__ninf": float("-inf"),
    **{name: codec for codec, name in _CODEC_NAMES.items()},
    "__builtins__": {"abs": abs, "max": max, "min": min, "bool": bool,
                     "int": int, "float": float, "len": len,
                     "tuple": tuple, "zip": zip},
}


def generate_source(function: Function, target: types.TargetData
                    ) -> Tuple[str, Dict[str, str], int]:
    """Tier-2 codegen for one function.  Returns ``(source, func_refs,
    num_slots)``; raises :class:`UnsupportedFunction` for bodies the
    generator cannot express."""
    cg = _FnCodegen(function, target)
    source, num_slots = cg.generate()
    return source, dict(cg.func_refs), num_slots


def build_unit(function: Function, module: Module, source: str,
               func_refs: Dict[str, str], num_slots: int, func_hash: str,
               code=None) -> CompiledUnit:
    """``compile()`` tier-2 *source* (from :func:`generate_source` or a
    persisted translation) into a :class:`CompiledUnit`, resolving
    direct-call targets by name against *module*.  With *code* given
    (an unmarshalled code object from a same-``cache_tag`` persisted
    blob), ``compile()`` is skipped too."""
    if code is None:
        code = compile(source, "<tier2:{0}>".format(function.name),
                       "exec")
    namespace = dict(_BASE_NAMESPACE)
    namespace["__vlanes"] = _vlanes_counter()
    for alias, name in func_refs.items():
        target_fn = module.functions.get(name)
        if target_fn is None:
            raise UnsupportedFunction(
                "direct callee {0!r} not in module".format(name))
        namespace[alias] = target_fn
    exec(code, namespace)
    return CompiledUnit(
        function=function,
        smc_version=function.smc_version,
        factory=namespace["__tier2"],
        binder=namespace["__bind"],
        num_args=len(function.args),
        num_slots=num_slots,
        source=source,
        func_hash=func_hash,
        code=code,
    )


# ---------------------------------------------------------------------------
# The tier-2 cache: promotion policy, deopt, SMC invalidation, persistence
# ---------------------------------------------------------------------------


class Tier2Cache:
    """Per-module tier-2 state, shareable across runs (like
    :class:`~repro.execution.fastpath.DecodeCache`)."""

    def __init__(self, module: Module, target: types.TargetData,
                 threshold: int = DEFAULT_THRESHOLD):
        self.module = module
        self.target = target
        self.threshold = threshold
        self.stats = Tier2Stats()
        # id(function) -> CompiledUnit; the unit pins the function
        # object through .function, keeping the id unique.
        self._units: Dict[int, CompiledUnit] = {}
        self._counts: Dict[int, int] = {}
        self._step_credit: Dict[int, int] = {}
        self._pinned: Dict[int, str] = {}
        #: function name -> (func_hash, source, func_refs, num_slots,
        #: code-object-or-None) loaded from the persistent translation
        #: cache.  The code object is present when the blob was written
        #: by the same Python (``sys.implementation.cache_tag``).
        self._preloaded: Dict[str, Tuple] = {}
        self._storage = None
        self._storage_key: Optional[str] = None
        self._dirty = False
        self.translation_cache_hit = False

    # -- promotion ------------------------------------------------------

    def lookup(self, function: Function) -> Optional[CompiledUnit]:
        """The per-call hook: return the compiled unit for *function*,
        compiling it if its counters cross the promotion threshold, or
        None to stay on tier 1."""
        key = id(function)
        unit = self._units.get(key)
        if unit is not None:
            if unit.smc_version == function.smc_version:
                return unit
            self.invalidate(function)
        if key in self._pinned:
            return None
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count <= self.threshold:
            if self._step_credit.get(key, 0) < DEFAULT_STEP_THRESHOLD:
                return None
            self.stats.promotions_by_steps += 1
            reason = "steps"
        else:
            reason = "invocations"
        if observe.enabled():
            observe.counter("tier2.promotions", 1, reason=reason)
            observe.event("tier2.promote", function=function.name,
                          reason=reason, invocations=count,
                          step_credit=self._step_credit.get(key, 0))
        return self._compile(function)

    def credit_steps(self, function: Function, steps: int) -> None:
        """Credit architectural steps to a function (called by the
        engine when a tier-1 activation returns); enough accumulated
        heat promotes the function even at a low invocation count."""
        key = id(function)
        self._step_credit[key] = self._step_credit.get(key, 0) + steps

    # -- compilation ----------------------------------------------------

    def _compile(self, function: Function) -> Optional[CompiledUnit]:
        """Translate *function* and install the unit, or pin the
        function to tier 1 when tier 2 cannot express it.  A validated
        persisted translation skips codegen (and, with same-build
        marshalled bytecode, ``compile()`` too)."""
        with observe.span("tier2.compile", function=function.name) \
                as span:
            started = time.perf_counter()
            func_hash = function_hash(function)
            # A stored unit serves only the body it was compiled from: a
            # launch that fired llva.smc.replace stores a new body's.
            warm = self._preloaded.get(function.name)
            if warm is not None and warm[0] != func_hash:
                warm = None
            codegen_seconds = 0.0
            try:
                if warm is not None:
                    _hash, source, func_refs, num_slots, code = warm
                    unit = build_unit(function, self.module, source,
                                      func_refs, num_slots, func_hash,
                                      code=code)
                else:
                    codegen_started = time.perf_counter()
                    source, func_refs, num_slots = generate_source(
                        function, self.target)
                    codegen_seconds = time.perf_counter() - codegen_started
                    unit = build_unit(function, self.module, source,
                                      func_refs, num_slots, func_hash)
            except Exception as error:
                # UnsupportedFunction, or a codegen defect: either way
                # the tier-1 engine is always a correct fallback.
                reason = str(error) \
                    if isinstance(error, UnsupportedFunction) \
                    else "tier-2 compile error: {0}".format(error)
                elapsed = time.perf_counter() - started
                self.pin(function, reason)
                self.stats.compile_seconds += elapsed
                span.set(kind="error", warm=False)
                return None
            elapsed = time.perf_counter() - started
            self.stats.codegen_seconds += codegen_seconds
            self.stats.compile_seconds += elapsed
            self.stats.functions_compiled += 1
            if warm is not None:
                self.stats.warm_compiles += 1
                if observe.enabled():
                    observe.counter("tier2.warm_compiles", 1)
            else:
                self._dirty = True
            self._units[id(function)] = unit
            if observe.enabled():
                observe.counter("tier2.functions_compiled", 1)
                observe.histogram("tier2.compile_seconds", elapsed,
                                  function=function.name)
                span.set(kind="dispatch", warm=warm is not None)
            return unit

    # -- pinning / deopt / invalidation --------------------------------

    def pin(self, function: Function, reason: str) -> None:
        """Permanently route *function* to tier 1 (until SMC replaces
        its body)."""
        if id(function) not in self._pinned:
            self._pinned[id(function)] = reason
            self.stats.pins += 1
            if observe.enabled():
                observe.counter("tier2.pins", 1, reason=reason[:40])
                observe.event("tier2.pin", function=function.name,
                              reason=reason[:120])

    def pinned_reason(self, function: Function) -> Optional[str]:
        return self._pinned.get(id(function))

    def note_deopt(self, function: Function) -> None:
        """A trap was delivered inside a tier-2 activation.  The active
        generator completes precisely in place (its own fault handling
        is exact); the *function* is demoted so future invocations take
        the tier-1 path, where trap-heavy code belongs."""
        if id(function) in self._units:
            self._units.pop(id(function), None)
            self.stats.deopts += 1
            reason = "trap delivered mid-execution"
            if observe.enabled():
                observe.counter("tier2.deopts", 1, reason=reason)
                observe.event("tier2.deopt", function=function.name,
                              reason=reason)
            self.pin(function, "deopt: " + reason)

    def invalidate(self, function: Function) -> None:
        """SMC invalidation — mirrors ``DecodeCache``: drop the unit,
        forget counters and pins (the new body is different code)."""
        if self._units.pop(id(function), None) is not None:
            self.stats.invalidations += 1
            if observe.enabled():
                observe.counter("tier2.invalidations", 1)
                observe.event("smc.invalidate", layer="tier2",
                              reason="smc-replace",
                              function=function.name)
        self._counts.pop(id(function), None)
        self._step_credit.pop(id(function), None)
        self._pinned.pop(id(function), None)

    def listener(self):
        """A callback for ``Interpreter.smc_listeners``."""
        return self.invalidate

    # -- persistence through the storage API ---------------------------

    def serialize(self, module_key: str) -> bytes:
        """All current translations as a JSON blob keyed by engine
        version, target fingerprint, module hash, and per-function
        content hashes."""
        functions = {}
        for unit in self._units.values():
            entry = {
                "hash": unit.func_hash,
                "num_slots": unit.num_slots,
                "func_refs": {alias: name for alias, name
                              in self._refs_of(unit)},
                "source": unit.source,
            }
            if unit.code is not None:
                # .pyc-style: same-interpreter warm starts skip
                # compile(); the source stays as the portable fallback.
                entry["code"] = base64.b64encode(
                    marshal.dumps(unit.code)).decode("ascii")
            functions[unit.function.name] = entry
        # Keep warm entries we did not recompile this run.
        for name, (fhash, source, func_refs, num_slots, code) \
                in self._preloaded.items():
            if name in functions:
                continue
            entry = {
                "hash": fhash,
                "num_slots": num_slots,
                "func_refs": func_refs,
                "source": source,
            }
            if code is not None:
                entry["code"] = base64.b64encode(
                    marshal.dumps(code)).decode("ascii")
            functions[name] = entry
        blob = {
            "version": TIER2_VERSION,
            "module": module_key,
            "pointer_size": self.target.pointer_size,
            "endianness": self.target.endianness,
            "cache_tag": sys.implementation.cache_tag,
            "functions": functions,
            "functions_sha256": _functions_digest(functions),
        }
        return json.dumps(blob, sort_keys=True).encode("utf-8")

    @staticmethod
    def _refs_of(unit: CompiledUnit) -> List[Tuple[str, str]]:
        refs = []
        for name, value in unit.factory.__globals__.items():
            if isinstance(value, Function) and name.startswith("__fn"):
                refs.append((name, value.name))
        return refs

    def load_serialized(self, data: bytes, module_key: str) -> int:
        """Validate and index a persisted translation blob; returns the
        number of usable per-function entries.  Raises ``ValueError``
        on any corrupt, truncated, stale, or mismatched blob — callers
        fall back to online translation."""
        try:
            blob = json.loads(data.decode("utf-8"))
        except Exception as error:
            raise ValueError("corrupt tier-2 cache: {0}".format(error))
        if not isinstance(blob, dict):
            raise ValueError("corrupt tier-2 cache: not an object")
        if blob.get("version") != TIER2_VERSION:
            raise ValueError("tier-2 cache version mismatch")
        if blob.get("module") != module_key:
            raise ValueError("tier-2 cache is for a different module")
        if blob.get("pointer_size") != self.target.pointer_size \
                or blob.get("endianness") != self.target.endianness:
            raise ValueError("tier-2 cache target fingerprint mismatch")
        functions = blob.get("functions")
        if not isinstance(functions, dict):
            raise ValueError("corrupt tier-2 cache: missing functions")
        if blob.get("functions_sha256") != _functions_digest(functions):
            raise ValueError("corrupt tier-2 cache: checksum mismatch")
        # Marshalled bytecode is only trusted from the exact same
        # Python build (like .pyc); otherwise the source is recompiled.
        code_ok = blob.get("cache_tag") == sys.implementation.cache_tag
        preloaded = {}
        for name, entry in functions.items():
            try:
                fhash = entry["hash"]
                source = entry["source"]
                func_refs = dict(entry["func_refs"])
                num_slots = int(entry["num_slots"])
                code = None
                if code_ok and "code" in entry:
                    code = marshal.loads(
                        base64.b64decode(entry["code"]))
            except Exception as error:
                raise ValueError(
                    "corrupt tier-2 cache entry {0!r}: {1}".format(
                        name, error))
            if not isinstance(source, str) or not source:
                raise ValueError(
                    "corrupt tier-2 cache entry {0!r}: empty source"
                    .format(name))
            preloaded[name] = (fhash, source, func_refs, num_slots, code)
        self._preloaded.update(preloaded)
        return len(preloaded)

    def attach_storage(self, storage, key: str,
                       executable_timestamp: Optional[float] = None
                       ) -> bool:
        """Wire this cache to a Section-4.1 storage API and try a warm
        start.  Returns True on a validated hit.  Every failure mode —
        missing, corrupt, truncated, stale, version-mismatched — logs
        ``llee.cache.invalid`` (or a plain miss) and degrades to online
        translation; persistence must never break execution."""
        self._storage = storage
        self._storage_key = key
        loaded = load_entry(storage, TIER2_CACHE_NAME, key, "tier2",
                            lambda data: self.load_serialized(data, key),
                            executable_timestamp)
        self.translation_cache_hit = loaded is not None
        return self.translation_cache_hit

    def flush_storage(self) -> bool:
        """Write new translations back through the storage API — no-op
        when nothing changed or no storage is attached.  Best-effort,
        like the native cache write-back."""
        if self._storage is None or not self._dirty:
            return False
        stored = store_entry(self._storage, TIER2_CACHE_NAME,
                             self._storage_key, "tier2",
                             self.serialize(self._storage_key))
        self._dirty = not stored
        return stored

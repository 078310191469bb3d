"""Fast execution engine: pre-decoded, closure-threaded interpretation.

The reference interpreter (:mod:`repro.execution.interpreter`) is the
semantic oracle: it re-resolves every operand and re-dispatches on the
opcode string at every step.  This module lowers each LLVA function,
once, into an array of specialized Python closures:

* **direct-threaded dispatch** — the run loop is
  ``f.ops[f.index](self, f)``; there is no opcode table;
* **decode-time operand resolution** — registers become dense list
  slots, constants are baked into the closure, globals keep a name and
  resolve through the image at run time;
* **dense register files** — each frame carries a flat list indexed by
  slot number instead of a per-frame dict.  Slot numbering is the same
  as the V-ABI register numbering (:meth:`Interpreter._number_registers`)
  so trap handlers observe identical register snapshots;
* **superinstruction fusion** — maximal straight-line runs of simple
  ops (arith/logical/shift/compare/load/store/gep/cast/alloca) are
  folded into a single fused closure, cutting dispatch overhead;
* **inline offset cache** — constant-index ``getelementptr`` folds to a
  single precomputed byte offset at decode time.

Decoded functions are cached per :class:`DecodeCache` keyed on the
function identity and its ``smc_version``, mirroring ``jit.py``'s
invalidation path: ``llva.smc.replace`` bumps the version, so active
invocations keep executing the old closures (they capture the old
instruction objects — exactly the Section 3.4 rule) while future
invocations decode the new body.

Semantics are differentially tested against the reference engine (see
``tests/execution/test_fastpath_differential.py``).  Known, documented
divergences are listed in ``docs/PERFORMANCE.md``; the headline ones:

* reading a never-written register yields 0 instead of the reference's
  software trap (unverified modules only — the verifier rejects such
  code);
* ``max_steps`` is enforced at control-flow edges and calls, so a
  straight-line run may overshoot the budget before
  :class:`StepLimitExceeded` is raised;
* call targets are classified (intrinsic / runtime / LLVA) at decode
  time rather than per call.
"""

from __future__ import annotations

import operator
import struct
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import observe
from repro.execution.config import ExecConfig
from repro.execution.events import (ExecutionTrap, ExitRequest, TrapKind,
                                    note_unhandled)
from repro.execution.interpreter import (
    ExecutionResult,
    Interpreter,
    StepLimitExceeded,
    _NO_RESULT,
    _float_arith,
    _pointer_mask,
    _round_f32,
    _zero_of,
    cast_value,
)
from repro.execution.memory import MemoryError_, _FP_FORMAT
from repro.execution.runtime import is_runtime_name
from repro.execution.sanitizer import format_site
from repro.ir import instructions as insts
from repro.ir import types
from repro.ir.module import BasicBlock, Function, GlobalVariable, Module
from repro.ir.values import (
    ConstantBool,
    ConstantFP,
    ConstantInt,
    ConstantNull,
    UndefValue,
)

#: Minimum straight-line run length worth fusing into a superinstruction.
FUSE_MIN = 3

# Run-loop protocol: a closure returns None to stay in the current
# frame's op array, _RESCHED to make the loop re-read the top frame
# (call/ret/trap), or a _Return carrying the program result.
_RESCHED = object()


class _Return:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _FastFrame:
    """One activation record of the fast engine."""

    __slots__ = ("function", "ops", "index", "regs", "saved_sp",
                 "ret_slot", "resume", "unwind_edge", "is_trap_handler",
                 "steps_at_entry")

    def __init__(self, function, ops, regs, saved_sp, ret_slot,
                 resume, unwind_edge):
        self.function = function
        self.ops = ops
        self.index = 0
        self.regs = regs
        self.saved_sp = saved_sp
        self.ret_slot = ret_slot          # caller slot for the result; -1 = void
        self.resume = resume              # advances the caller past the call
        self.unwind_edge = unwind_edge    # invoke's unwind-dest edge, else None
        self.is_trap_handler = False
        self.steps_at_entry = 0           # for tier-2 step-credit promotion


class _Tier2Frame:
    """An activation running tier-2 compiled code.

    Duck-types :class:`_FastFrame` everywhere the engine touches frames:
    ``ops`` is a one-element tuple holding the tier-2 driver and
    ``index`` stays 0, so the ordinary run loop re-enters the driver
    whenever this frame is on top; ``saved_sp`` / ``unwind_edge`` /
    ``ret_slot`` / ``resume`` keep `_fast_return` and ``unwind`` working
    unchanged; ``regs`` is a one-slot landing pad a returning callee
    writes through ``ret_slot=0`` so the driver can ``send()`` the value
    into the suspended generator.
    """

    __slots__ = ("function", "ops", "index", "regs", "saved_sp",
                 "ret_slot", "resume", "unwind_edge", "is_trap_handler",
                 "steps_at_entry", "gen", "started", "unit")

    def __init__(self, function, unit, gen, saved_sp, ret_slot,
                 resume, unwind_edge):
        self.function = function
        self.ops = _TIER2_OPS
        self.index = 0
        self.regs = [None]
        self.saved_sp = saved_sp
        self.ret_slot = ret_slot
        self.resume = resume
        self.unwind_edge = unwind_edge
        self.is_trap_handler = False
        self.steps_at_entry = -1          # tier-2 frames earn no credit
        self.gen = gen
        self.started = False
        self.unit = unit


def _t2_noop_resume(st, caller):
    """Resume closure for frames called *by* tier-2 code: the generator
    is resumed by the driver, nothing to advance."""


def _tier2_driver(st, f):
    """The single op of a tier-2 frame: pump the compiled generator.

    The generator yields requests for everything that needs the frame
    stack or the runtime; the driver services them inline (runtime and
    intrinsic calls), or pushes a frame and returns ``_RESCHED`` (LLVA
    calls, delivered traps), leaving the generator suspended at its
    ``yield``.  When that frame returns, the run loop lands back here
    and the value parked in ``f.regs[0]`` is sent into the generator.
    Runtime faults are *thrown* into the generator so the masking rules
    execute in compiled code with the frame's registers live.
    """
    gen = f.gen
    t0 = st.steps
    try:
        try:
            if f.started:
                value = f.regs[0]
                f.regs[0] = None
                request = gen.send(value)
            else:
                f.started = True
                request = gen.send(None)
            while True:
                kind = request[0]
                if kind == "call":
                    st._fast_push(request[1], list(request[2]), 0,
                                  _t2_noop_resume, None)
                    return _RESCHED
                if kind == "rt":
                    try:
                        result = st.runtime.call(request[1],
                                                 list(request[2]))
                    except MemoryError_ as fault:
                        request = gen.throw(fault)
                        continue
                    request = gen.send(result)
                    continue
                if kind == "intr":
                    request = _t2_intrinsic(st, f, gen, request[1],
                                            list(request[2]))
                    if request is _RESCHED:
                        return _RESCHED
                    continue
                if kind == "trap":
                    # A deliverable fault detected by compiled code.
                    # Deliver through the ordinary machinery (handler
                    # frame or escaping ExecutionTrap), and demote the
                    # function: trap-heavy code belongs on tier 1.
                    tier2 = st.tier2
                    if tier2 is not None:
                        tier2.note_deopt(f.function)
                    st._fast_deliver(f, 0, None, -1, request[1],
                                     request[2], request[3])
                    f.regs[0] = None
                    return _RESCHED
                # "icall": classify at run time like _fast_call_any.
                address = request[1]
                fn = st.image.function_at(address)
                if fn is None:
                    raise ExecutionTrap(
                        TrapKind.MEMORY_FAULT,
                        "indirect call to non-function address 0x{0:x}"
                        .format(address), address)
                args = list(request[2])
                if fn.is_intrinsic:
                    request = _t2_intrinsic(st, f, gen, fn.name, args)
                    if request is _RESCHED:
                        return _RESCHED
                    continue
                if fn.is_declaration and is_runtime_name(fn.name):
                    try:
                        result = st.runtime.call(fn.name, args)
                    except MemoryError_ as fault:
                        request = gen.throw(fault)
                        continue
                    request = gen.send(result)
                    continue
                ms = st.max_steps
                if ms is not None and st.steps > ms:
                    raise StepLimitExceeded(
                        "exceeded {0} steps".format(ms))
                st._fast_push(fn, args, 0, _t2_noop_resume, None)
                return _RESCHED
        except StopIteration as stop:
            return st._fast_return(f, stop.value)
    finally:
        st.tier2_steps += st.steps - t0


def _t2_intrinsic(st, f, gen, name, args):
    """Service an intrinsic request.  Returns the generator's next
    request, or ``_RESCHED`` when the intrinsic pushed a trap-handler
    frame (``llva.trap.raise``): the handler must run before the
    generator resumes, so the result is parked in the landing pad."""
    depth = len(st._frames)
    try:
        result = st._call_intrinsic(f, name, args)
    except MemoryError_ as fault:
        return gen.throw(fault)
    if len(st._frames) > depth:
        f.regs[0] = result
        return _RESCHED
    return gen.send(result)


_TIER2_OPS = (_tier2_driver,)


def _phi_error_op(st, f):
    raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                        "phi executed outside block entry")


def _make_super(run: Tuple[Callable, ...], count: int):
    """Fuse a straight-line run of closures into one superinstruction.

    Each fused closure still bumps ``steps`` and sets ``f.index``
    itself, so a masked fault mid-run resumes at exactly the next fused
    position, and an unmasked fault returns _RESCHED through us with
    the faulting frame already pointing past the faulting instruction.
    """
    def superop(st, f):
        st.fused_runs += 1
        st.fused_instructions += count
        for op in run:
            r = op(st, f)
            if r is not None:
                return r
        return None
    return superop


def _fuse_block(ops: List[Callable], flags: List[bool]) -> int:
    """Replace maximal fusable runs in *ops* with superinstructions.

    Only position ``i`` of a run is replaced; the individual closures
    at ``i+1 .. j-1`` stay in place so trap handlers can resume into
    the middle of a fused run.  Returns the number of fused ops.
    """
    fused = 0
    n = len(ops)
    i = 0
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j < n and flags[j]:
            j += 1
        if j - i >= FUSE_MIN:
            ops[i] = _make_super(tuple(ops[i:j]), j - i)
            fused += j - i
        i = j
    return fused


_INT_BIN_FN = {"add": operator.add, "sub": operator.sub,
               "mul": operator.mul}


def _lane_bump(lanes: int, engine: str):
    """Decode-time gate for the ``vec.lanes`` counter: returns a bound
    bump when observability is on at decode time, else ``None`` so the
    hot closures pay a single is-None test."""
    if not observe.enabled():
        return None

    def bump(_c=observe.counter, _n=lanes, _e=engine):
        _c("vec.lanes", _n, engine=_e)
    return bump


_INT_STRUCT_CODE = {(1, True): "b", (1, False): "B",
                    (2, True): "h", (2, False): "H",
                    (4, True): "i", (4, False): "I",
                    (8, True): "q", (8, False): "Q"}


def _vector_struct_format(element, esize: int, endian: str, lanes: int):
    """One struct format transferring a whole contiguous vector in a
    single bulk read/write, or ``None`` when the element has no
    fixed-width struct code (the caller keeps its per-lane path).
    Lane order within the format matches the 0..L-1 walk, and signed /
    unsigned integer codes reproduce the per-lane sign extension."""
    if element.is_floating_point:
        code = {4: "f", 8: "d"}.get(esize)
    elif getattr(element, "is_integer", False) \
            and getattr(element, "bits", 0) == esize * 8 \
            and not element.is_bool:
        code = _INT_STRUCT_CODE.get((esize, element.is_signed))
    else:
        code = None
    if code is None:
        return None
    return ("<" if endian == "little" else ">") + str(lanes) + code
_LOGICAL_FN = {"and": operator.and_, "or": operator.or_,
               "xor": operator.xor}
_CMP_FN = {"seteq": operator.eq, "setne": operator.ne,
           "setlt": operator.lt, "setgt": operator.gt,
           "setle": operator.le, "setge": operator.ge}


class DecodedFunction:
    """The decode product for one function body."""

    __slots__ = ("function", "smc_version", "num_slots", "num_args",
                 "entry_ops", "num_instructions", "fused_instructions")

    def __init__(self, function, smc_version, num_slots, num_args,
                 entry_ops, num_instructions, fused_instructions):
        self.function = function
        self.smc_version = smc_version
        self.num_slots = num_slots
        self.num_args = num_args
        self.entry_ops = entry_ops
        self.num_instructions = num_instructions
        self.fused_instructions = fused_instructions


class DecodeCacheStats:
    __slots__ = ("functions_decoded", "invalidations", "decode_seconds")

    def __init__(self):
        self.functions_decoded = 0
        self.invalidations = 0
        self.decode_seconds = 0.0


class DecodeCache:
    """Per-target cache of decoded functions, shared across runs.

    Invalidation mirrors ``jit.py``: register :meth:`listener` on the
    interpreter's ``smc_listeners`` (and, when block layouts can change
    underneath us, on ``SoftwareTraceCache.relayout_listeners``).  The
    version check on :meth:`decode` makes SMC invalidation belt-and-
    braces; the listener also frees the stale entry and counts it.
    """

    def __init__(self, target: types.TargetData, sanitize: bool = False):
        self.target = target
        #: When set, every compiled closure is wrapped to publish its
        #: decode-time site string to the sanitizer before running, so a
        #: fault report can name the instruction.  Sanitized and
        #: unsanitized closures are different code — a cache is bound to
        #: one mode.
        self.sanitize = sanitize
        self.stats = DecodeCacheStats()
        # id(function) -> (smc_version, DecodedFunction, function).  The
        # function reference pins the object so the id stays unique.
        self._cache: Dict[int, Tuple[int, DecodedFunction, Function]] = {}

    def decode(self, function: Function) -> DecodedFunction:
        entry = self._cache.get(id(function))
        if entry is not None and entry[0] == function.smc_version:
            return entry[1]
        started = time.perf_counter()
        decoded = _decode_function(function, self.target, self.sanitize)
        elapsed = time.perf_counter() - started
        self._cache[id(function)] = (function.smc_version, decoded, function)
        self.stats.functions_decoded += 1
        self.stats.decode_seconds += elapsed
        if observe.enabled():
            observe.counter("fastpath.functions_decoded", 1)
            observe.histogram("fastpath.decode_seconds", elapsed,
                              function=function.name)
        return decoded

    def invalidate(self, function: Function) -> None:
        if self._cache.pop(id(function), None) is not None:
            self.stats.invalidations += 1
            observe.counter("fastpath.invalidations", 1)

    def listener(self) -> Callable[[Function], None]:
        """A callback suitable for ``smc_listeners``/``relayout_listeners``."""
        return self.invalidate


def _getter(ctx, operand):
    """A ``(st, regs) -> value`` closure for one operand (slow path)."""
    kind, payload = ctx.resolve(operand)
    if kind == "s":
        def get(st, r, _s=payload):
            return r[_s]
    elif kind == "c":
        def get(st, r, _v=payload):
            return _v
    elif kind == "g":
        def get(st, r, _n=payload):
            return st.image.address_of(_n)
    else:
        name = getattr(payload, "name", None) or "?"

        def get(st, r, _n=name):
            raise ExecutionTrap(
                TrapKind.SOFTWARE_TRAP,
                "read of undefined register %{0}".format(_n))
    return get


class _Decoder:
    """Compiles one function's instructions into closures."""

    def __init__(self, function: Function, target: types.TargetData,
                 slot_of: Dict[int, int],
                 ops_map: Dict[int, List[Callable]]):
        self.function = function
        self.target = target
        self.slot_of = slot_of
        self.ops_map = ops_map

    # -- operands ------------------------------------------------------

    def resolve(self, operand):
        """('s', slot) | ('c', value) | ('g', name) | ('x', operand)."""
        slot = self.slot_of.get(id(operand))
        if slot is not None:
            return ("s", slot)
        if isinstance(operand, (ConstantInt, ConstantFP, ConstantBool)):
            return ("c", operand.value)
        if isinstance(operand, ConstantNull):
            return ("c", 0)
        if isinstance(operand, UndefValue):
            return ("c", _zero_of(operand.type))
        if isinstance(operand, (Function, GlobalVariable)):
            return ("g", operand.name)
        return ("x", operand)

    def getter(self, operand):
        return _getter(self, operand)

    # -- instruction dispatch ------------------------------------------

    def compile(self, block: BasicBlock, inst, index: int):
        """Return ``(closure, fusable)`` for one instruction."""
        opcode = inst.opcode
        if opcode in ("add", "sub", "mul"):
            return self._compile_addsubmul(inst, index), True
        if opcode in ("div", "rem"):
            return self._compile_divrem(inst, index), True
        if opcode in ("and", "or", "xor"):
            return self._plain_binary(inst, index,
                                      _LOGICAL_FN[opcode]), True
        if opcode in ("shl", "shr"):
            return self._compile_shift(inst, index), True
        if opcode in _CMP_FN:
            return self._plain_binary(inst, index, _CMP_FN[opcode]), True
        if opcode == "load":
            return self._compile_load(inst, index), True
        if opcode == "store":
            return self._compile_store(inst, index), True
        if opcode == "getelementptr":
            return self._compile_gep(inst, index), True
        if opcode == "cast":
            return self._compile_cast(inst, index), True
        if opcode == "alloca":
            return self._compile_alloca(inst, index), True
        if opcode == "br":
            return self._compile_br(block, inst), False
        if opcode == "mbr":
            return self._compile_mbr(block, inst), False
        if opcode == "ret":
            return self._compile_ret(inst), False
        if opcode == "unwind":
            return _compile_unwind(), False
        if opcode in ("call", "invoke"):
            return self._compile_call(block, inst, index), False
        if opcode == "phi":
            return _phi_error_op, False
        if opcode in ("vadd", "vsub", "vmul"):
            return self._compile_vbinary(inst, index), True
        if opcode == "vsplat":
            return self._compile_vsplat(inst, index), True
        if opcode in ("vreduce.add", "vreduce.min", "vreduce.max"):
            return self._compile_vreduce(inst, index), True
        if opcode == "vload":
            return self._compile_vload(inst, index), True
        if opcode == "vstore":
            return self._compile_vstore(inst, index), True
        raise AssertionError("unknown opcode {0!r}".format(opcode))

    # -- integer / float arithmetic ------------------------------------

    def _compile_addsubmul(self, inst, index: int):
        if inst.type.is_floating_point:
            return self._float_binary(inst, index)
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        mask = (1 << inst.type.bits) - 1
        sign = (1 << (inst.type.bits - 1)) if inst.type.is_signed else 0
        fn = _INT_BIN_FN[inst.opcode]
        if inst.exceptions_enabled:
            return self._checked_arith(inst, index, fn, mask, sign)
        ka, va = self.resolve(inst.operand(0))
        kb, vb = self.resolve(inst.operand(1))
        if ka == "s" and kb == "s":
            def op(st, f, _a=va, _b=vb):
                st.steps += 1
                r = f.regs
                v = fn(r[_a], r[_b])
                r[dst] = ((v & mask) ^ sign) - sign
                f.index = nxt
        elif ka == "s" and kb == "c":
            def op(st, f, _a=va, _b=vb):
                st.steps += 1
                r = f.regs
                v = fn(r[_a], _b)
                r[dst] = ((v & mask) ^ sign) - sign
                f.index = nxt
        elif ka == "c" and kb == "s":
            def op(st, f, _a=va, _b=vb):
                st.steps += 1
                r = f.regs
                v = fn(_a, r[_b])
                r[dst] = ((v & mask) ^ sign) - sign
                f.index = nxt
        else:
            geta = self.getter(inst.operand(0))
            getb = self.getter(inst.operand(1))

            def op(st, f):
                st.steps += 1
                r = f.regs
                v = fn(geta(st, r), getb(st, r))
                r[dst] = ((v & mask) ^ sign) - sign
                f.index = nxt
        return op

    def _checked_arith(self, inst, index: int, fn, mask: int, sign: int):
        # !ee arithmetic: deliver INTEGER_OVERFLOW when the wrapped value
        # differs from the raw result (and dynamic masking permits),
        # otherwise store the wrapped value — never zero.
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        geta = self.getter(inst.operand(0))
        getb = self.getter(inst.operand(1))

        def op(st, f):
            st.steps += 1
            r = f.regs
            v = fn(geta(st, r), getb(st, r))
            w = ((v & mask) ^ sign) - sign
            if w != v and st.exceptions_dynamic:
                return st._fast_deliver(f, index, inst, dst,
                                        TrapKind.INTEGER_OVERFLOW, 0)
            r[dst] = w
            f.index = nxt
        return op

    def _float_binary(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        opcode = inst.opcode
        geta = self.getter(inst.operand(0))
        getb = self.getter(inst.operand(1))
        f32 = inst.type is types.FLOAT
        if opcode in _INT_BIN_FN and not f32:
            fn = _INT_BIN_FN[opcode]

            def op(st, f):
                st.steps += 1
                r = f.regs
                r[dst] = fn(geta(st, r), getb(st, r))
                f.index = nxt
        else:
            def op(st, f):
                st.steps += 1
                r = f.regs
                v = _float_arith(opcode, geta(st, r), getb(st, r))
                if f32:
                    v = _round_f32(v)
                r[dst] = v
                f.index = nxt
        return op

    def _compile_divrem(self, inst, index: int):
        if inst.type.is_floating_point:
            return self._float_binary(inst, index)
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        mask = (1 << inst.type.bits) - 1
        sign = (1 << (inst.type.bits - 1)) if inst.type.is_signed else 0
        is_div = inst.opcode == "div"
        signed = inst.type.is_signed
        kb, vb = self.resolve(inst.operand(1))
        if kb == "c" and isinstance(vb, int) and vb != 0 \
                and (signed or vb > 0) and not (signed and vb == -1):
            # Constant nonzero divisor: no zero check, and the result
            # cannot overflow (INT_MIN // -1 is excluded above), so the
            # wrap/!ee suffix drops too.  Unsigned operands are
            # non-negative, so host floor division *is* C truncating
            # division; signed keeps the abs/sign-fix trunc sequence.
            c = vb
            ka, va = self.resolve(inst.operand(0))
            geta = None if ka == "s" else self.getter(inst.operand(0))
            if not signed:
                if is_div:
                    if ka == "s":
                        def op(st, f, _a=va):
                            st.steps += 1
                            r = f.regs
                            r[dst] = r[_a] // c
                            f.index = nxt
                    else:
                        def op(st, f):
                            st.steps += 1
                            r = f.regs
                            r[dst] = geta(st, r) // c
                            f.index = nxt
                else:
                    if ka == "s":
                        def op(st, f, _a=va):
                            st.steps += 1
                            r = f.regs
                            r[dst] = r[_a] % c
                            f.index = nxt
                    else:
                        def op(st, f):
                            st.steps += 1
                            r = f.regs
                            r[dst] = geta(st, r) % c
                            f.index = nxt
                return op
            cab = abs(c)
            cneg = c < 0

            def op(st, f):
                st.steps += 1
                r = f.regs
                a = r[va] if geta is None else geta(st, r)
                q = abs(a) // cab
                if (a < 0) != cneg:
                    q = -q
                r[dst] = q if is_div else a - q * c
                f.index = nxt
            return op
        geta = self.getter(inst.operand(0))
        getb = self.getter(inst.operand(1))

        def op(st, f):
            st.steps += 1
            r = f.regs
            a = geta(st, r)
            b = getb(st, r)
            if b == 0:
                return st._fast_fault(f, index, inst, dst,
                                      TrapKind.DIVIDE_BY_ZERO, 0)
            # C-style truncating division, as in the reference engine.
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            v = q if is_div else a - q * b
            w = ((v & mask) ^ sign) - sign
            if w != v and inst.exceptions_enabled and st.exceptions_dynamic:
                return st._fast_deliver(f, index, inst, dst,
                                        TrapKind.INTEGER_OVERFLOW, 0)
            r[dst] = w
            f.index = nxt
        return op

    def _plain_binary(self, inst, index: int, fn):
        # and/or/xor on bool/int and the six compares: the host result is
        # already in range (& | ^ of in-range ints stay in range; compares
        # yield bool), so no wrap step.
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        ka, va = self.resolve(inst.operand(0))
        kb, vb = self.resolve(inst.operand(1))
        if ka == "s" and kb == "s":
            def op(st, f, _a=va, _b=vb):
                st.steps += 1
                r = f.regs
                r[dst] = fn(r[_a], r[_b])
                f.index = nxt
        elif ka == "s" and kb == "c":
            def op(st, f, _a=va, _b=vb):
                st.steps += 1
                r = f.regs
                r[dst] = fn(r[_a], _b)
                f.index = nxt
        elif ka == "c" and kb == "s":
            def op(st, f, _a=va, _b=vb):
                st.steps += 1
                r = f.regs
                r[dst] = fn(_a, r[_b])
                f.index = nxt
        else:
            geta = self.getter(inst.operand(0))
            getb = self.getter(inst.operand(1))

            def op(st, f):
                st.steps += 1
                r = f.regs
                r[dst] = fn(geta(st, r), getb(st, r))
                f.index = nxt
        return op

    def _compile_shift(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        bits = inst.type.bits
        bmask = bits - 1
        mask = (1 << bits) - 1
        sign = (1 << (bits - 1)) if inst.type.is_signed else 0
        is_shl = inst.opcode == "shl"
        ka, va = self.resolve(inst.operand(0))
        kb, vb = self.resolve(inst.operand(1))
        if kb == "c":
            amt = int(vb) & bmask
            if ka == "s":
                if is_shl:
                    def op(st, f, _a=va):
                        st.steps += 1
                        r = f.regs
                        v = r[_a] << amt
                        r[dst] = ((v & mask) ^ sign) - sign
                        f.index = nxt
                else:
                    # shr: arithmetic for signed, logical for unsigned —
                    # both are plain ``>>`` on the in-range host value.
                    def op(st, f, _a=va):
                        st.steps += 1
                        r = f.regs
                        r[dst] = r[_a] >> amt
                        f.index = nxt
                return op
        geta = self.getter(inst.operand(0))
        getb = self.getter(inst.operand(1))
        if is_shl:
            def op(st, f):
                st.steps += 1
                r = f.regs
                v = geta(st, r) << (getb(st, r) & bmask)
                r[dst] = ((v & mask) ^ sign) - sign
                f.index = nxt
        else:
            def op(st, f):
                st.steps += 1
                r = f.regs
                r[dst] = geta(st, r) >> (getb(st, r) & bmask)
                f.index = nxt
        return op

    # -- vector --------------------------------------------------------
    #
    # Vector values are host tuples, one entry per lane, and every lane
    # walk runs 0..L-1 in order so results (and fault addresses) match
    # the reference interpreter bit for bit.  ``vec.lanes`` counting is
    # gated at decode time: closures decoded with observability off
    # carry no bump at all (decode caches persist, so toggling
    # observability mid-process does not retrofit counting).
    #
    # Contiguous vector memory traffic goes through ONE region lookup:
    # the whole vector is read/written as a single bulk transfer and
    # decoded with one struct format (``_vector_struct_format``).  A
    # bulk transfer succeeds exactly when every per-lane transfer
    # would (a lane range is a subrange of the bulk range within the
    # same region), so results are unchanged; on a bulk fault the op
    # replays lane by lane to recover the reference tier's exact
    # faulting-lane address before delivering the trap.

    def _compile_vbinary(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        element = inst.type.element
        opcode = inst.opcode[1:]
        bump = _lane_bump(inst.type.lanes, "fast")
        fn = _INT_BIN_FN[opcode]
        if element is types.FLOAT:
            def lane(x, y, _f=fn):
                return _round_f32(_f(x, y))
        elif element.is_floating_point:
            lane = fn
        else:
            mask = (1 << element.bits) - 1
            sign = (1 << (element.bits - 1)) if element.is_signed else 0

            def lane(x, y, _f=fn):
                return ((_f(x, y) & mask) ^ sign) - sign
        ka, va = self.resolve(inst.operand(0))
        kb, vb = self.resolve(inst.operand(1))
        if ka == "s" and kb == "s":
            def op(st, f, _a=va, _b=vb):
                st.steps += 1
                r = f.regs
                r[dst] = tuple(map(lane, r[_a], r[_b]))
                if bump is not None:
                    bump()
                f.index = nxt
        else:
            geta = self.getter(inst.operand(0))
            getb = self.getter(inst.operand(1))

            def op(st, f):
                st.steps += 1
                r = f.regs
                r[dst] = tuple(map(lane, geta(st, r), getb(st, r)))
                if bump is not None:
                    bump()
                f.index = nxt
        return op

    def _compile_vsplat(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        lanes = inst.type.lanes
        bump = _lane_bump(lanes, "fast")
        kv, vv = self.resolve(inst.scalar)
        if kv == "c":
            value = (vv,) * lanes

            def op(st, f):
                st.steps += 1
                f.regs[dst] = value
                if bump is not None:
                    bump()
                f.index = nxt
        elif kv == "s":
            def op(st, f, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = (r[_v],) * lanes
                if bump is not None:
                    bump()
                f.index = nxt
        else:
            getv = self.getter(inst.scalar)

            def op(st, f):
                st.steps += 1
                r = f.regs
                r[dst] = (getv(st, r),) * lanes
                if bump is not None:
                    bump()
                f.index = nxt
        return op

    def _compile_vreduce(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        element = inst.type
        kind = inst.kind
        bump = _lane_bump(inst.vector.type.lanes, "fast")
        if kind == "add":
            if element is types.FLOAT:
                def fold(acc, lanes):
                    for lane in lanes:
                        acc = _round_f32(acc + lane)
                    return acc
            elif element.is_floating_point:
                def fold(acc, lanes):
                    for lane in lanes:
                        acc += lane
                    return acc
            else:
                mask = (1 << element.bits) - 1
                sign = (1 << (element.bits - 1)) \
                    if element.is_signed else 0

                def fold(acc, lanes):
                    for lane in lanes:
                        acc = (((acc + lane) & mask) ^ sign) - sign
                    return acc
        elif kind == "min":
            # Explicit compare-and-keep (not host min/max): replays the
            # scalar ``x < acc`` select exactly, NaN ordering included.
            def fold(acc, lanes):
                for lane in lanes:
                    acc = lane if lane < acc else acc
                return acc
        else:  # max
            def fold(acc, lanes):
                for lane in lanes:
                    acc = lane if lane > acc else acc
                return acc
        ki, vi = self.resolve(inst.init)
        kv, vv = self.resolve(inst.vector)
        if ki == "s" and kv == "s":
            def op(st, f, _i=vi, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = fold(r[_i], r[_v])
                if bump is not None:
                    bump()
                f.index = nxt
        elif ki == "c" and kv == "s":
            def op(st, f, _i=vi, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = fold(_i, r[_v])
                if bump is not None:
                    bump()
                f.index = nxt
        else:
            geti = self.getter(inst.init)
            getv = self.getter(inst.vector)

            def op(st, f):
                st.steps += 1
                r = f.regs
                r[dst] = fold(geti(st, r), getv(st, r))
                if bump is not None:
                    bump()
                f.index = nxt
        return op

    def _compile_vload(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        element = inst.type.element
        lanes = inst.type.lanes
        target = self.target
        esize = target.size_of(element)
        endian = target.endianness
        total = lanes * esize
        offsets = tuple(range(0, total, esize))
        bump = _lane_bump(lanes, "fast")
        fmt = _vector_struct_format(element, esize, endian, lanes)
        kp, vp = self.resolve(inst.pointer)
        if kp != "s" or fmt is None:
            getp = None if kp == "s" else self.getter(inst.pointer)

            def op(st, f):
                st.steps += 1
                r = f.regs
                base = r[vp] if getp is None else int(getp(st, r))
                try:
                    value = tuple(st.memory.read_typed(base + off, element)
                                  for off in offsets)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, dst,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                r[dst] = value
                if bump is not None:
                    bump()
                f.index = nxt
            return op
        unpack = struct.unpack

        def op(st, f, _p=vp):
            st.steps += 1
            r = f.regs
            base = r[_p]
            try:
                value = unpack(fmt, st.memory.read_bytes(base, total))
            except MemoryError_:
                # Bulk fault: replay lane by lane for the exact
                # faulting-lane address (or succeed, when the lanes
                # straddle a region seam the bulk read cannot cross).
                try:
                    value = tuple(
                        st.memory.read_typed(base + off, element)
                        for off in offsets)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, dst,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
            r[dst] = value
            if bump is not None:
                bump()
            f.index = nxt
        return op

    def _compile_vstore(self, inst, index: int):
        nxt = index + 1
        element = inst.value.type.element
        lanes = inst.value.type.lanes
        target = self.target
        esize = target.size_of(element)
        endian = target.endianness
        offsets = tuple(range(0, lanes * esize, esize))
        bump = _lane_bump(lanes, "fast")
        fmt = _vector_struct_format(element, esize, endian, lanes)
        pack = struct.pack
        kp, vp = self.resolve(inst.pointer)
        kv, vv = self.resolve(inst.value)
        getv = None if kv == "s" else self.getter(inst.value)
        getp = None if kp == "s" else self.getter(inst.pointer)
        if element.is_floating_point:
            one = _FP_FORMAT[(esize, endian)]

            def lane_by_lane(st, base, value):
                # Stop-at-fault order: lanes before the faulting lane
                # stay written, exactly as the reference tier leaves
                # them.
                for slot, off in enumerate(offsets):
                    st.memory.write_bytes(
                        base + off, pack(one, float(value[slot])))

            def bulk_bytes(value):
                return pack(fmt, *value)
        else:
            mask = (1 << element.bits) - 1

            def lane_by_lane(st, base, value):
                for slot, off in enumerate(offsets):
                    st.memory.write_bytes(
                        base + off,
                        (value[slot] & mask).to_bytes(esize, endian))

            if fmt is not None and element.is_signed:
                # Signed struct codes reject the unsigned masked image;
                # encode through the unsigned code of the same width.
                fmt = fmt[:-1] + fmt[-1].upper()

            def bulk_bytes(value):
                return pack(fmt, *[x & mask for x in value])

        if fmt is None:
            def op(st, f):
                st.steps += 1
                r = f.regs
                base = r[vp] if getp is None else int(getp(st, r))
                value = r[vv] if getv is None else getv(st, r)
                try:
                    lane_by_lane(st, base, value)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, -1,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                if bump is not None:
                    bump()
                f.index = nxt
            return op

        def op(st, f):
            st.steps += 1
            r = f.regs
            base = r[vp] if getp is None else int(getp(st, r))
            value = r[vv] if getv is None else getv(st, r)
            try:
                st.memory.write_bytes(base, bulk_bytes(value))
            except MemoryError_:
                # Bulk fault: replay lane by lane so leading lanes land
                # and the trap carries the exact faulting-lane address
                # (or succeed across a region seam).
                try:
                    lane_by_lane(st, base, value)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, -1,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
            if bump is not None:
                bump()
            f.index = nxt
        return op

    # -- memory --------------------------------------------------------

    def _compile_load(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        type_ = inst.type
        target = self.target
        size = target.size_of(type_)
        endian = target.endianness
        fb = int.from_bytes
        kp, vp = self.resolve(inst.pointer)
        if kp != "s":
            # Cold path (globals / constant pointers): reuse the typed
            # reader from the memory layer.
            getp = self.getter(inst.pointer)

            def op(st, f):
                st.steps += 1
                try:
                    v = st.memory.read_typed(int(getp(st, f.regs)), type_)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, dst,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                f.regs[dst] = v
                f.index = nxt
            return op
        if isinstance(type_, types.IntegerType) and type_.is_signed:
            sbit = 1 << (type_.bits - 1)

            def op(st, f, _p=vp):
                st.steps += 1
                r = f.regs
                try:
                    raw = st.memory.read_bytes(r[_p], size)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, dst,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                r[dst] = (fb(raw, endian) ^ sbit) - sbit
                f.index = nxt
        elif type_.is_integer or type_.is_pointer:
            def op(st, f, _p=vp):
                st.steps += 1
                r = f.regs
                try:
                    raw = st.memory.read_bytes(r[_p], size)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, dst,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                r[dst] = fb(raw, endian)
                f.index = nxt
        elif type_.is_bool:
            def op(st, f, _p=vp):
                st.steps += 1
                r = f.regs
                try:
                    raw = st.memory.read_bytes(r[_p], size)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, dst,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                r[dst] = raw[0] != 0
                f.index = nxt
        else:  # floating point
            fmt = _FP_FORMAT[(size, endian)]
            unpack = struct.unpack

            def op(st, f, _p=vp):
                st.steps += 1
                r = f.regs
                try:
                    raw = st.memory.read_bytes(r[_p], size)
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, dst,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                r[dst] = unpack(fmt, raw)[0]
                f.index = nxt
        return op

    def _compile_store(self, inst, index: int):
        nxt = index + 1
        vtype = inst.value.type
        target = self.target
        size = target.size_of(vtype)
        endian = target.endianness
        kp, vp = self.resolve(inst.pointer)
        kv, vv = self.resolve(inst.value)
        if kp != "s":
            getp = self.getter(inst.pointer)
            getv = self.getter(inst.value)

            def op(st, f):
                st.steps += 1
                r = f.regs
                try:
                    st.memory.write_typed(int(getp(st, r)), vtype,
                                          getv(st, r))
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, -1,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                f.index = nxt
            return op
        if vtype.is_integer or vtype.is_pointer:
            mask = ((1 << vtype.bits) - 1 if vtype.is_integer
                    else _pointer_mask(target))
            if kv == "c":
                raw = (int(vv) & mask).to_bytes(size, endian)

                def op(st, f, _p=vp):
                    st.steps += 1
                    try:
                        st.memory.write_bytes(f.regs[_p], raw)
                    except MemoryError_ as fault:
                        return st._fast_fault(f, index, inst, -1,
                                              fault.trap_number,
                                              fault.address or 0,
                                              fault.detail,
                                              fault.unmaskable)
                    f.index = nxt
            elif kv == "s":
                def op(st, f, _p=vp, _v=vv):
                    st.steps += 1
                    r = f.regs
                    try:
                        st.memory.write_bytes(
                            r[_p], (r[_v] & mask).to_bytes(size, endian))
                    except MemoryError_ as fault:
                        return st._fast_fault(f, index, inst, -1,
                                              fault.trap_number,
                                              fault.address or 0,
                                              fault.detail,
                                              fault.unmaskable)
                    f.index = nxt
            else:
                getv = self.getter(inst.value)

                def op(st, f, _p=vp):
                    st.steps += 1
                    r = f.regs
                    try:
                        st.memory.write_bytes(
                            r[_p],
                            (int(getv(st, r)) & mask).to_bytes(size, endian))
                    except MemoryError_ as fault:
                        return st._fast_fault(f, index, inst, -1,
                                              fault.trap_number,
                                              fault.address or 0,
                                              fault.detail,
                                              fault.unmaskable)
                    f.index = nxt
        elif vtype.is_bool:
            getv = self.getter(inst.value)

            def op(st, f, _p=vp):
                st.steps += 1
                r = f.regs
                try:
                    st.memory.write_bytes(
                        r[_p], b"\x01" if getv(st, r) else b"\x00")
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, -1,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                f.index = nxt
        else:  # floating point
            fmt = _FP_FORMAT[(size, endian)]
            pack = struct.pack
            getv = self.getter(inst.value)

            def op(st, f, _p=vp):
                st.steps += 1
                r = f.regs
                try:
                    st.memory.write_bytes(r[_p],
                                          pack(fmt, float(getv(st, r))))
                except MemoryError_ as fault:
                    return st._fast_fault(f, index, inst, -1,
                                          fault.trap_number,
                                          fault.address or 0,
                                          fault.detail,
                                          fault.unmaskable)
                f.index = nxt
        return op

    def _compile_gep(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        target = self.target
        pointee = inst.pointer.type.pointee
        pmask = _pointer_mask(target)
        kp, vp = self.resolve(inst.pointer)
        const_indices = inst.constant_indices()
        if const_indices is not None:
            # The inline offset cache: fold the whole index chain to one
            # byte offset at decode time.
            off = target.gep_offset(pointee, list(const_indices))
            if kp == "s":
                def op(st, f, _p=vp):
                    st.steps += 1
                    r = f.regs
                    r[dst] = (r[_p] + off) & pmask
                    f.index = nxt
                return op
            getp = self.getter(inst.pointer)

            def op(st, f):
                st.steps += 1
                f.regs[dst] = (int(getp(st, f.regs)) + off) & pmask
                f.index = nxt
            return op
        # Mixed indices: split into a constant byte offset plus
        # (slot, scale) products computed at run time.
        const_off = 0
        parts: List[Tuple[int, int]] = []
        current: types.Type = pointee
        simple = True
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
            k, v = self.resolve(index_value)
            if k == "c":
                const_off += int(v) * scale
            elif k == "s":
                parts.append((v, scale))
            else:
                simple = False
                break
        if simple and kp == "s" and len(parts) == 1:
            s0, scale0 = parts[0]

            def op(st, f, _p=vp):
                st.steps += 1
                r = f.regs
                r[dst] = (r[_p] + const_off + r[s0] * scale0) & pmask
                f.index = nxt
            return op
        if simple:
            getp = self.getter(inst.pointer)
            part_list = tuple(parts)

            def op(st, f):
                st.steps += 1
                r = f.regs
                address = int(getp(st, r)) + const_off
                for s, scale in part_list:
                    address += r[s] * scale
                r[dst] = address & pmask
                f.index = nxt
            return op
        # Fully generic fallback mirroring the reference walk.
        getp = self.getter(inst.pointer)
        index_getters = tuple(self.getter(iv) for iv in inst.indices)

        def op(st, f):
            st.steps += 1
            r = f.regs
            address = int(getp(st, r))
            current = pointee
            for position, g in enumerate(index_getters):
                idx = int(g(st, r))
                if position == 0:
                    address += idx * target.size_of(current)
                elif current.is_struct:
                    address += target.struct_offsets(current)[idx]
                    current = current.fields[idx]
                else:
                    address += idx * target.size_of(current.element)
                    current = current.element
            r[dst] = address & pmask
            f.index = nxt
        return op

    def _compile_alloca(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        target = self.target
        esize = target.size_of(inst.allocated_type)
        align = max(target.align_of(inst.allocated_type), 1)
        count_operand = inst.count
        if count_operand is None or isinstance(count_operand, ConstantInt):
            count = 1 if count_operand is None else count_operand.value
            total = max(esize * max(count, 0), 1)

            def op(st, f):
                st.steps += 1
                try:
                    address = st.memory.push_frame(total, align)
                except ExecutionTrap as trap:
                    return st._fast_fault(f, index, inst, dst,
                                          trap.trap_number, 0,
                                          trap.detail, trap.unmaskable)
                f.regs[dst] = address
                f.index = nxt
            return op
        getc = self.getter(count_operand)

        def op(st, f):
            st.steps += 1
            size = esize * max(int(getc(st, f.regs)), 0)
            try:
                address = st.memory.push_frame(max(size, 1), align)
            except ExecutionTrap as trap:
                return st._fast_fault(f, index, inst, dst,
                                      trap.trap_number, 0,
                                      trap.detail, trap.unmaskable)
            f.regs[dst] = address
            f.index = nxt
        return op

    def _compile_cast(self, inst, index: int):
        dst = self.slot_of[id(inst)]
        nxt = index + 1
        source = inst.value.type
        dest = inst.type
        kv, vv = self.resolve(inst.value)
        if kv == "s" and source is dest:
            def op(st, f, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = r[_v]
                f.index = nxt
            return op
        if kv == "s" and isinstance(dest, types.IntegerType) \
                and not source.is_floating_point:
            mask = (1 << dest.bits) - 1
            sign = (1 << (dest.bits - 1)) if dest.is_signed else 0

            def op(st, f, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = ((r[_v] & mask) ^ sign) - sign
                f.index = nxt
            return op
        if kv == "s" and dest.is_pointer and not source.is_floating_point:
            pmask = _pointer_mask(self.target)

            def op(st, f, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = r[_v] & pmask
                f.index = nxt
            return op
        if kv == "s" and dest.is_bool:
            def op(st, f, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = bool(r[_v])
                f.index = nxt
            return op
        if kv == "s" and dest is types.DOUBLE \
                and not source.is_floating_point:
            def op(st, f, _v=vv):
                st.steps += 1
                r = f.regs
                r[dst] = float(r[_v])
                f.index = nxt
            return op
        # Everything else (float sources, F32 rounding, constants,
        # globals) goes through the oracle's cast_value.
        getv = self.getter(inst.value)
        target = self.target

        def op(st, f):
            st.steps += 1
            f.regs[dst] = cast_value(getv(st, f.regs), source, dest, target)
            f.index = nxt
        return op

    # -- control flow --------------------------------------------------

    def _make_edge(self, pred: BasicBlock, succ: BasicBlock, extra: int):
        """A closure transferring *f* to the start of *succ*.

        Bumps ``steps`` by *extra* (1 for a taken terminator, 0 for a
        call resume) plus one per phi, performs the simultaneous phi
        assignment, and enforces ``max_steps``.
        """
        dst_ops = self.ops_map[id(succ)]
        phis = succ.phis()
        nphis = len(phis)
        start = nphis
        bump = extra + nphis
        if nphis == 0:
            if bump == 0:
                def edge0(st, f):
                    f.ops = dst_ops
                    f.index = 0
                return edge0

            def edge(st, f):
                steps = st.steps + bump
                st.steps = steps
                f.ops = dst_ops
                f.index = 0
                ms = st.max_steps
                if ms is not None and steps > ms:
                    raise StepLimitExceeded(
                        "exceeded {0} steps".format(ms))
            return edge
        moves = []
        for phi in phis:
            value = phi.incoming_for_block(pred)
            if value is None:
                sname = succ.name
                pname = pred.name

                def bad_edge(st, f):
                    raise ExecutionTrap(
                        TrapKind.SOFTWARE_TRAP,
                        "phi in %{0} missing edge from %{1}"
                        .format(sname, pname))
                return bad_edge
            moves.append((self.slot_of[id(phi)], self.resolve(value)))
        if nphis == 1:
            d0, (k0, v0) = moves[0]
            if k0 == "s":
                def edge(st, f):
                    steps = st.steps + bump
                    st.steps = steps
                    r = f.regs
                    r[d0] = r[v0]
                    f.ops = dst_ops
                    f.index = start
                    ms = st.max_steps
                    if ms is not None and steps > ms:
                        raise StepLimitExceeded(
                            "exceeded {0} steps".format(ms))
                return edge
            if k0 == "c":
                def edge(st, f):
                    steps = st.steps + bump
                    st.steps = steps
                    f.regs[d0] = v0
                    f.ops = dst_ops
                    f.index = start
                    ms = st.max_steps
                    if ms is not None and steps > ms:
                        raise StepLimitExceeded(
                            "exceeded {0} steps".format(ms))
                return edge
        dsts = tuple(m[0] for m in moves)
        gets = tuple(_getter_from(self, m[1]) for m in moves)

        def edge(st, f):
            steps = st.steps + bump
            st.steps = steps
            r = f.regs
            # Simultaneous assignment: read all incoming values before
            # writing any phi slot.
            vals = [g(st, r) for g in gets]
            for d, v in zip(dsts, vals):
                r[d] = v
            f.ops = dst_ops
            f.index = start
            ms = st.max_steps
            if ms is not None and steps > ms:
                raise StepLimitExceeded("exceeded {0} steps".format(ms))
        return edge

    def _compile_br(self, block: BasicBlock, inst):
        if not inst.is_conditional:
            return self._make_edge(block, inst.operand(0), 1)
        t_edge = self._make_edge(block, inst.operand(1), 1)
        f_edge = self._make_edge(block, inst.operand(2), 1)
        kc, vc = self.resolve(inst.operand(0))
        if kc == "s":
            def op(st, f, _c=vc):
                if f.regs[_c]:
                    return t_edge(st, f)
                return f_edge(st, f)
            return op
        if kc == "c":
            return t_edge if vc else f_edge
        getc = self.getter(inst.operand(0))

        def op(st, f):
            if getc(st, f.regs):
                return t_edge(st, f)
            return f_edge(st, f)
        return op

    def _compile_mbr(self, block: BasicBlock, inst):
        default_edge = self._make_edge(block, inst.default, 1)
        table = {}
        for case_value, case_label in inst.cases():
            if case_value.value not in table:  # first match wins
                table[case_value.value] = self._make_edge(block, case_label,
                                                          1)
        ks, vs = self.resolve(inst.selector)
        if ks == "s":
            def op(st, f, _s=vs):
                return table.get(f.regs[_s], default_edge)(st, f)
            return op
        if ks == "c":
            return table.get(vs, default_edge)
        gets = self.getter(inst.selector)

        def op(st, f):
            return table.get(gets(st, f.regs), default_edge)(st, f)
        return op

    def _compile_ret(self, inst):
        value_operand = inst.return_value
        if value_operand is None:
            def op(st, f):
                st.steps += 1
                return st._fast_return(f, None)
            return op
        kv, vv = self.resolve(value_operand)
        if kv == "s":
            def op(st, f, _v=vv):
                st.steps += 1
                return st._fast_return(f, f.regs[_v])
            return op
        if kv == "c":
            def op(st, f, _v=vv):
                st.steps += 1
                return st._fast_return(f, _v)
            return op
        getv = self.getter(value_operand)

        def op(st, f):
            st.steps += 1
            return st._fast_return(f, getv(st, f.regs))
        return op

    def _compile_call(self, block: BasicBlock, inst, index: int):
        dst = self.slot_of.get(id(inst), -1)
        nxt = index + 1
        is_invoke = isinstance(inst, insts.InvokeInst)
        if is_invoke:
            resume = self._make_edge(block, inst.normal_dest, 0)
            unwind_edge = self._make_edge(block, inst.unwind_dest, 0)
        else:
            def resume(st, cf, _n=nxt):
                cf.index = _n
            unwind_edge = None
        arg_gets = tuple(self.getter(a) for a in inst.args)
        callee = inst.callee
        if isinstance(callee, Function):
            # Classified once at decode time; the classification of a
            # direct callee (intrinsic / runtime / LLVA) cannot change.
            if callee.is_intrinsic:
                name = callee.name

                def op(st, f):
                    st.steps += 1
                    r = f.regs
                    args = [g(st, r) for g in arg_gets]
                    try:
                        result = st._call_intrinsic(f, name, args)
                    except MemoryError_ as fault:
                        return st._fast_fault(f, index, inst, dst,
                                              fault.trap_number,
                                              fault.address or 0,
                                              fault.detail,
                                              fault.unmaskable)
                    if dst >= 0:
                        r[dst] = result
                    resume(st, f)
                    return _RESCHED
                return op
            if callee.is_declaration and is_runtime_name(callee.name):
                name = callee.name

                def op(st, f):
                    st.steps += 1
                    r = f.regs
                    args = [g(st, r) for g in arg_gets]
                    try:
                        result = st.runtime.call(name, args)
                    except MemoryError_ as fault:
                        return st._fast_fault(f, index, inst, dst,
                                              fault.trap_number,
                                              fault.address or 0,
                                              fault.detail,
                                              fault.unmaskable)
                    if dst >= 0:
                        r[dst] = result
                    resume(st, f)
                    return None
                return op
            fn = callee

            def op(st, f):
                steps = st.steps + 1
                st.steps = steps
                ms = st.max_steps
                if ms is not None and steps > ms:
                    raise StepLimitExceeded(
                        "exceeded {0} steps".format(ms))
                r = f.regs
                args = [g(st, r) for g in arg_gets]
                st._fast_push(fn, args, dst, resume, unwind_edge)
                return _RESCHED
            return op
        getc = self.getter(callee)

        def op(st, f):
            st.steps += 1
            r = f.regs
            address = int(getc(st, r))
            fn = st.image.function_at(address)
            if fn is None:
                raise ExecutionTrap(
                    TrapKind.MEMORY_FAULT,
                    "indirect call to non-function address 0x{0:x}"
                    .format(address), address)
            args = [g(st, r) for g in arg_gets]
            return st._fast_call_any(f, fn, args, inst, dst, index,
                                     resume, unwind_edge)
        return op


def _getter_from(ctx: _Decoder, resolved):
    kind, payload = resolved
    if kind == "s":
        def get(st, r, _s=payload):
            return r[_s]
    elif kind == "c":
        def get(st, r, _v=payload):
            return _v
    else:  # 'g'
        def get(st, r, _n=payload):
            return st.image.address_of(_n)
    return get


def _compile_unwind():
    def op(st, f):
        st.steps += 1
        frames = st._frames
        memory = st.memory
        profiler = st.profiler
        while frames:
            top = frames.pop()
            if profiler is not None:
                profiler.pop(st.steps)
            memory.pop_frame(top.saved_sp)
            if not frames:
                break
            unwind_edge = top.unwind_edge
            if unwind_edge is not None:
                unwind_edge(st, frames[-1])
                return _RESCHED
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                            "unwind with no active invoke")
    return op


def _with_site(op: Callable, site: str) -> Callable:
    """Wrap a compiled closure so the sanitizer knows which instruction
    is executing.  Applied before fusion, so fused runs keep publishing
    per-instruction sites."""
    def wrapped(st, f):
        st.memory.san.current_site = site
        return op(st, f)
    return wrapped


def _decode_function(function: Function, target: types.TargetData,
                     sanitize: bool = False) -> DecodedFunction:
    """Lower *function* into per-block closure arrays (see module doc)."""
    blocks = function.blocks
    # Slot numbering is the V-ABI register numbering: arguments first,
    # then every value-producing instruction in block order.
    slot_of: Dict[int, int] = {}
    slot = 0
    for arg in function.args:
        slot_of[id(arg)] = slot
        slot += 1
    num_args = len(function.args)
    num_instructions = 0
    for block in blocks:
        for inst in block.instructions:
            num_instructions += 1
            if inst.produces_value:
                slot_of[id(inst)] = slot
                slot += 1
    # Pre-create the per-block op lists so edge closures can capture
    # their target list objects before those are populated.
    ops_map: Dict[int, List[Callable]] = {id(b): [] for b in blocks}
    decoder = _Decoder(function, target, slot_of, ops_map)
    fused = 0
    for block in blocks:
        ops = ops_map[id(block)]
        instructions = block.instructions
        nphis = len(block.phis())
        flags = [False] * nphis
        ops.extend([_phi_error_op] * nphis)
        for index in range(nphis, len(instructions)):
            inst = instructions[index]
            op, fusable = decoder.compile(block, inst, index)
            if sanitize:
                op = _with_site(op, format_site(function.name, block.name,
                                                index, inst.opcode))
            ops.append(op)
            flags.append(fusable)
        fused += _fuse_block(ops, flags)
    return DecodedFunction(
        function=function,
        smc_version=function.smc_version,
        num_slots=slot,
        num_args=num_args,
        entry_ops=ops_map[id(blocks[0])] if blocks else [],
        num_instructions=num_instructions,
        fused_instructions=fused,
    )


def _same_layout(a: types.TargetData, b: types.TargetData) -> bool:
    return a.pointer_size == b.pointer_size and a.endianness == b.endianness


class FastInterpreter(Interpreter):
    """The fast engine.  Construct directly, or via
    ``Interpreter(module, ExecConfig(engine="fast"))``.  With
    ``config.tier2`` on, *tier2_cache* (or a new :class:`Tier2Cache` at
    ``config.tier2_threshold``) compiles hot functions; a cache passed
    in must match the config and the target layout."""

    engine = "fast"

    def __init__(self, module: Module, config: ExecConfig = ExecConfig(),
                 *,
                 target: Optional[types.TargetData] = None,
                 privileged: bool = False,
                 max_steps: Optional[int] = None,
                 decode_cache: Optional[DecodeCache] = None,
                 tier2_cache=None,
                 profiler=None,
                 **settings):
        super().__init__(module, config, target=target,
                         privileged=privileged, max_steps=max_steps,
                         profiler=profiler, **settings)
        config = self.config
        self.tier2 = None
        if config.tier2:
            from repro.execution.tier2 import Tier2Cache
            if tier2_cache is None:
                tier2_cache = Tier2Cache(module, self.target,
                                         config.tier2_threshold)
            elif not _same_layout(tier2_cache.target, self.target):
                raise ValueError("tier-2 cache was built for a "
                                 "different target layout")
            elif tier2_cache.threshold != config.tier2_threshold:
                raise ValueError(
                    "tier-2 cache threshold ({0}) does not match the "
                    "config ({1})".format(tier2_cache.threshold,
                                          config.tier2_threshold))
            self.tier2 = tier2_cache
            self.smc_listeners.append(tier2_cache.listener())
        if decode_cache is not None:
            if not _same_layout(decode_cache.target, self.target):
                raise ValueError(
                    "decode cache was built for a different target layout")
            if decode_cache.sanitize != config.sanitize:
                raise ValueError(
                    "decode cache sanitize mode ({0}) does not match the "
                    "interpreter ({1})".format(decode_cache.sanitize,
                                               config.sanitize))
            self.decode_cache = decode_cache
        else:
            self.decode_cache = DecodeCache(self.target, config.sanitize)
        self.smc_listeners.append(self.decode_cache.listener())
        self.fused_runs = 0
        self.fused_instructions = 0
        self.tier2_steps = 0
        self.tier2_calls = 0

    # -- public API ----------------------------------------------------

    def run(self, function_name: str = "main", args=()) -> ExecutionResult:
        function = self.module.get_function(function_name)
        result_value = None
        exit_status = 0
        steps_before = self.steps
        runs_before = self.fused_runs
        fused_before = self.fused_instructions
        t2_steps_before = self.tier2_steps
        t2_calls_before = self.tier2_calls
        stack_pointer = self.memory.stack_pointer
        self._push_call(function, list(args), call_inst=None)
        try:
            with observe.span("interp.run", entry=function_name,
                              engine="fast") as span:
                try:
                    result_value = self._run_loop()
                except ExitRequest as request:
                    exit_status = request.status
                    self._abandon_run(stack_pointer)
                except BaseException:
                    self._abandon_run(stack_pointer)
                    raise
                finally:
                    span.set(steps=self.steps - steps_before)
        finally:
            if self.profiler is not None:
                self.profiler.flush(self.steps)
            observe.counter("run.steps", self.steps - steps_before,
                            engine="fast")
            if observe.enabled():
                observe.counter("fastpath.fused_runs",
                                self.fused_runs - runs_before)
                observe.counter("fastpath.fused_instructions",
                                self.fused_instructions - fused_before)
                if self.tier2 is not None:
                    observe.counter("tier2.steps",
                                    self.tier2_steps - t2_steps_before)
                    observe.counter("tier2.calls",
                                    self.tier2_calls - t2_calls_before)
        return ExecutionResult(
            return_value=result_value,
            steps=self.steps,
            output=self.runtime.output_text(),
            exit_status=exit_status,
        )

    # -- engine core ---------------------------------------------------

    def _run_loop(self):
        frames = self._frames
        while frames:
            f = frames[-1]
            r = None
            while r is None:
                r = f.ops[f.index](self, f)
            if r is _RESCHED:
                continue
            return r.value
        return None

    def _push_call(self, function: Function, args, call_inst=None):
        self._fast_push(function, list(args), -1, None, None)

    def _fast_push(self, function: Function, args, ret_slot,
                   resume, unwind_edge) -> _FastFrame:
        if function.is_declaration:
            raise ExecutionTrap(
                TrapKind.SOFTWARE_TRAP,
                "call to undefined function %{0}".format(function.name))
        tier2 = self.tier2
        if tier2 is not None:
            unit = tier2.lookup(function)
            if unit is not None:
                if len(args) != unit.num_args:
                    raise ExecutionTrap(
                        TrapKind.SOFTWARE_TRAP,
                        "argument count mismatch calling %{0}"
                        .format(function.name))
                frame = _Tier2Frame(function, unit,
                                    unit.factory(self, *args),
                                    self.memory.stack_pointer, ret_slot,
                                    resume, unwind_edge)
                self._frames.append(frame)
                self.tier2_calls += 1
                if self.profiler is not None:
                    self.profiler.push(self.steps, function.name, "tier2")
                return frame
        decoded = self.decode_cache.decode(function)
        if len(args) != decoded.num_args:
            raise ExecutionTrap(
                TrapKind.SOFTWARE_TRAP,
                "argument count mismatch calling %{0}".format(function.name))
        regs = [0] * decoded.num_slots
        regs[:len(args)] = args
        frame = _FastFrame(function, decoded.entry_ops, regs,
                           self.memory.stack_pointer, ret_slot, resume,
                           unwind_edge)
        if tier2 is not None:
            frame.steps_at_entry = self.steps
        self._frames.append(frame)
        if self.profiler is not None:
            self.profiler.push(self.steps, function.name, "tier1")
        return frame

    def _fast_return(self, f: _FastFrame, value):
        tier2 = self.tier2
        if tier2 is not None and f.steps_at_entry >= 0:
            tier2.credit_steps(f.function, self.steps - f.steps_at_entry)
        self.memory.pop_frame(f.saved_sp)
        frames = self._frames
        frames.pop()
        if self.profiler is not None:
            self.profiler.pop(self.steps)
        if not frames:
            return _Return(value)
        if f.is_trap_handler:
            return _RESCHED
        caller = frames[-1]
        if f.ret_slot >= 0:
            caller.regs[f.ret_slot] = value
        resume = f.resume
        if resume is None:
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "broken return linkage")
        resume(self, caller)
        return _RESCHED

    def _fast_call_any(self, f: _FastFrame, function: Function, args,
                       inst, dst: int, index: int, resume, unwind_edge):
        """Indirect-call dispatch, classified at run time like the
        reference engine's ``_exec_call``."""
        if function.is_intrinsic:
            try:
                result = self._call_intrinsic(f, function.name, args)
            except MemoryError_ as fault:
                return self._fast_fault(f, index, inst, dst,
                                        fault.trap_number,
                                        fault.address or 0,
                                        fault.detail,
                                        fault.unmaskable)
            if dst >= 0:
                f.regs[dst] = result
            resume(self, f)
            return _RESCHED
        if function.is_declaration and is_runtime_name(function.name):
            try:
                result = self.runtime.call(function.name, args)
            except MemoryError_ as fault:
                return self._fast_fault(f, index, inst, dst,
                                        fault.trap_number,
                                        fault.address or 0,
                                        fault.detail,
                                        fault.unmaskable)
            if dst >= 0:
                f.regs[dst] = result
            resume(self, f)
            return _RESCHED
        ms = self.max_steps
        if ms is not None and self.steps > ms:
            raise StepLimitExceeded("exceeded {0} steps".format(ms))
        self._fast_push(function, args, dst, resume, unwind_edge)
        return _RESCHED

    # -- exception model -----------------------------------------------

    def _fast_fault(self, f: _FastFrame, index: int, inst, dst: int,
                    trap_number: int, info: int, detail: str = "",
                    unmaskable: bool = False):
        """The ExceptionsEnabled rule for a faulting instruction."""
        if not unmaskable \
                and not (inst.exceptions_enabled
                         and self.exceptions_dynamic):
            if dst >= 0:
                f.regs[dst] = _zero_of(inst.type)
            f.index = index + 1
            return None
        return self._fast_deliver(f, index, inst, dst, trap_number, info,
                                  detail)

    def _fast_deliver(self, f: _FastFrame, index: int, inst, dst: int,
                      trap_number: int, info: int, detail: str = ""):
        observe.counter("run.traps", 1, engine="fast",
                        trap=str(trap_number))
        handler_address = self.trap_handlers.get(trap_number)
        if handler_address is None:
            note_unhandled("fast", trap_number, detail)
            raise ExecutionTrap(trap_number,
                                detail or "no handler registered", info)
        handler = self.image.function_at(handler_address)
        if handler is None or handler.is_declaration:
            note_unhandled("fast", trap_number,
                           "handler not an LLVA function")
            raise ExecutionTrap(trap_number,
                                "trap handler is not an LLVA function")
        if observe.enabled():
            observe.event("trap.deliver", engine="fast",
                          trap=trap_number, handler=handler.name)
        # Snapshot the faulting frame's registers for llva.register.read
        # *before* zeroing the result (precise-exception rule).
        self._last_trap_registers = self._number_registers(f)
        if inst is not None:
            if dst >= 0:
                f.regs[dst] = _zero_of(inst.type)
            f.index = index + 1
        trap_frame = self._fast_push(
            handler, [trap_number & 0xFFFFFFFF, info], -1, None, None)
        trap_frame.is_trap_handler = True
        return _RESCHED

    def _deliver_trap(self, frame, inst, trap_number: int, info: int,
                      detail: str = ""):
        # Reached via the inherited _call_intrinsic (llva.trap.raise);
        # inst is always None on that path.
        self._fast_deliver(frame, frame.index, None, -1, trap_number, info,
                           detail)
        return _NO_RESULT

    def _number_registers(self, frame) -> Dict[int, int]:
        if type(frame) is _Tier2Frame:
            # The generator is suspended at a yield, so its locals are
            # the live register file; unbound locals are registers not
            # yet written on this path (they read as 0 via
            # llva.register.read, matching the reference engine's
            # absent-key semantics).
            gi_frame = frame.gen.gi_frame
            if gi_frame is None:  # pragma: no cover - defensive
                return {}
            local_values = gi_frame.f_locals
            numbered: Dict[int, int] = {}
            for name, number in frame.unit.snap_map:
                value = local_values.get(name)
                if isinstance(value, (bool, int)):
                    numbered[number] = int(value)
            return numbered
        numbered = {}
        for number, value in enumerate(frame.regs):
            if isinstance(value, (bool, int)):
                numbered[number] = int(value)
        return numbered

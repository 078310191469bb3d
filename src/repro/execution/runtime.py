"""The minimal runtime library external to the V-ISA.

LLVA deliberately has no runtime system (design goal #1) — but programs
still call externally-provided routines: allocation, output, process exit.
In the paper these are the C library, reached through ordinary ``call``
instructions ("LLVA executables can invoke native libraries", Section
4.1).  Here the host implements them.

Every routine has a fixed LLVA signature so modules can declare them
type-safely via :func:`declare_runtime`.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List

from repro.execution.events import ExecutionTrap, ExitRequest, TrapKind
from repro.ir import types
from repro.ir.module import Function, Module

BYTE_PTR = types.pointer_to(types.SBYTE)

#: name -> LLVA function type of every runtime routine.
RUNTIME_SIGNATURES: Dict[str, types.FunctionType] = {
    "malloc": types.function_of(BYTE_PTR, (types.UINT,)),
    "free": types.function_of(types.VOID, (BYTE_PTR,)),
    "print_int": types.function_of(types.VOID, (types.INT,)),
    "print_long": types.function_of(types.VOID, (types.LONG,)),
    "print_uint": types.function_of(types.VOID, (types.UINT,)),
    "print_double": types.function_of(types.VOID, (types.DOUBLE,)),
    "print_char": types.function_of(types.VOID, (types.SBYTE,)),
    "print_str": types.function_of(types.VOID, (BYTE_PTR,)),
    "print_newline": types.function_of(types.VOID, ()),
    "exit": types.function_of(types.VOID, (types.INT,)),
    "abort": types.function_of(types.VOID, ()),
    "clock_ticks": types.function_of(types.ULONG, ()),
    # Pool runtime for Automatic Pool Allocation (Section 5.1).
    "poolinit": types.function_of(types.VOID, (BYTE_PTR, types.UINT)),
    "poolalloc": types.function_of(BYTE_PTR, (BYTE_PTR, types.UINT)),
    "poolfree": types.function_of(types.VOID, (BYTE_PTR, BYTE_PTR)),
    "pooldestroy": types.function_of(types.VOID, (BYTE_PTR,)),
}


def is_runtime_name(name: str) -> bool:
    return name in RUNTIME_SIGNATURES


def weak_tick_source(engine, attribute: str) -> Callable[[], int]:
    """A ``clock_ticks`` source reading ``engine.<attribute>`` that does
    not keep *engine* alive: a lambda over the engine would put every
    engine in a reference cycle with its runtime library, so a finished
    run and its memory would live until the cyclic GC ran."""
    engine = weakref.ref(engine)
    return lambda: getattr(engine(), attribute)


def declare_runtime(module: Module, name: str) -> Function:
    """Get-or-create the declaration of runtime routine *name*."""
    return module.get_or_declare_function(name, RUNTIME_SIGNATURES[name])


class RuntimeLibrary:
    """Host implementation of the runtime routines for one execution.

    Output is captured in :attr:`output` (list of text chunks) so program
    results are comparable across the interpreter and both native
    simulators.  ``clock_ticks`` returns the engine's deterministic
    instruction/cycle counter rather than wall-clock time.
    """

    POOL_SLAB_BYTES = 4096

    def __init__(self, memory, tick_source: Callable[[], int] = lambda: 0):
        self.memory = memory
        self.output: List[str] = []
        self._tick_source = tick_source
        # Pool-allocation bookkeeping (descriptor address -> pool state).
        self._pools: Dict[int, Dict[str, object]] = {}
        #: Allocator traffic counters for the pool-allocation bench:
        #: general-purpose malloc/free calls vs pool fast-path bumps.
        self.malloc_calls = 0
        self.free_calls = 0
        self.pool_allocs = 0
        self.pool_slab_mallocs = 0

    def output_text(self) -> str:
        return "".join(self.output)

    def call(self, name: str, args: List) -> object:
        return self.handler(name)(*args)

    def handler(self, name: str) -> Callable:
        """The host function of routine *name*; call it with the
        routine's arguments."""
        handler = getattr(self, "_do_" + name, None)
        if handler is None:
            raise ExecutionTrap(
                TrapKind.SOFTWARE_TRAP,
                "call to unresolved external %{0}".format(name))
        return handler

    # -- allocation ------------------------------------------------------------

    def _do_malloc(self, size: int) -> int:
        self.malloc_calls += 1
        return self.memory.malloc(int(size))

    def _do_free(self, address: int) -> None:
        self.free_calls += 1
        self.memory.free(int(address))

    # -- pool runtime (Automatic Pool Allocation, Section 5.1) -------------------

    def _do_poolinit(self, descriptor: int, element_size: int) -> None:
        self._pools[int(descriptor)] = {
            "slabs": [], "cursor": 0, "remaining": 0,
            "element_size": int(element_size),
            # Live per-object allocations (llva-san mode only).
            "objects": set(),
        }

    def _do_poolalloc(self, descriptor: int, size: int) -> int:
        pool = self._pools.get(int(descriptor))
        if pool is None:
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "poolalloc on uninitialized pool")
        if self.memory.san is not None:
            # Sanitized: allocate per object so every pool object gets
            # its own redzones and quarantine entry — a bump allocation
            # inside a shared slab would hide overflows between
            # neighbouring pool objects.
            address = self.memory.malloc(max(int(size), 1))
            pool["objects"].add(address)
            self.pool_allocs += 1
            return address
        size = max(int(size), 1)
        size = (size + 15) // 16 * 16
        if pool["remaining"] < size:
            slab_size = max(self.POOL_SLAB_BYTES, size)
            slab = self.memory.malloc(slab_size)
            self.pool_slab_mallocs += 1
            pool["slabs"].append(slab)
            pool["cursor"] = slab
            pool["remaining"] = slab_size
        address = pool["cursor"]
        pool["cursor"] += size
        pool["remaining"] -= size
        self.pool_allocs += 1
        return address

    def _do_poolfree(self, descriptor: int, address: int) -> None:
        # Individual frees are deferred to pooldestroy — the whole point
        # of segregating a data structure instance into its own pool.
        pool = self._pools.get(int(descriptor))
        if pool is None:
            raise ExecutionTrap(TrapKind.SOFTWARE_TRAP,
                                "poolfree on uninitialized pool")
        if self.memory.san is not None:
            # Sanitized pools free eagerly, so a dangling pool pointer
            # faults as use-after-free (and a bad address as
            # invalid/double free) instead of being silently deferred.
            address = int(address)
            self.memory.free(address)
            pool["objects"].discard(address)

    def _do_pooldestroy(self, descriptor: int) -> None:
        pool = self._pools.pop(int(descriptor), None)
        if pool is None:
            return  # double destroy is tolerated
        for slab in pool["slabs"]:
            self.memory.free(slab)
        for address in sorted(pool["objects"]):
            self.memory.free(address)

    # -- output ----------------------------------------------------------------

    def _do_print_int(self, value: int) -> None:
        self.output.append(str(int(value)))

    _do_print_long = _do_print_int
    _do_print_uint = _do_print_int

    def _do_print_double(self, value: float) -> None:
        self.output.append("{0:.6f}".format(float(value)))

    def _do_print_char(self, value: int) -> None:
        self.output.append(chr(int(value) & 0xFF))

    def _do_print_str(self, address: int) -> None:
        raw = self.memory.read_cstring(int(address))
        self.output.append(raw.decode("latin-1"))

    def _do_print_newline(self) -> None:
        self.output.append("\n")

    # -- process control -----------------------------------------------------------

    def _do_exit(self, status: int) -> None:
        raise ExitRequest(int(status))

    def _do_abort(self) -> None:
        raise ExecutionTrap(TrapKind.SOFTWARE_TRAP, "abort() called")

    def _do_clock_ticks(self) -> int:
        return int(self._tick_source())

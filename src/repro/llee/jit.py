"""The function-at-a-time JIT (Section 4.1, 5.2).

"Both the JIT and offline compilers ... the JIT translates functions on
demand, so that unused code is not translated."  The JIT is the
``resolver`` the machine simulator calls when control first reaches an
untranslated function; it also listens for self-modifying-code events
and invalidates stale translations (Section 3.4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import observe
from repro.ir.module import Function, Module
from repro.targets.machine import MachineFunction
from repro.targets.native import NativeModule


@dataclass
class JITStats:
    """Accounting for the Table 2 translation-cost columns."""

    functions_translated: int = 0
    instructions_translated: int = 0
    translate_seconds: float = 0.0
    invalidations: int = 0
    retranslations: int = 0
    #: Cumulative translate time per function — a retranslated function
    #: (SMC invalidation) accumulates instead of overwriting.
    per_function: Dict[str, float] = field(default_factory=dict)
    #: How many times each function has been translated.
    translation_counts: Dict[str, int] = field(default_factory=dict)


class FunctionJIT:
    """Translates LLVA functions for one target, on demand."""

    def __init__(self, module: Module, target):
        self.module = module
        self.target = target
        self.stats = JITStats()

    def translate(self, name: str) -> MachineFunction:
        """Translate one function now (the resolver callback)."""
        function = self.module.get_function(name)
        with observe.span("jit.translate", function=name,
                          target=self.target.name) as span:
            started = time.perf_counter()
            machine = self.target.translate_function(function)
            elapsed = time.perf_counter() - started
        llva_instructions = function.cached_num_instructions()
        stats = self.stats
        stats.functions_translated += 1
        stats.instructions_translated += llva_instructions
        stats.translate_seconds += elapsed
        stats.per_function[name] = stats.per_function.get(name, 0.0) + elapsed
        count = stats.translation_counts.get(name, 0) + 1
        stats.translation_counts[name] = count
        if count > 1:
            stats.retranslations += 1
        if observe.enabled():
            native_instructions = machine.num_instructions()
            span.set(llva_instructions=llva_instructions,
                     native_instructions=native_instructions)
            observe.counter("jit.functions_translated", 1,
                            target=self.target.name)
            observe.counter("jit.llva_instructions",
                            llva_instructions,
                            target=self.target.name)
            observe.counter("jit.native_instructions",
                            native_instructions,
                            target=self.target.name)
            observe.counter("jit.translate_seconds", elapsed,
                            target=self.target.name)
            observe.histogram("jit.function_translate_seconds",
                              elapsed, target=self.target.name)
            if llva_instructions:
                observe.histogram(
                    "jit.expansion_ratio",
                    native_instructions / llva_instructions,
                    target=self.target.name)
        return machine

    def translate_all(self, native: Optional[NativeModule] = None
                      ) -> NativeModule:
        """Offline mode: translate the entire module up front
        ("the total code generation time ... to compile the entire
        program (regardless of which functions are actually executed)",
        Section 5.2)."""
        if native is None:
            native = NativeModule(self.target, self.module.name)
        with observe.span("jit.translate_all",
                          module=self.module.name,
                          target=self.target.name):
            for function in self.module.functions.values():
                if function.is_declaration:
                    continue
                if function.name not in native.functions:
                    native.add_function(self.translate(function.name))
        return native

    def on_smc_replace(self, native: NativeModule):
        """A listener for the engines' ``smc_listeners`` hook: drop the
        cached translation so the next invocation retranslates."""
        def listener(function: Function) -> None:
            if native.functions.pop(function.name, None) is not None:
                self.stats.invalidations += 1
                if observe.enabled():
                    observe.counter("jit.invalidations", 1,
                                    target=self.target.name)
                    observe.event("smc.invalidate", layer="native",
                                  reason="smc-replace",
                                  function=function.name)
        return listener

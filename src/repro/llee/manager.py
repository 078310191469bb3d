"""LLEE — the Low Level Execution Environment (Section 4.1).

The translation strategy in one sentence: *offline translation when
possible, online translation whenever necessary.*

When asked to run a virtual executable, LLEE:

1. looks for a cached native translation through the OS-provided
   storage API (if one was registered), validating its timestamp
   against the executable's;
2. on a hit, relocates the cached native code and runs it directly —
   no translation cost at all;
3. on a miss (or with no storage API), invokes the function-at-a-time
   JIT, then writes the new translation back to the cache for next
   time;
4. during idle time, the OS may request :meth:`LLEE.offline_translate`,
   which populates the cache without executing ("initiating 'execution'
   as above, but flagging it for translation and not actual
   execution").

An LLEE loads each executable once: the module it read, the translation
it ran and the machine that ran it stay resident for the next launch.
That launch still reads the cached vector, and reuses the translation
only for the same stored bytes (the same header line, a payload that
still hashes to its digest); any other vector is decoded as before.  A
launch that reuses the translation also reuses its machine, reset to a
fresh one's state, so it decodes no machine code either: the cached
translation runs directly.  Its data image is relocated the same way:
the machine's image applies the layout it took at the first load, and an
interpreted launch applies the one its decoded module keeps, instead of
walking every global initializer again.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import observe
from repro.bitcode.reader import read_module
from repro.execution.config import ExecConfig
from repro.execution.fastpath import DecodeCache
from repro.execution.interpreter import Interpreter
from repro.execution.machine_sim import MachineSimulator
from repro.llee.jit import FunctionJIT, JITStats
from repro.llee.storage import (
    StorageAPI,
    load_entry,
    note_cache,
    store_entry,
)
from repro.targets.native import (
    NativeModule,
    deserialize_native,
    native_header,
    serialize_native,
)

_CACHE_NAME = "llee-native"


@dataclass
class RunReport:
    """Everything one LLEE run observed."""

    return_value: object
    output: str
    exit_status: int
    cycles: int
    native_instructions_executed: int
    #: Did a valid cached translation exist before this run?
    cache_hit: bool
    #: Functions translated online during this run.
    functions_jitted: int
    translate_seconds: float
    run_seconds: float


@dataclass
class InterpretedRunReport:
    """Outcome of one :meth:`LLEE.run_interpreted` call."""

    return_value: object
    output: str
    exit_status: int
    steps: int
    engine: str
    #: Did a previous run leave a reusable decoded module behind?
    cache_hit: bool
    decode_seconds: float
    run_seconds: float
    #: Was the run executed under llva-san shadow-memory checking?
    sanitized: bool = False
    #: Tier-2 translation activity (all zero with tier 2 off).
    tier2_steps: int = 0
    tier2_calls: int = 0
    tier2_functions_compiled: int = 0
    tier2_warm_compiles: int = 0
    tier2_compile_seconds: float = 0.0
    #: Did a persisted tier-2 translation blob validate and load?
    translation_cache_hit: bool = False


class LLEE:
    """The execution manager for one target processor.

    ``last_simulator`` is the engine of the most recent native launch.
    A resident executable keeps its engine, so the next launch of the
    same executable resets it; a caller that inspects a finished run
    does so before that launch.
    """

    def __init__(self, target, storage: Optional[StorageAPI] = None):
        self.target = target
        #: Registered via the OS at startup (the paper's
        #: ``llva.storage.register`` bootstrap); None = no OS support,
        #: every run translates online (the DAISY/Crusoe situation).
        self.storage = storage
        #: Observability hook: the engine from the most recent
        #: :meth:`run_executable`, so callers (``repro stats``,
        #: :func:`repro.llee.profile.read_profile`) can inspect the
        #: finished run's memory image.
        self.last_simulator: Optional[MachineSimulator] = None
        #: Decoded-module reuse for :meth:`run_interpreted`: (config,
        #: object-code key) -> (module, DecodeCache, Tier2Cache or None,
        #: ImageLayout).  The interpreter analogue of the native
        #: translation cache — decode and lay out once, run many times.
        self._interp_cache: dict = {}
        #: Executables loaded by :meth:`run_executable`: native cache
        #: key -> (module, translation or None, the header line of the
        #: stored vector that translation equals or None, the simulator
        #: that ran the translation or None).
        self._resident: dict = {}

    # -- the paper's Figure 3 flow -----------------------------------------

    def run_executable(self, object_code: bytes, entry: str = "main",
                       args: Sequence[object] = (),
                       executable_timestamp: Optional[float] = None
                       ) -> RunReport:
        """Load and execute a virtual executable.

        The module read from *object_code* stays resident on this LLEE,
        and so does the translation a launch ran while it equals a
        stored vector: the one it was loaded from or written back as.
        Every launch still looks the vector up through the storage API;
        a resident translation is reused only for a vector whose header
        line is the one it was loaded from or written as and whose
        payload still hashes to that digest, and any other vector
        decodes afresh.  The simulator that ran a resident translation
        stays with it, and a launch that reuses the translation resets
        that simulator instead of building one, keeping its decoded
        code.  A launch that fires ``llva.smc.replace`` leaves nothing
        resident (it rewrote the module), so the next one reads the
        pristine object code again.
        """
        with observe.span("llee.run_executable",
                          target=self.target.name,
                          entry=entry) as run_span:
            key = self._cache_key(object_code)
            module, resident, resident_header, simulator = \
                self._resident.pop(key, (None, None, None, None))
            if module is None:
                module = read_module(object_code)
            loaded_from = []

            def decode(data: bytes) -> NativeModule:
                header = native_header(data)
                loaded_from.append(header)
                if resident is not None and header == resident_header:
                    return resident
                return deserialize_native(data, self.target)

            with observe.span("llee.cache_lookup", key=key):
                native = load_entry(
                    self.storage, _CACHE_NAME, key, self.target.name,
                    decode, executable_timestamp)
            cache_hit = native is not None
            if native is None:
                native = NativeModule(self.target, module.name)
            jit = FunctionJIT(module, self.target)
            if native is resident:
                simulator.reset(resolver=jit.translate)
            else:
                simulator = MachineSimulator(native, module,
                                             resolver=jit.translate)
            self.last_simulator = simulator
            smc_fired = []
            simulator.smc_listeners.append(jit.on_smc_replace(native))
            simulator.smc_listeners.append(smc_fired.append)
            written = None
            try:
                run_started = time.perf_counter()
                with observe.span("llee.execute", entry=entry):
                    value, status = simulator.run(entry, args)
                run_seconds = time.perf_counter() - run_started \
                    - jit.stats.translate_seconds
                run_span.set(cache_hit=cache_hit,
                             functions_jitted=jit.stats.functions_translated)
                if self.storage is not None \
                        and jit.stats.functions_translated:
                    # Write back any code the JIT had to generate.
                    with observe.span("llee.cache_store", key=key):
                        written = self._store(key, native)
            finally:
                if not smc_fired:
                    # The translation, and the machine that ran it,
                    # stay only while it equals a stored vector: the one
                    # it was loaded from, or the one the JIT's additions
                    # were written back as.
                    if jit.stats.functions_translated:
                        stored_as = written
                    else:
                        stored_as = loaded_from[-1] if cache_hit else None
                    if stored_as:
                        self._resident[key] = (module, native, stored_as,
                                               simulator)
                    else:
                        self._resident[key] = (module, None, None, None)
        return RunReport(
            return_value=value,
            output=simulator.output_text(),
            exit_status=status,
            cycles=simulator.cycles,
            native_instructions_executed=simulator.instructions_executed,
            cache_hit=cache_hit,
            functions_jitted=jit.stats.functions_translated,
            translate_seconds=jit.stats.translate_seconds,
            run_seconds=max(run_seconds, 0.0),
        )

    def run_interpreted(self, object_code: bytes, entry: str = "main",
                        args: Sequence[object] = (), *,
                        privileged: bool = False,
                        executable_timestamp: Optional[float] = None,
                        **settings) -> InterpretedRunReport:
        """Run a virtual executable on an interpreter engine.

        *settings* are :class:`ExecConfig` fields (``engine``,
        ``tier2``, ``tier2_threshold``, ``sanitize``); the defaults run
        the fast engine with tier 2 off.

        On the fast engine the decoded module is cached across
        invocations, keyed on the config and the object code — the
        pre-decode cost is paid once.  So is the layout of the data
        image: the first launch's image takes it before any instruction
        runs, and each later launch applies it to its new memory.  A run
        that triggers ``llva.smc.replace`` drops the cached module (its
        in-memory body has been mutated), so the next invocation
        re-reads the pristine object code, matching the fresh-module
        semantics of :meth:`run_executable`.

        With tier 2 on, the Tier2Cache is kept alongside the decode
        cache (hot functions stay compiled across invocations), and —
        when this LLEE was constructed with a storage API — tier-2
        source is persisted through it under the ``llee-tier2`` cache,
        so a fresh process warm-starts from the offline translation
        exactly like the native path does.  A stale, corrupt, or
        mismatched blob logs ``llee.cache.invalid`` and degrades to
        online translation.
        """
        config = ExecConfig(**settings)
        object_key = self._cache_key(object_code)
        key = (config, object_key)
        fast = config.engine == "fast"
        with observe.span("llee.run_interpreted", entry=entry,
                          engine=config.engine, tier2=config.tier2):
            cached = self._interp_cache.get(key) if fast else None
            cache_hit = cached is not None
            if cached is None:
                layout = None
                module = read_module(object_code)
                decode_cache = DecodeCache(module.target_data,
                                           config.sanitize)
                tier2_cache = None
                if config.tier2:
                    from repro.execution.tier2 import Tier2Cache

                    tier2_cache = Tier2Cache(module, module.target_data,
                                             config.tier2_threshold)
                    if self.storage is not None:
                        tier2_cache.attach_storage(
                            self.storage, object_key,
                            executable_timestamp=executable_timestamp)
            else:
                module, decode_cache, tier2_cache, layout = cached
            observe.counter(
                "llee.cache.hit" if cache_hit else "llee.cache.miss",
                1, target="interp")
            note_cache("hit" if cache_hit else "miss", "llee-interp",
                       object_key, "interp")
            interpreter = Interpreter(
                module, config, privileged=privileged,
                decode_cache=decode_cache, tier2_cache=tier2_cache,
                layout=layout)
            smc_fired = []
            interpreter.smc_listeners.append(smc_fired.append)
            decode_before = decode_cache.stats.decode_seconds
            compile_before = tier2_cache.stats.compile_seconds \
                if tier2_cache is not None else 0.0
            started = time.perf_counter()
            try:
                result = interpreter.run(entry, list(args))
            finally:
                if fast and smc_fired:
                    # Also when the run then trapped: the module it
                    # rewrote must not serve the next launch.
                    self._interp_cache.pop(key, None)
            run_seconds = time.perf_counter() - started
            if fast and not smc_fired:
                self._interp_cache[key] = (
                    module, decode_cache, tier2_cache,
                    interpreter.image.layout)
            if tier2_cache is not None:
                tier2_cache.flush_storage()
            decode_seconds = decode_cache.stats.decode_seconds \
                - decode_before
        report = InterpretedRunReport(
            return_value=result.return_value,
            output=result.output,
            exit_status=result.exit_status,
            steps=result.steps,
            engine=config.engine,
            cache_hit=cache_hit,
            decode_seconds=decode_seconds,
            run_seconds=max(run_seconds - decode_seconds, 0.0),
            sanitized=config.sanitize,
        )
        if tier2_cache is not None:
            report.tier2_steps = interpreter.tier2_steps
            report.tier2_calls = interpreter.tier2_calls
            report.tier2_functions_compiled = \
                tier2_cache.stats.functions_compiled
            report.tier2_warm_compiles = tier2_cache.stats.warm_compiles
            report.tier2_compile_seconds = \
                tier2_cache.stats.compile_seconds - compile_before
            report.translation_cache_hit = \
                tier2_cache.translation_cache_hit
        return report

    def offline_translate(self, object_code: bytes,
                          optimize_level: int = 0) -> JITStats:
        """Idle-time translation: populate the cache, execute nothing.

        A nonzero ``optimize_level`` is the paper's *install-time
        optimization* (Section 4.2, item 2): since the rich code
        representation is still available at install time, the
        translator runs its optimizer before generating code for this
        particular system, and the cache serves the tuned translation
        on every subsequent launch.
        """
        if self.storage is None:
            raise RuntimeError(
                "offline translation requires the storage API")
        with observe.span("llee.offline_translate",
                          target=self.target.name,
                          optimize_level=optimize_level):
            module = read_module(object_code)
            if optimize_level > 0:
                from repro.transforms.pass_manager import optimize

                optimize(module, level=optimize_level)
            jit = FunctionJIT(module, self.target)
            self._store(self._cache_key(object_code), jit.translate_all())
            observe.counter("llee.offline_translations", 1,
                            target=self.target.name)
        return jit.stats

    # -- cache plumbing ---------------------------------------------------------

    def _store(self, key: str, native: NativeModule) -> Optional[bytes]:
        """Write *native* to the native cache; the header line it was
        stored under, or None when the write failed."""
        data = serialize_native(native)
        if store_entry(self.storage, _CACHE_NAME, key, self.target.name,
                       data):
            return native_header(data)
        return None

    def _cache_key(self, object_code: bytes) -> str:
        digest = hashlib.sha256(object_code).hexdigest()[:24]
        return "{0}-{1}".format(self.target.name, digest)

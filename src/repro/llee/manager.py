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

An LLEE loads each executable once, into one record: the module read
from its object code, which every engine and the translator share; the
fast engine's decoded state per :class:`ExecConfig`; and the native
translation for the LLEE's target while it equals a stored vector (the
same header line, a payload that still hashes to its digest), with the
machine that ran it, reset rather than rebuilt for the next launch.  A
relaunch applies the data-image layout its first launch took instead of
walking every global initializer again.  A launch that fires
``llva.smc.replace`` rewrote the module, so it drops the record, also
when it then traps; every other launch keeps it.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro import observe
from repro.bitcode.reader import read_module
from repro.execution.config import ExecConfig
from repro.execution.fastpath import DecodeCache
from repro.execution.interpreter import Interpreter
from repro.execution.machine_sim import MachineSimulator
from repro.ir.module import Module
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
    #: Did a previous launch leave this config's decoded state behind?
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


@dataclass
class _Executable:
    """One loaded executable (see the module docstring)."""

    module: Module
    #: Fast-engine config -> (DecodeCache, Tier2Cache or None,
    #: ImageLayout).
    decoded: Dict[ExecConfig, Tuple] = field(default_factory=dict)
    #: The translation while it equals a stored vector, that vector's
    #: header line, and the machine that ran it; else all None.
    native: Optional[NativeModule] = None
    header: Optional[bytes] = None
    simulator: Optional[MachineSimulator] = None


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
        #: The loaded executables, by object key.
        self._executables: Dict[str, _Executable] = {}

    # -- the paper's Figure 3 flow -----------------------------------------

    def run_executable(self, object_code: bytes, entry: str = "main",
                       args: Sequence[object] = (),
                       executable_timestamp: Optional[float] = None
                       ) -> RunReport:
        """Load and execute a virtual executable.

        Every launch looks the vector up through the storage API, and
        reuses the record's translation, with its machine reset, only
        for the vector that translation was loaded from or written back
        as; any other vector decodes afresh.
        """
        with observe.span("llee.run_executable",
                          target=self.target.name,
                          entry=entry) as run_span, \
                self._launch(object_code) as (key, record, on_smc):
            module = record.module
            resident, simulator = record.native, record.simulator
            loaded_from = []

            def decode(data: bytes) -> NativeModule:
                header = native_header(data)
                loaded_from.append(header)
                if resident is not None and header == record.header:
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
            simulator.smc_listeners.append(jit.on_smc_replace(native))
            simulator.smc_listeners.append(on_smc)
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
                # The translation, and the machine that ran it, stay
                # only while it equals a stored vector: the one it was
                # loaded from, or the one the JIT's additions were
                # written back as.
                if jit.stats.functions_translated:
                    stored_as = written
                else:
                    stored_as = loaded_from[-1] if cache_hit else None
                record.native, record.header, record.simulator = \
                    (native, stored_as, simulator) if stored_as \
                    else (None, None, None)
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

        Every engine runs the record's module.  The fast engine also
        keeps its decoded state there, per config: the decode cache, the
        data-image layout and, with tier 2 on, the Tier2Cache (hot
        functions stay compiled across invocations).  The reference
        engine keeps nothing, so its ``cache_hit`` is always False.

        With a storage API, tier-2 source is persisted through it under
        the ``llee-tier2`` cache, keyed by the object-code digest alone
        (``tier2.cache_key``, shared with ``repro run
        --translation-cache`` and every target's LLEE), so a fresh
        process warm-starts from the offline translation like the native
        path does.  A stale, corrupt or mismatched blob logs
        ``llee.cache.invalid`` and degrades to online translation.
        """
        config = ExecConfig(**settings)
        fast = config.engine == "fast"
        with observe.span("llee.run_interpreted", entry=entry,
                          engine=config.engine, tier2=config.tier2), \
                self._launch(object_code) as (object_key, record, on_smc):
            module = record.module
            decoded = record.decoded.get(config)
            cache_hit = decoded is not None
            decode_cache = tier2_cache = layout = None
            if decoded is not None:
                decode_cache, tier2_cache, layout = decoded
            elif fast:
                decode_cache = DecodeCache(module.target_data,
                                           config.sanitize)
                if config.tier2:
                    from repro.execution.tier2 import Tier2Cache, cache_key

                    tier2_cache = Tier2Cache(module, module.target_data,
                                             config.tier2_threshold)
                    if self.storage is not None:
                        tier2_cache.attach_storage(
                            self.storage, cache_key(object_code),
                            executable_timestamp=executable_timestamp)
            observe.counter(
                "llee.cache.hit" if cache_hit else "llee.cache.miss",
                1, target="interp")
            note_cache("hit" if cache_hit else "miss", "llee-interp",
                       object_key, "interp")
            interpreter = Interpreter(
                module, config, privileged=privileged,
                decode_cache=decode_cache, tier2_cache=tier2_cache,
                layout=layout)
            interpreter.smc_listeners.append(on_smc)
            if fast:
                record.decoded[config] = (decode_cache, tier2_cache,
                                          interpreter.image.layout)
            decode_before = decode_cache.stats.decode_seconds \
                if fast else 0.0
            compile_before = tier2_cache.stats.compile_seconds \
                if tier2_cache is not None else 0.0
            started = time.perf_counter()
            result = interpreter.run(entry, list(args))
            run_seconds = time.perf_counter() - started
            if tier2_cache is not None:
                tier2_cache.flush_storage()
            decode_seconds = decode_cache.stats.decode_seconds \
                - decode_before if fast else 0.0
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

    @contextmanager
    def _launch(self, object_code: bytes):
        """One launch of the executable *object_code*: yields its object
        key, its record (read on the first launch) and the listener the
        launch's engine calls when ``llva.smc.replace`` fires.  A launch
        that fired it rewrote the module, so the record goes, also when
        the launch then trapped."""
        key = self._cache_key(object_code)
        record = self._executables.get(key)
        if record is None:
            record = _Executable(read_module(object_code))
            self._executables[key] = record
        smc_fired = []
        try:
            yield key, record, smc_fired.append
        finally:
            if smc_fired:
                self._executables.pop(key, None)

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

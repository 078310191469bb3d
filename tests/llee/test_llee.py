"""LLEE tests: storage API, cache orchestration, profiling, traces."""

import time

import pytest

from helpers import build_factorial
from repro.bitcode import write_module
from repro.execution import Interpreter
from repro.llee import (
    LLEE,
    DiskStorage,
    InMemoryStorage,
    SoftwareTraceCache,
    idle_time_reoptimize,
    instrument_module,
    read_profile,
    strip_instrumentation,
)
from repro.minic import compile_source
from repro.targets import make_target

PROGRAM = r"""
int helper(int x) { return x * x + 1; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 50; i++) {
        if (i % 3 == 0) {
            total += helper(i);
        } else {
            total -= i;
        }
    }
    print_int(total);
    return total & 32767;
}
"""


@pytest.fixture(scope="module")
def object_code():
    module = compile_source(PROGRAM, "llee-test", optimization_level=2)
    return write_module(module)


#: Figure 3's program: five functions reached from ``main``, plus a
#: leaf entry point that reaches only ``work``.
FIG3_PROGRAM = r"""
int work(int n) {
    int total = 0;
    int i;
    for (i = 0; i < n; i++) {
        total = (total * 31 + i) % 100003;
    }
    return total;
}

int helper_a(int x) { return work(x) + 1; }
int helper_b(int x) { return work(x + 3) * 2; }
int helper_c(int x) { return helper_a(x) + helper_b(x); }

int main() {
    int total = 0;
    int i;
    for (i = 0; i < 12; i++) {
        total = (total + helper_c(i * 17)) % 1000003;
    }
    return total;
}

int tiny_entry() { return work(5); }
"""


@pytest.fixture(scope="module")
def fig3_code():
    module = compile_source(FIG3_PROGRAM, "fig3", optimization_level=2)
    return write_module(module)


@pytest.fixture(params=["memory", "disk"])
def storage(request, tmp_path):
    if request.param == "memory":
        return InMemoryStorage()
    return DiskStorage(str(tmp_path / "cache"))


class TestStorageAPI:
    def _exercise(self, storage):
        assert storage.read("c", "missing") is None
        storage.write("c", "key", b"hello", timestamp=100.0)
        assert storage.read("c", "key") == b"hello"
        assert storage.timestamp("c", "key") == pytest.approx(100.0)
        assert storage.cache_size("c") == 5
        storage.write("c", "key2", b"xyz")
        assert storage.cache_size("c") == 8
        storage.delete_cache("c")
        assert storage.read("c", "key") is None
        assert storage.cache_size("c") == 0

    def test_in_memory(self):
        self._exercise(InMemoryStorage())

    def test_disk(self, tmp_path):
        self._exercise(DiskStorage(str(tmp_path / "cache")))


class TestLLEECaching:
    def test_cold_warm_cycle(self, object_code):
        storage = InMemoryStorage()
        llee = LLEE(make_target("x86"), storage)
        cold = llee.run_executable(object_code)
        warm = llee.run_executable(object_code)
        assert not cold.cache_hit and cold.functions_jitted == 2
        assert warm.cache_hit and warm.functions_jitted == 0
        assert cold.return_value == warm.return_value
        assert cold.output == warm.output
        assert cold.cycles == warm.cycles  # same code, same workload

    def test_disk_cache_survives_llee_restart(self, object_code,
                                              tmp_path):
        storage = DiskStorage(str(tmp_path))
        first = LLEE(make_target("x86"), storage)
        cold = first.run_executable(object_code)
        # A "reboot": a brand new LLEE against the same disk.
        second = LLEE(make_target("x86"), storage)
        warm = second.run_executable(object_code)
        assert warm.cache_hit and warm.functions_jitted == 0
        assert warm.return_value == cold.return_value

    def test_stale_timestamp_invalidates(self, object_code):
        storage = InMemoryStorage()
        llee = LLEE(make_target("x86"), storage)
        llee.run_executable(object_code, executable_timestamp=10.0)
        rebuilt = llee.run_executable(
            object_code, executable_timestamp=time.time() + 1e6)
        assert not rebuilt.cache_hit
        assert rebuilt.functions_jitted > 0

    def test_per_target_caches_are_separate(self, object_code):
        storage = InMemoryStorage()
        x86 = LLEE(make_target("x86"), storage)
        sparc = LLEE(make_target("sparc"), storage)
        x86.run_executable(object_code)
        report = sparc.run_executable(object_code)
        assert not report.cache_hit  # different target, different key
        warm = sparc.run_executable(object_code)
        assert warm.cache_hit

    def test_offline_translate_requires_storage(self, object_code):
        llee = LLEE(make_target("x86"), storage=None)
        with pytest.raises(RuntimeError):
            llee.offline_translate(object_code)

    # -- Figure 3's dataflows ------------------------------------------

    def test_fig3_cold_then_warm(self, fig3_code, storage):
        """The first run JITs and writes back; the second loads the
        cached translation and translates nothing."""
        llee = LLEE(make_target("x86"), storage)
        cold = llee.run_executable(fig3_code)
        assert not cold.cache_hit and cold.functions_jitted > 0
        warm = llee.run_executable(fig3_code)
        assert warm.cache_hit
        assert warm.functions_jitted == 0
        assert warm.return_value == cold.return_value
        assert warm.translate_seconds == 0.0

    def test_fig3_no_storage_translates_every_run(self, fig3_code):
        """Without the storage API every launch translates online
        (DAISY and Crusoe 'cannot cache any translated code ... in
        off-processor storage')."""
        llee = LLEE(make_target("x86"), storage=None)
        for _ in range(2):
            report = llee.run_executable(fig3_code)
            assert not report.cache_hit
            assert report.functions_jitted > 0
            assert report.translate_seconds > 0.0

    def test_fig3_idle_time_translation(self, fig3_code, storage):
        """Idle-time translation fills the cache without executing, so
        the first run does no JIT work."""
        llee = LLEE(make_target("sparc"), storage)
        stats = llee.offline_translate(fig3_code)
        assert stats.functions_translated >= 5
        first = llee.run_executable(fig3_code)
        assert first.cache_hit and first.functions_jitted == 0

    def test_fig3_lazy_jit_translates_only_reached_code(self, fig3_code):
        """"the JIT translates functions on demand, so that unused code
        is not translated": a leaf entry point reaches only itself and
        ``work``."""
        llee = LLEE(make_target("x86"), storage=None)
        report = llee.run_executable(fig3_code, entry="tiny_entry")
        assert report.functions_jitted == 2

    def test_both_targets_agree_with_interpreter(self, object_code):
        from repro.bitcode import read_module

        module = read_module(object_code)
        expected = Interpreter(module).run("main")
        for target_name in ("x86", "sparc"):
            llee = LLEE(make_target(target_name), InMemoryStorage())
            report = llee.run_executable(object_code)
            assert report.return_value == expected.return_value
            assert report.output == expected.output


class TestSanitizedInterpretedRuns:
    HEAP_PROGRAM = r"""
    int main() {
        int* p = (int*) malloc(40);
        int i;
        int total = 0;
        for (i = 0; i < 10; i++) { p[i] = i; }
        for (i = 0; i < 10; i++) { total += p[i]; }
        free((char*) p);
        return total;
    }
    """

    @pytest.fixture(scope="class")
    def heap_object_code(self):
        module = compile_source(self.HEAP_PROGRAM, "llee-san-test",
                                optimization_level=2)
        return write_module(module)

    def test_sanitized_run_matches_plain(self, heap_object_code):
        llee = LLEE(make_target("x86"))
        plain = llee.run_interpreted(heap_object_code)
        sanitized = llee.run_interpreted(heap_object_code, sanitize=True)
        assert not plain.sanitized
        assert sanitized.sanitized
        assert sanitized.return_value == plain.return_value == 45
        assert sanitized.output == plain.output
        assert sanitized.steps == plain.steps

    def test_sanitized_run_surfaces_fault(self):
        from repro.asm import parse_module
        from repro.execution import ExecutionTrap

        buggy = parse_module("""
        declare sbyte* %malloc(uint)
        declare void %free(sbyte*)
        int %main() {
        entry:
                %p = call sbyte* %malloc(uint 16)
                call void %free(sbyte* %p)
                %v = load sbyte* %p
                %r = cast sbyte %v to int
                ret int %r
        }
        """)
        code = write_module(buggy)
        llee = LLEE(make_target("x86"))
        with pytest.raises(ExecutionTrap) as info:
            llee.run_interpreted(code, sanitize=True)
        assert "heap-use-after-free" in info.value.detail


#: ``main`` calls ``f``, replaces it by ``g`` and calls it again.
SMC_SOURCE = """
declare void %llva.smc.replace(sbyte*, sbyte*)
int %f(int %x) {
entry:
        %r = add int %x, 1
        ret int %r
}
int %g(int %x) {
entry:
        %r = mul int %x, 50
        ret int %r
}
int %main() {
entry:
        %before = call int %f(int 2)
        %old = cast int (int)* %f to sbyte*
        %new = cast int (int)* %g to sbyte*
        call void %llva.smc.replace(sbyte* %old, sbyte* %new)
        %after = call int %f(int 2)
        %r = add int %before, %after
        ret int %r
}
"""


class TestSMCInvalidation:
    def _code(self):
        from repro.asm import parse_module

        return write_module(parse_module(SMC_SOURCE))

    def test_jit_retranslates_after_smc(self):
        llee = LLEE(make_target("x86"), storage=None)
        report = llee.run_executable(self._code())
        assert report.return_value == 3 + 100

    @pytest.mark.parametrize("target_name", ["x86", "sparc"])
    def test_invalidation_is_counted(self, target_name):
        """The JIT's listener runs before the simulator drops the stale
        translation, so it finds it and counts it."""
        from repro import observe

        with observe.capture() as obs:
            report = LLEE(make_target(target_name)).run_executable(
                self._code())
        assert report.return_value == 3 + 100
        assert obs.registry.value("jit.invalidations",
                                  target=target_name) == 1
        events = [e for e in obs.tracer.events
                  if e.name == "smc.invalidate"
                  and e.attrs["layer"] == "native"]
        assert [e.attrs["function"] for e in events] == ["f"]


class TestProfiling:
    def test_counts_match_interpreter_steps(self):
        module = compile_source(PROGRAM, "prof", optimization_level=1)
        profile_map = instrument_module(module)
        interp = Interpreter(module)
        interp.run("main")
        profile = read_profile(profile_map, interp)
        assert profile.block_count("helper", "entry") == 17  # i%3==0
        main_counts = [count for (fn, _b), count in
                       profile.counts.items() if fn == "main"]
        assert max(main_counts) >= 50

    def test_profiles_collectable_from_native_runs(self):
        from repro.execution.machine_sim import MachineSimulator
        from repro.llee.jit import FunctionJIT

        module = compile_source(PROGRAM, "prof2", optimization_level=1)
        profile_map = instrument_module(module)
        native = FunctionJIT(module, make_target("sparc")).translate_all()
        simulator = MachineSimulator(native, module)
        simulator.run("main")
        profile = read_profile(profile_map, simulator)
        assert profile.block_count("helper", "entry") == 17

    def test_strip_restores_clean_module(self):
        module = compile_source(PROGRAM, "prof3", optimization_level=1)
        baseline = Interpreter(module).run("main")
        profile_map = instrument_module(module)
        strip_instrumentation(module)
        from repro.ir import verify_module
        verify_module(module)
        again = Interpreter(module).run("main")
        assert again.return_value == baseline.return_value
        assert again.steps == baseline.steps

    def test_double_instrumentation_rejected(self):
        module = compile_source(PROGRAM, "prof4")
        instrument_module(module)
        with pytest.raises(ValueError):
            instrument_module(module)


class TestTraceCacheAndPGO:
    def test_traces_cover_hot_path(self):
        module = compile_source(PROGRAM, "trace", optimization_level=1)
        profile_map = instrument_module(module)
        interp = Interpreter(module)
        interp.run("main")
        profile = read_profile(profile_map, interp)
        strip_instrumentation(module)
        cache = SoftwareTraceCache(module, hot_threshold=10)
        traces = cache.form_traces(profile)
        assert traces
        assert cache.coverage(profile) > 0.4
        assert traces[0].heat >= 10

    def test_pgo_preserves_semantics_and_helps(self):
        module = compile_source(PROGRAM, "pgo", optimization_level=1)
        baseline = Interpreter(module).run("main")
        profile_map = instrument_module(module)
        interp = Interpreter(module)
        interp.run("main")
        profile = read_profile(profile_map, interp)
        strip_instrumentation(module)
        report = idle_time_reoptimize(module, profile, hot_calls=10)
        result = Interpreter(module).run("main")
        assert result.return_value == baseline.return_value
        assert report.hot_calls_inlined >= 1  # helper was hot
        assert result.steps < baseline.steps

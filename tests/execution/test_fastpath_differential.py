"""Differential equivalence: the fast engine against the oracle.

The fast engine (:mod:`repro.execution.fastpath`) must be
observationally identical to the reference interpreter — same return
value, same output, same exit status, same architectural step count,
and the same trap behaviour.  This module drives every benchsuite
program plus hand-written programs exercising the exception model
(masked/unmasked faults, trap handlers, register snapshots, unwind,
self-modifying code) through both engines and compares outcomes.

The configurations come from ``ExecConfig.all()``.  Every
``run_both`` scenario runs the ones without llva-san, so besides the
two engines it runs the fast engine with the tier-2 translator twice:
*forced* (promotion threshold 0, so every function compiles on its
first call) and at the *default* threshold (the path users run, where
tier-1 and tier-2 frames call each other and functions promote
mid-run).  So the whole differential corpus doubles as the tier-2
conformance suite: traps delivered inside compiled code, deopt, SMC
invalidation, unwind pinning, and register snapshots all compare
against the oracle byte-for-byte.
"""

from dataclasses import replace

import pytest

from repro.asm import parse_module
from repro.benchsuite import SUITE_ORDER, load_workload
from repro.execution import (
    DecodeCache,
    ExecutionTrap,
    FastInterpreter,
    Interpreter,
    StepLimitExceeded,
)
from repro.execution.config import ExecConfig
from repro.execution.fastpath import FUSE_MIN
from repro.ir import verify_module
from repro.llee.tracecache import SoftwareTraceCache
from repro.minic import compile_source

SCALE = 0.05

#: Every supported configuration: ``run_both`` runs a scenario under
#: the ones without llva-san, ``run_both_sanitized`` under the others.
CONFIGS = ExecConfig.all()

REFERENCE = ExecConfig(engine="reference")
FAST = ExecConfig(engine="fast")
#: Tier 2 forced: every function compiles on its first call.
TIER2_FORCED = ExecConfig(engine="fast", tier2=True, tier2_threshold=0)
TIER2_DEFAULT = ExecConfig(engine="fast", tier2=True)


def _outcome(module, config=REFERENCE, entry="main", args=(),
             privileged=False):
    """Run and capture (kind, ...) so trap runs compare structurally;
    a trap's tuple carries its detail, so a differing llva-san
    diagnosis (not just a differing trap number) fails."""
    interpreter = Interpreter(module, config, privileged=privileged)
    try:
        result = interpreter.run(entry, list(args))
    except ExecutionTrap as trap:
        if config.sanitize:
            return ("trap", trap.trap_number, trap.detail,
                    interpreter.steps)
        return ("trap", trap.trap_number, interpreter.steps)
    return ("ok", result.return_value, result.output, result.steps,
            result.exit_status)


def run_both(source, entry="main", args=(), privileged=False):
    """Assemble *source* per configuration without llva-san and assert
    identical outcomes."""
    outcomes = {}
    for config in CONFIGS:
        if config.sanitize:
            continue
        module = parse_module(source)
        verify_module(module)
        outcomes[config] = _outcome(module, config, entry, args,
                                    privileged)
    for config in outcomes:
        assert outcomes[config] == outcomes[REFERENCE], config
    return outcomes[REFERENCE]


def run_both_sanitized(source):
    """Run under llva-san on both engines; reports must be identical.
    Tier 2 has no llva-san configuration: the interpreter rejects
    each tier-2 configuration with llva-san added."""
    outcomes = {}
    for config in CONFIGS:
        module = parse_module(source)
        verify_module(module)
        if config.tier2:
            with pytest.raises(ValueError, match="pins execution"):
                Interpreter(module, config, sanitize=True)
        elif config.sanitize:
            outcomes[config] = _outcome(module, config)
    reference = outcomes[replace(REFERENCE, sanitize=True)]
    for config in outcomes:
        assert outcomes[config] == reference, config
    return reference


#: The one workload that runs entirely in tier 1 at the default
#: threshold and scale: no function is called often enough, or burns
#: enough steps per activation, to promote.
ALL_TIER1_AT_DEFAULT = ("equake",)

#: Workloads where a function promotes by accumulated step credit
#: rather than by invocation count, at the default thresholds.
PROMOTED_BY_STEPS = ("bc", "bzip2", "parser")


class TestBenchsuiteDifferential:
    """Every Table 2 workload, both engines, identical observations."""

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_workload(self, name):
        workload = load_workload(name, SCALE)
        # Both engines share one compiled module: nothing in the suite
        # self-modifies, and each interpreter builds its own memory.
        module = compile_source(workload.source, name,
                                optimization_level=2)
        reference = _outcome(module)
        fast = _outcome(module, FAST)
        assert reference == fast
        assert reference[0] == "ok"

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_workload_tier2_forced(self, name):
        """All 17 programs, tier-2 promotion forced (threshold 0),
        against the oracle: identical observations, every architectural
        step executed by compiled code, nothing pinned."""
        workload = load_workload(name, SCALE)
        module = compile_source(workload.source, name,
                                optimization_level=2)
        reference = _outcome(module)
        interpreter = Interpreter(module, TIER2_FORCED)
        result = interpreter.run("main", [])
        tiered = ("ok", result.return_value, result.output,
                  result.steps, result.exit_status)
        assert reference == tiered
        assert interpreter.tier2_steps == result.steps
        assert interpreter.tier2.stats.pins == 0
        assert interpreter.tier2.stats.functions_compiled > 0

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_workload_tier2_default_threshold(self, name):
        """All 17 programs at the default promotion threshold, against
        the oracle: identical observations with nothing pinned, and —
        except where nothing gets hot enough to promote — steps run in
        both tiers, with tier-1 and tier-2 frames calling each other
        and functions promoting mid-run."""
        workload = load_workload(name, SCALE)
        module = compile_source(workload.source, name,
                                optimization_level=2)
        reference = _outcome(module)
        interpreter = Interpreter(module, TIER2_DEFAULT)
        result = interpreter.run("main", [])
        tiered = ("ok", result.return_value, result.output,
                  result.steps, result.exit_status)
        assert reference == tiered
        stats = interpreter.tier2.stats
        assert stats.pins == 0
        if name in ALL_TIER1_AT_DEFAULT:
            assert interpreter.tier2_steps == 0
        else:
            assert 0 < interpreter.tier2_steps < result.steps
        assert (stats.promotions_by_steps > 0) == \
            (name in PROMOTED_BY_STEPS)


class TestExceptionModelDifferential:
    def test_masked_division_yields_zero(self):
        assert run_both("""
        int %main() {
        entry:
                %r = div int 5, 0 !ee(false)
                ret int %r
        }
        """)[1] == 0

    def test_unmasked_division_traps(self):
        outcome = run_both("""
        int %main() {
        entry:
                %r = div int 5, 0
                ret int %r
        }
        """)
        assert outcome[0] == "trap"

    def test_masked_load_fault_inside_fused_run(self):
        # The faulting load sits in a straight-line run long enough to
        # fuse; the masked fault must resume at the next fused op.
        outcome = run_both("""
        int %main() {
        entry:
                %p = cast ulong 64 to int*
                %a = add int 3, 4
                %v = load int* %p !ee(false)
                %b = add int %a, %v
                %c = mul int %b, 10
                ret int %c
        }
        """)
        assert outcome[1] == 70

    def test_overflow_wraps_silently_by_default(self):
        assert run_both("""
        int %main() {
        entry:
                %r = add int 2147483647, 1
                ret int %r
        }
        """)[1] == -2147483648

    def test_overflow_traps_when_enabled(self):
        assert run_both("""
        int %main() {
        entry:
                %r = add int 2147483647, 1 !ee(true)
                ret int %r
        }
        """)[0] == "trap"

    def test_dynamic_masking_intrinsic(self):
        assert run_both("""
        declare void %llva.exceptions.set(bool)
        int %main() {
        entry:
                call void %llva.exceptions.set(bool false)
                %r = div int 5, 0
                call void %llva.exceptions.set(bool true)
                ret int %r
        }
        """)[1] == 0

    def test_trap_handler_runs_and_resumes(self):
        assert run_both("""
        %log = global int 0
        declare void %llva.trap.register(uint, sbyte*)
        void %handler(uint %trapno, sbyte* %info) {
        entry:
                %old = load int* %log
                %n = cast uint %trapno to int
                %new = add int %old, %n
                store int %new, int* %log
                ret void
        }
        int %main() {
        entry:
                %h = cast void (uint, sbyte*)* %handler to sbyte*
                call void %llva.trap.register(uint 2, sbyte* %h)
                %q = div int 9, 0
                %v = load int* %log
                %r = add int %v, %q
                ret int %r
        }
        """, privileged=True)[1] == 2

    def test_trap_handler_register_snapshot(self):
        # The handler observes the faulting frame through the V-ABI
        # register numbering; slot numbering must match the oracle's.
        assert run_both("""
        %seen_arg = global long 0
        %seen_tmp = global long 0
        declare void %llva.trap.register(uint, sbyte*)
        declare ulong %llva.register.read(uint)
        void %handler(uint %trapno, sbyte* %info) {
        entry:
                %r0 = call ulong %llva.register.read(uint 0)
                %v0 = cast ulong %r0 to long
                store long %v0, long* %seen_arg
                %r1 = call ulong %llva.register.read(uint 1)
                %v1 = cast ulong %r1 to long
                store long %v1, long* %seen_tmp
                ret void
        }
        int %faulty(int %n) {
        entry:
                %doubled = add int %n, %n
                %q = div int %doubled, 0
                ret int %q
        }
        int %main() {
        entry:
                %h = cast void (uint, sbyte*)* %handler to sbyte*
                call void %llva.trap.register(uint 2, sbyte* %h)
                %r = call int %faulty(int 21)
                %a = load long* %seen_arg
                %t = load long* %seen_tmp
                %a32 = cast long %a to int
                %t32 = cast long %t to int
                %combined = mul int %a32, 1000
                %result = add int %combined, %t32
                ret int %result
        }
        """, privileged=True)[1] == 21 * 1000 + 42

    def test_software_trap_raise_payload(self):
        assert run_both("""
        %seen = global int 0
        declare void %llva.trap.register(uint, sbyte*)
        declare void %llva.trap.raise(uint, sbyte*)
        void %handler(uint %trapno, sbyte* %info) {
        entry:
                %v = cast sbyte* %info to ulong
                %i = cast ulong %v to int
                store int %i, int* %seen
                ret void
        }
        int %main() {
        entry:
                %h = cast void (uint, sbyte*)* %handler to sbyte*
                call void %llva.trap.register(uint 6, sbyte* %h)
                %payload = cast ulong 777 to sbyte*
                call void %llva.trap.raise(uint 6, sbyte* %payload)
                %r = load int* %seen
                ret int %r
        }
        """, privileged=True)[1] == 777

    def test_privilege_violation_parity(self):
        assert run_both("""
        declare void %llva.trap.register(uint, sbyte*)
        int %main() {
        entry:
                %z = cast ulong 0 to sbyte*
                call void %llva.trap.register(uint 2, sbyte* %z)
                ret int 0
        }
        """, privileged=False)[0] == "trap"


class TestSanitizerDifferential:
    """llva-san faults must be byte-identical across engines: same trap
    number, same step count, same rendered report (sites included)."""

    HEAP_DECLS = """
    declare sbyte* %malloc(uint)
    declare void %free(sbyte*)
    """

    def test_use_after_free(self):
        outcome = run_both_sanitized(self.HEAP_DECLS + """
        int %main() {
        entry:
                %p = call sbyte* %malloc(uint 32)
                call void %free(sbyte* %p)
                %v = load sbyte* %p
                %r = cast sbyte %v to int
                ret int %r
        }
        """)
        assert outcome[0] == "trap"
        detail = outcome[2]
        assert detail.startswith("heap-use-after-free: read of 1 byte")
        assert "offset 0 into 32-byte block" in detail
        assert "at %main:entry:#2 (load)" in detail
        assert "allocated at %main:entry:#0 (call)" in detail
        assert "freed at %main:entry:#1 (call)" in detail

    def test_print_str_of_freed_string(self):
        # print_str reads the string byte by byte under llva-san, so the
        # first byte read reports the freed block.
        outcome = run_both_sanitized(self.HEAP_DECLS + """
        declare void %print_str(sbyte*)
        int %main() {
        entry:
                %p = call sbyte* %malloc(uint 8)
                store sbyte 72, sbyte* %p
                %q = getelementptr sbyte* %p, long 1
                store sbyte 0, sbyte* %q
                call void %free(sbyte* %p)
                call void %print_str(sbyte* %p)
                ret int 0
        }
        """)
        assert outcome[0] == "trap"
        detail = outcome[2]
        assert detail.startswith("heap-use-after-free: read of 1 byte")
        assert "offset 0 into 8-byte block" in detail
        assert "freed at %main:entry:#4 (call)" in detail

    def test_heap_buffer_overflow(self):
        outcome = run_both_sanitized(self.HEAP_DECLS + """
        int %main() {
        entry:
                %p = call sbyte* %malloc(uint 16)
                %ip = cast sbyte* %p to int*
                %q = getelementptr int* %ip, long 4
                %v = load int* %q
                ret int %v
        }
        """)
        assert outcome[0] == "trap"
        detail = outcome[2]
        assert detail.startswith("heap-buffer-overflow: read of 4 bytes")
        assert "offset 16 into 16-byte block" in detail
        assert "at %main:entry:#3 (load)" in detail
        assert "allocated at %main:entry:#0 (call)" in detail

    def test_double_free(self):
        # `call` is masked by default (not in DEFAULT_EXCEPTIONS_ENABLED)
        # — the sanitizer fault must surface anyway, on both engines.
        outcome = run_both_sanitized(self.HEAP_DECLS + """
        int %main() {
        entry:
                %p = call sbyte* %malloc(uint 8)
                call void %free(sbyte* %p)
                call void %free(sbyte* %p)
                ret int 0
        }
        """)
        assert outcome[0] == "trap"
        detail = outcome[2]
        assert detail.startswith("double-free: free of 0x")
        assert "(8-byte block) at %main:entry:#2 (call)" in detail
        assert "freed at %main:entry:#1 (call)" in detail

    def test_below_stack_pointer_access(self):
        outcome = run_both_sanitized("""
        int %main() {
        entry:
                %a = alloca int
                store int 7, int* %a
                %pl = cast int* %a to long
                %ql = sub long %pl, 64
                %q = cast long %ql to int*
                %v = load int* %q
                ret int %v
        }
        """)
        assert outcome[0] == "trap"
        detail = outcome[2]
        assert detail.startswith("stack-below-sp: read of 4 bytes")
        assert "below the live stack pointer" in detail
        assert "at %main:entry:#5 (load)" in detail

    def test_fault_inside_fused_run_names_right_site(self):
        # The faulting load sits in a straight-line run long enough to
        # fuse in the fast engine; the decode-time site instrumentation
        # must still report the individual instruction.
        outcome = run_both_sanitized(self.HEAP_DECLS + """
        int %main() {
        entry:
                %p = call sbyte* %malloc(uint 16)
                call void %free(sbyte* %p)
                %a = add int 1, 2
                %b = add int %a, 3
                %c = add int %b, 4
                %d = add int %c, 5
                %v = load sbyte* %p
                %w = cast sbyte %v to int
                %r = add int %d, %w
                ret int %r
        }
        """)
        assert outcome[0] == "trap"
        assert "at %main:entry:#6 (load)" in outcome[2]

    def test_clean_program_identical_and_faultless(self):
        outcome = run_both_sanitized(self.HEAP_DECLS + """
        int %main() {
        entry:
                %p = call sbyte* %malloc(uint 32)
                %ip = cast sbyte* %p to int*
                store int 41, int* %ip
                %v = load int* %ip
                call void %free(sbyte* %p)
                %r = add int %v, 1
                ret int %r
        }
        """)
        assert outcome[0] == "ok"
        assert outcome[1] == 42

    @pytest.mark.parametrize("name", ["ft", "ks", "anagram"])
    def test_benchsuite_clean_under_sanitizer(self, name):
        workload = load_workload(name, SCALE)
        module = compile_source(workload.source, name,
                                optimization_level=2)
        outcomes = set()
        for config in CONFIGS:
            if not config.sanitize:
                continue
            interpreter = Interpreter(module, config)
            result = interpreter.run("main", [])
            assert interpreter.memory.san.fault_count == 0
            outcomes.add((result.return_value, result.output,
                          result.steps, result.exit_status))
        assert len(outcomes) == 1


class TestUnwindDifferential:
    INVOKE = """
    int %may_throw(int %x) {
    entry:
            %bad = setgt int %x, 10
            br bool %bad, label %throw, label %fine
    throw:
            unwind
    fine:
            %r = mul int %x, 2
            ret int %r
    }
    int %middle(int %x) {
    entry:
            %r = call int %may_throw(int %x)
            %s = add int %r, 1
            ret int %s
    }
    int %main(int %x) {
    entry:
            %v = invoke int %middle(int %x) to label %ok
                  unwind label %handler
    ok:
            ret int %v
    handler:
            ret int -1
    }
    """

    def test_invoke_normal_path(self):
        assert run_both(self.INVOKE, args=[4])[1] == 9

    def test_unwind_skips_intermediate_frames(self):
        assert run_both(self.INVOKE, args=[50])[1] == -1

    def test_unwind_without_invoke_traps(self):
        assert run_both("""
        int %main() {
        entry:
                unwind
        }
        """)[0] == "trap"

    def test_nested_invokes_catch_at_nearest(self):
        assert run_both("""
        int %thrower() {
        entry:
                unwind
        }
        int %inner() {
        entry:
                %v = invoke int %thrower() to label %ok
                      unwind label %caught
        ok:
                ret int %v
        caught:
                ret int 100
        }
        int %main() {
        entry:
                %v = invoke int %inner() to label %ok
                      unwind label %outer_caught
        ok:
                ret int %v
        outer_caught:
                ret int 200
        }
        """)[1] == 100


class TestSelfModifyingCodeDifferential:
    def test_future_invocations_see_new_body(self):
        assert run_both("""
        declare void %llva.smc.replace(sbyte*, sbyte*)
        int %f(int %x) {
        entry:
                %r = add int %x, 1
                ret int %r
        }
        int %g(int %x) {
        entry:
                %r = mul int %x, 100
                ret int %r
        }
        int %main() {
        entry:
                %before = call int %f(int 5)
                %old = cast int (int)* %f to sbyte*
                %new = cast int (int)* %g to sbyte*
                call void %llva.smc.replace(sbyte* %old, sbyte* %new)
                %after = call int %f(int 5)
                %r = sub int %after, %before
                ret int %r
        }
        """)[1] == 494

    def test_active_invocation_keeps_old_body(self):
        assert run_both("""
        declare void %llva.smc.replace(sbyte*, sbyte*)
        int %target(int %depth) {
        entry:
                %stop = seteq int %depth, 0
                br bool %stop, label %leaf, label %recurse
        leaf:
                ret int 1
        recurse:
                %is_first = seteq int %depth, 3
                br bool %is_first, label %patch, label %continue
        patch:
                %old = cast int (int)* %target to sbyte*
                %new = cast int (int)* %replacement to sbyte*
                call void %llva.smc.replace(sbyte* %old, sbyte* %new)
                br label %continue
        continue:
                %m = sub int %depth, 1
                %r = call int %target(int %m)
                %s = add int %r, 10
                ret int %s
        }
        int %replacement(int %depth) {
        entry:
                ret int 1000
        }
        int %main() {
        entry:
                %r = call int %target(int 3)
                ret int %r
        }
        """)[1] == 1010


class TestEngineSelection:
    SRC = """
    int %main() {
    entry:
            br label %loop
    loop:
            %i = phi int [0, %entry], [%n, %loop]
            %a = mul int %i, 3
            %b = add int %a, 1
            %s = sub int %b, %a
            %n = add int %i, %s
            %done = setge int %n, 50
            br bool %done, label %exit, label %loop
    exit:
            ret int %n
    }
    """

    def _module(self):
        module = parse_module(self.SRC)
        verify_module(module)
        return module

    def test_constructor_dispatch(self):
        assert type(Interpreter(self._module())) is Interpreter
        fast = Interpreter(self._module(), FAST)
        assert isinstance(fast, FastInterpreter)
        assert fast.engine == "fast"
        assert Interpreter(self._module()).engine == "reference"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Interpreter(self._module(), engine="turbo")

    def test_fused_runs_counted(self):
        fast = FastInterpreter(self._module())
        fast.run("main")
        assert fast.fused_runs >= 50 // FUSE_MIN
        assert fast.fused_instructions >= fast.fused_runs * FUSE_MIN

    def test_step_limit_enforced(self):
        with pytest.raises(StepLimitExceeded):
            FastInterpreter(self._module(), max_steps=20).run("main")

    def test_decode_cache_shared_across_runs(self):
        module = self._module()
        cache = DecodeCache(module.target_data)
        FastInterpreter(module, decode_cache=cache).run("main")
        assert cache.stats.functions_decoded == 1
        FastInterpreter(module, decode_cache=cache).run("main")
        assert cache.stats.functions_decoded == 1  # reused, not re-decoded

    def test_smc_invalidates_decode_cache(self):
        source = """
        declare void %llva.smc.replace(sbyte*, sbyte*)
        int %f(int %x) {
        entry:
                %r = add int %x, 1
                ret int %r
        }
        int %g(int %x) {
        entry:
                %r = mul int %x, 100
                ret int %r
        }
        int %main() {
        entry:
                %before = call int %f(int 5)
                %old = cast int (int)* %f to sbyte*
                %new = cast int (int)* %g to sbyte*
                call void %llva.smc.replace(sbyte* %old, sbyte* %new)
                %after = call int %f(int 5)
                %r = sub int %after, %before
                ret int %r
        }
        """
        module = parse_module(source)
        verify_module(module)
        cache = DecodeCache(module.target_data)
        result = FastInterpreter(module, decode_cache=cache).run("main")
        assert result.return_value == 494
        assert cache.stats.invalidations == 1

    def test_trace_cache_relayout_invalidates_decode(self):
        module = self._module()
        cache = DecodeCache(module.target_data)
        FastInterpreter(module, decode_cache=cache).run("main")
        trace_cache = SoftwareTraceCache(module)
        trace_cache.relayout_listeners.append(cache.listener())
        function = module.get_function("main")
        invalidated = []
        trace_cache.relayout_listeners.append(invalidated.append)
        # Force a relayout by hand: reverse the non-entry blocks.
        blocks = function.blocks
        function.blocks = [blocks[0]] + list(reversed(blocks[1:]))
        for listener in trace_cache.relayout_listeners:
            listener(function)
        assert invalidated == [function]
        assert cache.stats.invalidations == 1


class TestTier2Behaviour:
    """Tier-2 mechanics: promotion policy, deopt, pinning, SMC."""

    CALLEE_LOOP = """
    int %work(int %n) {
    entry:
            br label %loop
    loop:
            %i = phi int [0, %entry], [%next, %loop]
            %next = add int %i, 1
            %done = setge int %next, %n
            br bool %done, label %exit, label %loop
    exit:
            ret int %next
    }
    int %main() {
    entry:
            br label %loop
    loop:
            %i = phi int [0, %entry], [%next, %loop]
            %v = call int %work(int 5)
            %next = add int %i, %v
            %done = setge int %next, 100
            br bool %done, label %exit, label %loop
    exit:
            ret int %next
    }
    """

    def _module(self, source=None):
        module = parse_module(source or self.CALLEE_LOOP)
        verify_module(module)
        return module

    def test_promotion_after_threshold_invocations(self):
        module = self._module()
        interpreter = Interpreter(module, replace(TIER2_DEFAULT,
                                                  tier2_threshold=5))
        result = interpreter.run("main", [])
        assert result.return_value == 100
        # %work runs 20 times; it must cross the threshold and finish
        # the run in compiled form, with tier-1 covering the first 5.
        assert interpreter.tier2.stats.functions_compiled >= 1
        assert 0 < interpreter.tier2_steps < result.steps
        assert interpreter.tier2_calls >= 1

    def test_threshold_zero_promotes_first_call(self):
        module = self._module()
        interpreter = Interpreter(module, TIER2_FORCED)
        result = interpreter.run("main", [])
        assert result.return_value == 100
        assert interpreter.tier2_steps == result.steps

    def test_tier2_off_by_default(self):
        module = self._module()
        interpreter = Interpreter(module, FAST)
        result = interpreter.run("main", [])
        assert result.return_value == 100
        assert interpreter.tier2 is None
        assert interpreter.tier2_steps == 0

    def test_step_credit_promotes_hot_loop(self):
        # One long-running invocation accumulates enough architectural
        # steps to promote at the default thresholds, although the
        # invocation count stays far below DEFAULT_THRESHOLD.
        from repro.execution.tier2 import DEFAULT_STEP_THRESHOLD

        source = """
        int %hot(int %n) {
        entry:
                br label %loop
        loop:
                %i = phi int [0, %entry], [%next, %loop]
                %next = add int %i, 1
                %done = setge int %next, %n
                br bool %done, label %exit, label %loop
        exit:
                ret int %next
        }
        int %main() {
        entry:
                %a = call int %hot(int 15000)
                %b = call int %hot(int 15000)
                %r = add int %a, %b
                ret int %r
        }
        """
        module = self._module(source)
        interpreter = Interpreter(module, TIER2_DEFAULT)
        result = interpreter.run("main", [])
        assert result.return_value == 30000
        # The first activation alone passes the step threshold.
        assert result.steps > 2 * DEFAULT_STEP_THRESHOLD
        assert interpreter.tier2.stats.promotions_by_steps == 1
        assert interpreter.tier2_calls == 1
        assert interpreter.tier2_steps > DEFAULT_STEP_THRESHOLD

    def test_trap_inside_tier2_deopts_function(self):
        source = """
        %log = global int 0
        declare void %llva.trap.register(uint, sbyte*)
        void %handler(uint %trapno, sbyte* %info) {
        entry:
                %old = load int* %log
                %n = cast uint %trapno to int
                %new = add int %old, %n
                store int %new, int* %log
                ret void
        }
        int %faulty(int %x) {
        entry:
                %q = div int %x, 0
                ret int %q
        }
        int %main() {
        entry:
                %h = cast void (uint, sbyte*)* %handler to sbyte*
                call void %llva.trap.register(uint 2, sbyte* %h)
                %a = call int %faulty(int 9)
                %b = call int %faulty(int 7)
                %v = load int* %log
                %r = add int %v, %a
                %s = add int %r, %b
                ret int %s
        }
        """
        ref = _outcome(self._module(source), privileged=True)
        module = self._module(source)
        interpreter = Interpreter(module, TIER2_FORCED, privileged=True)
        result = interpreter.run("main", [])
        assert ("ok", result.return_value, result.output, result.steps,
                result.exit_status) == ref
        # The first trap delivered mid-tier-2 demotes %faulty; the
        # second call runs tier 1 and the answers stay identical.
        faulty = module.get_function("faulty")
        assert interpreter.tier2.stats.deopts == 1
        assert "deopt" in interpreter.tier2.pinned_reason(faulty)

    def test_unwind_body_pins_to_tier1(self):
        module = self._module(TestUnwindDifferential.INVOKE)
        interpreter = Interpreter(module, TIER2_FORCED)
        result = interpreter.run("main", [50])
        assert result.return_value == -1
        assert interpreter.tier2.stats.pins >= 1
        reason = interpreter.tier2.pinned_reason(
            module.get_function("main"))
        assert reason is not None

    def test_smc_invalidates_compiled_unit(self):
        source = """
        declare void %llva.smc.replace(sbyte*, sbyte*)
        int %f(int %x) {
        entry:
                %r = add int %x, 1
                ret int %r
        }
        int %g(int %x) {
        entry:
                %r = mul int %x, 100
                ret int %r
        }
        int %main() {
        entry:
                %before = call int %f(int 5)
                %old = cast int (int)* %f to sbyte*
                %new = cast int (int)* %g to sbyte*
                call void %llva.smc.replace(sbyte* %old, sbyte* %new)
                %after = call int %f(int 5)
                %r = sub int %after, %before
                ret int %r
        }
        """
        module = self._module(source)
        interpreter = Interpreter(module, TIER2_FORCED)
        result = interpreter.run("main", [])
        assert result.return_value == 494
        assert interpreter.tier2.stats.invalidations >= 1

    def test_reference_engine_rejects_tier2(self):
        with pytest.raises(ValueError):
            Interpreter(self._module(), engine="reference", tier2=True)

    def test_sanitize_disables_tier2(self):
        # llva-san rules tier 2 out: the combination is rejected rather
        # than silently pinned to tier 1, and llva-san alone builds no
        # tier-2 cache.
        with pytest.raises(ValueError, match="pins execution"):
            Interpreter(self._module(), engine="fast", sanitize=True,
                        tier2=True)
        interpreter = Interpreter(self._module(), engine="fast",
                                  sanitize=True)
        assert interpreter.tier2 is None

    def test_register_snapshot_inside_tier2_frame(self):
        # A trap fired while a tier-2 generator is suspended must
        # expose the same V-ABI register numbering as the oracle.
        source = """
        %seen = global long 0
        declare void %llva.trap.register(uint, sbyte*)
        declare ulong %llva.register.read(uint)
        void %handler(uint %trapno, sbyte* %info) {
        entry:
                %r1 = call ulong %llva.register.read(uint 1)
                %v1 = cast ulong %r1 to long
                store long %v1, long* %seen
                ret void
        }
        int %faulty(int %n) {
        entry:
                %doubled = add int %n, %n
                %q = div int %doubled, 0
                ret int %q
        }
        int %main() {
        entry:
                %h = cast void (uint, sbyte*)* %handler to sbyte*
                call void %llva.trap.register(uint 2, sbyte* %h)
                %r = call int %faulty(int 21)
                %t = load long* %seen
                %t32 = cast long %t to int
                %result = add int %t32, %r
                ret int %result
        }
        """
        ref = _outcome(self._module(source), privileged=True)
        tiered = _outcome(self._module(source), TIER2_FORCED,
                          privileged=True)
        assert ref == tiered
        assert ref[1] == 42

"""Calls between tier-2 activations, and between tier 2 and the runtime.

The tier-2 driver pushes a tier-2 callee's frame and pumps its generator
in its own loop, and a direct runtime call runs inside the compiled
code.  The programs run on both tier-2 entries of ``ExecConfig.all()``
and must match the reference interpreter on result, output, steps, exit
status and trap report; the indirect-callee program runs on every entry
and natively on both targets.  A step budget must stop a tier-2 callee
two frames deep whatever budget earlier runs of its unit had, ``repro
profile`` must book every step to one tier-2 row per callee, and a
callee of tier-2 code must be promoted after as many invocations as any
other function.
"""

import json
import sys

import pytest

from repro.asm import parse_module
from repro.bitcode import write_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import ExecConfig
from repro.execution.interpreter import StepLimitExceeded
from repro.execution.machine_sim import MachineSimulator
from repro.execution.tier2 import Tier2Cache
from repro.ir import verify_module
from repro.targets import make_target, translate_module
from repro.tools import main as repro_main

REFERENCE = ExecConfig(engine="reference")
TIER2 = [config for config in ExecConfig.all() if config.tier2]
TIER2_IDS = ["tier2@{0}".format(config.tier2_threshold) for config in TIER2]


def _module(source):
    module = parse_module(source)
    verify_module(module)
    return module


def outcome(source, config, args=(), privileged=False, max_steps=None):
    """(result, output, steps, exit status), or the trap report."""
    interpreter = Interpreter(_module(source), config,
                              privileged=privileged, max_steps=max_steps)
    try:
        result = interpreter.run("main", list(args))
    except ExecutionTrap as trap:
        return ("trap", trap.trap_number, trap.address, trap.detail,
                interpreter.steps, interpreter.runtime.output_text())
    return ("ok", result.return_value, result.output, result.steps,
            result.exit_status)


def assert_matches_reference(source, args=(), privileged=False):
    expected = outcome(source, REFERENCE, args, privileged)
    for config in TIER2:
        assert outcome(source, config, args, privileged) == expected, \
            config
    return expected


RECURSION = """
declare void %print_int(int)
declare void %print_newline()
int %depth(int %n) {
entry:
        %z = seteq int %n, 0
        br bool %z, label %base, label %rec
base:
        ret int 0
rec:
        %m = sub int %n, 1
        %d = call int %depth(int %m)
        %r = add int %d, 1
        ret int %r
}
bool %even(int %n) {
entry:
        %z = seteq int %n, 0
        br bool %z, label %yes, label %rec
yes:
        ret bool true
rec:
        %m = sub int %n, 1
        %o = call bool %odd(int %m)
        ret bool %o
}
bool %odd(int %n) {
entry:
        %z = seteq int %n, 0
        br bool %z, label %no, label %rec
no:
        ret bool false
rec:
        %m = sub int %n, 1
        %e = call bool %even(int %m)
        ret bool %e
}
int %main() {
entry:
        %a = call int %depth(int 20000)
        call void %print_int(int %a)
        call void %print_newline()
        %e = call bool %even(int 15001)
        %ei = cast bool %e to int
        call void %print_int(int %ei)
        call void %print_newline()
        ret int %a
}
"""


def test_deep_recursion_stays_off_the_host_stack():
    limit = sys.getrecursionlimit()
    expected = assert_matches_reference(RECURSION)
    assert expected[1:3] == (20000, "20000\n0\n")
    assert sys.getrecursionlimit() == limit


# A stack slot's address in every call of ``slot``: a return that left
# a frame's stack allocation behind would move the next call's slot.
STACK_SLOTS = """
declare void %print_long(long)
declare void %print_newline()
long %slot(int %x) {
entry:
        %p = alloca int
        store int %x, int* %p
        %a = cast int* %p to long
        ret long %a
}
long %caller(int %x) {
entry:
        %q = alloca long
        %a = call long %slot(int %x)
        %b = call long %slot(int %x)
        %d = sub long %a, %b
        ret long %d
}
int %main() {
entry:
        br label %loop
loop:
        %i = phi int [0, %entry], [%j, %loop]
        %d = call long %caller(int %i)
        %a = call long %slot(int %i)
        call void %print_long(long %d)
        call void %print_long(long %a)
        call void %print_newline()
        %j = add int %i, 1
        %done = setge int %j, 20
        br bool %done, label %exit, label %loop
exit:
        ret int 0
}
"""


def test_a_return_gives_back_the_callee_stack():
    assert_matches_reference(STACK_SLOTS)


TRAP_IN_CALLEE = """
declare void %llva.trap.register(uint, sbyte*)
declare ulong %llva.register.read(uint)
declare void %print_long(long)
declare void %print_newline()
void %handler(uint %trapno, sbyte* %info) {
entry:
        %r0 = call ulong %llva.register.read(uint 0)
        %r1 = call ulong %llva.register.read(uint 1)
        %r2 = call ulong %llva.register.read(uint 2)
        %v0 = cast ulong %r0 to long
        %v1 = cast ulong %r1 to long
        %v2 = cast ulong %r2 to long
        call void %print_long(long %v0)
        call void %print_long(long %v1)
        call void %print_long(long %v2)
        call void %print_newline()
        ret void
}
int %inner(int %x, int %y) {
entry:
        %s = add int %x, 7
        %q = div int %s, %y
        %r = add int %q, %x
        ret int %r
}
int %outer(int %x, int %y) {
entry:
        %a = call int %inner(int %x, int %y)
        %b = add int %a, 1
        ret int %b
}
int %main() {
entry:
        %h = cast void (uint, sbyte*)* %handler to sbyte*
        call void %llva.trap.register(uint 2, sbyte* %h)
        br label %loop
loop:
        %i = phi int [0, %entry], [%j, %loop]
        %acc = phi int [0, %entry], [%acc2, %loop]
        %y = rem int %i, 3
        %v = call int %outer(int %i, int %y)
        %acc2 = add int %acc, %v
        %j = add int %i, 1
        %done = setge int %j, 24
        br bool %done, label %exit, label %loop
exit:
        ret int %acc2
}
"""


def test_trap_in_a_tier2_callee_of_a_tier2_caller():
    expected = assert_matches_reference(TRAP_IN_CALLEE, privileged=True)
    # Eight deliveries, each showing the faulting frame's registers.
    assert expected[2].count("\n") == 8
    assert expected[2].startswith("007\n3010\n")


SPIN = """
declare void %print_int(int)
int %spin(int %n) {
entry:
        br label %loop
loop:
        %i = phi int [0, %entry], [%j, %loop]
        %j = add int %i, 1
        %more = setlt int %j, %n
        br bool %more, label %loop, label %exit
exit:
        ret int %j
}
int %mid(int %n) {
entry:
        call void %print_int(int 2)
        %r = call int %spin(int %n)
        ret int %r
}
int %main(int %n) {
entry:
        call void %print_int(int 1)
        %r = call int %mid(int %n)
        ret int %r
}
"""


def _spin(engine, n):
    """Output and outcome of one run of SPIN on *engine*."""
    try:
        engine.run("main", [n])
    except StepLimitExceeded:
        return "limit", engine.runtime.output_text()
    return "done", engine.runtime.output_text()


@pytest.mark.parametrize("config", TIER2, ids=TIER2_IDS)
def test_step_budget_exhausted_two_tier2_frames_deep(config):
    module = _module(SPIN)
    reference = Interpreter(module, REFERENCE, max_steps=1000)
    assert _spin(reference, 10 ** 6) == ("limit", "12")
    # The budget is the run's: a unit compiled in an unlimited run stops
    # a later, limited run of the same engine and of another engine
    # sharing its tier-2 cache.
    cache = Tier2Cache(module, module.target_data, config.tier2_threshold)
    engine = Interpreter(module, config, tier2_cache=cache)
    for _ in range(20):
        assert _spin(engine, 50)[0] == "done"
    assert cache.stats.functions_compiled == 3
    engine.max_steps = 1000
    assert _spin(engine, 10 ** 6)[0] == "limit"
    other = Interpreter(module, config, tier2_cache=cache, max_steps=1000)
    assert _spin(other, 10 ** 6) == ("limit", "12")
    assert 1000 < other.steps <= 1004


SMC_WHILE_CALLER_LIVE = """
declare void %llva.smc.replace(sbyte*, sbyte*)
declare void %print_int(int)
declare void %print_newline()
int %f(int %x) {
entry:
        %first = seteq int %x, 0
        br bool %first, label %swap, label %done
swap:
        %old = cast int (int)* %f to sbyte*
        %new = cast int (int)* %g to sbyte*
        call void %llva.smc.replace(sbyte* %old, sbyte* %new)
        br label %done
done:
        %r = add int %x, 1
        ret int %r
}
int %g(int %x) {
entry:
        %r = mul int %x, 50
        ret int %r
}
int %caller(int %n) {
entry:
        br label %loop
loop:
        %i = phi int [0, %entry], [%i2, %body]
        %acc = phi int [0, %entry], [%acc2, %body]
        %c = setlt int %i, %n
        br bool %c, label %body, label %exit
body:
        %v = call int %f(int %i)
        call void %print_int(int %v)
        call void %print_newline()
        %acc2 = add int %acc, %v
        %i2 = add int %i, 1
        br label %loop
exit:
        ret int %acc
}
int %main() {
entry:
        %r = call int %caller(int 20)
        ret int %r
}
"""


def test_smc_replace_of_a_callee_while_its_caller_is_live():
    expected = assert_matches_reference(SMC_WHILE_CALLER_LIVE)
    assert expected[1] == 1 + 50 * sum(range(1, 20))


PROCESS_EXIT = """
declare void %exit(int)
declare void %abort()
declare void %print_int(int)
void %leaf(int %how) {
entry:
        call void %print_int(int %how)
        %e = seteq int %how, 0
        br bool %e, label %quit, label %crash
quit:
        call void %exit(int 7)
        ret void
crash:
        call void %abort()
        ret void
}
int %mid(int %how) {
entry:
        call void %leaf(int %how)
        ret int 1
}
int %main(int %how) {
entry:
        %r = call int %mid(int %how)
        ret int %r
}
"""


@pytest.mark.parametrize("how", (0, 1), ids=("exit", "abort"))
def test_exit_and_abort_two_tier2_frames_deep(how):
    expected = assert_matches_reference(PROCESS_EXIT, [how])
    if how == 0:
        assert expected[0] == "ok" and expected[2:] == ("0", 6, 7)
    else:
        assert expected[0] == "trap" and expected[3] == "abort() called"
    # The run that ended early left the engine clean for the next one.
    for config in TIER2:
        engine = Interpreter(_module(PROCESS_EXIT), config)
        for _ in range(2):
            try:
                result = engine.run("main", [how])
                assert result.exit_status == 7
            except ExecutionTrap as trap:
                assert trap.detail == "abort() called"
            assert engine.memory.stack_pointer \
                == Interpreter(_module(PROCESS_EXIT), config) \
                .memory.stack_pointer


BAD_FREE = """
declare void %free(sbyte*)
declare void %print_int(int)
declare void %llva.trap.register(uint, sbyte*)
void %handler(uint %trapno, sbyte* %info) {
entry:
        %n = cast uint %trapno to int
        call void %print_int(int %n)
        ret void
}
void %release(long %addr, bool %loud) {
entry:
        %p = cast long %addr to sbyte*
        br bool %loud, label %deliver, label %mask
mask:
        call void %free(sbyte* %p)
        call void %print_int(int 8)
        ret void
deliver:
        call void %free(sbyte* %p) !ee(true)
        call void %print_int(int 9)
        ret void
}
int %mid(bool %loud) {
entry:
        call void %release(long 4660, bool %loud)
        ret int 3
}
int %main(int %how) {
entry:
        %handled = seteq int %how, 2
        br bool %handled, label %register, label %run
register:
        %h = cast void (uint, sbyte*)* %handler to sbyte*
        call void %llva.trap.register(uint 1, sbyte* %h)
        br label %run
run:
        %loud = setne int %how, 0
        %r = call int %mid(bool %loud)
        ret int %r
}
"""


@pytest.mark.parametrize("how", (0, 1, 2),
                         ids=("masked", "delivered", "handled"))
def test_free_of_an_unallocated_address(how):
    expected = assert_matches_reference(BAD_FREE, [how], privileged=True)
    if how == 0:
        assert expected[1:3] == (3, "8")
    elif how == 1:
        assert expected[:4] == ("trap", 1, 4660,
                                "free of unallocated address")
    else:
        assert expected[1:3] == (3, "19")


STACK_DEPTH = """
declare uint %llva.stack.depth()
declare void %print_int(int)
declare void %print_newline()
int %show() {
entry:
        %d = call uint %llva.stack.depth()
        %di = cast uint %d to int
        call void %print_int(int %di)
        %raw = cast uint ()* %llva.stack.depth to sbyte*
        %fp = cast sbyte* %raw to uint ()*
        %e = call uint %fp()
        %ei = cast uint %e to int
        call void %print_int(int %ei)
        call void %print_newline()
        ret int %ei
}
int %nest(int %n) {
entry:
        %here = call int %show()
        %z = seteq int %n, 0
        br bool %z, label %base, label %rec
base:
        ret int %here
rec:
        %m = sub int %n, 1
        %r = call int %nest(int %m)
        %s = add int %r, %here
        ret int %s
}
int %main() {
entry:
        br label %loop
loop:
        %i = phi int [0, %entry], [%j, %loop]
        %acc = phi int [0, %entry], [%acc2, %loop]
        %v = call int %nest(int 3)
        %acc2 = add int %acc, %v
        %j = add int %i, 1
        %done = setge int %j, 6
        br bool %done, label %exit, label %loop
exit:
        ret int %acc2
}
"""


def test_stack_depth_from_nested_tier2_frames():
    expected = assert_matches_reference(STACK_DEPTH)
    assert expected[2].startswith("33\n44\n55\n66\n")


CALL_HEAVY = """
int %leaf(int %x) {
entry:
        %r = add int %x, 3
        ret int %r
}
int %twice(int %x) {
entry:
        %a = call int %leaf(int %x)
        %b = call int %leaf(int %a)
        ret int %b
}
int %main() {
entry:
        br label %loop
loop:
        %i = phi int [0, %entry], [%j, %loop]
        %acc = phi int [0, %entry], [%acc2, %loop]
        %v = call int %twice(int %i)
        %acc2 = add int %acc, %v
        %j = add int %i, 1
        %done = setge int %j, 50
        br bool %done, label %exit, label %loop
exit:
        %r = and int %acc2, 127
        ret int %r
}
"""


def test_profile_has_one_tier2_row_per_callee(tmp_path, capsys):
    program = tmp_path / "calls.bc"
    program.write_bytes(write_module(_module(CALL_HEAVY)))
    status = repro_main(["profile", str(program), "--tier2-threshold",
                         "0", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert (status, payload["result"]) == (0, 117)
    rows = {(row["function"], row["tier"]): row
            for row in payload["functions"]}
    assert set(rows) == {("main", "tier2"), ("twice", "tier2"),
                         ("leaf", "tier2")}
    assert (rows["twice", "tier2"]["calls"],
            rows["leaf", "tier2"]["calls"]) == (50, 100)
    assert sum(row["steps"] for row in rows.values()) == payload["steps"]
    assert payload["tier2_steps"] == payload["engine_tier2_steps"] \
        == payload["steps"]


SOMETIMES = """
int %leaf(int %x) {
entry:
        %r = add int %x, 3
        ret int %r
}
int %sometimes(int %x) {
entry:
        %m = rem int %x, 10
        %z = seteq int %m, 0
        br bool %z, label %call, label %skip
call:
        %v = call int %leaf(int %x)
        ret int %v
skip:
        ret int %x
}
int %main() {
entry:
        br label %loop
loop:
        %i = phi int [0, %entry], [%j, %loop]
        %acc = phi int [0, %entry], [%acc2, %loop]
        %v = call int %sometimes(int %i)
        %acc2 = add int %acc, %v
        %j = add int %i, 1
        %done = setge int %j, 50
        br bool %done, label %exit, label %loop
exit:
        %r = and int %acc2, 127
        ret int %r
}
"""


def test_promotion_counts_each_call_once():
    """A callee of tier-2 code that stays on tier 1 is promoted after
    as many invocations as any other function."""
    engine = Interpreter(_module(SOMETIMES),
                         ExecConfig(tier2=True, tier2_threshold=3))
    assert engine.run("main").return_value == 88
    # sometimes: 3 tier-1 invocations, then 47 compiled.  leaf runs at
    # i = 0 (from tier 1), then 10, 20, 30 and 40 (from tier-2 code),
    # and it is compiled at its fourth invocation, at i = 30.
    assert engine.tier2_calls == 47 + 2
    assert engine.tier2.stats.functions_compiled == 2


# Indirect calls of an LLVA function, a runtime routine and an
# intrinsic: ``main`` runs once (tier 1 at the default threshold), and
# ``hot`` runs 20 times (promoted to tier 2 at the default threshold).
INDIRECT = """
declare void %print_int(int)
declare void %print_newline()
declare uint %llva.stack.depth()
int %twice(int %x) {
entry:
        %r = mul int %x, 2
        ret int %r
}
int %through(sbyte* %fn, sbyte* %out, sbyte* %depth, int %x) {
entry:
        %f = cast sbyte* %fn to int (int)*
        %v = call int %f(int %x)
        %p = cast sbyte* %out to void (int)*
        call void %p(int %v)
        %d = cast sbyte* %depth to uint ()*
        %dv = call uint %d()
        %di = cast uint %dv to int
        call void %p(int %di)
        call void %print_newline()
        %s = add int %v, %di
        ret int %s
}
int %hot(sbyte* %fn, sbyte* %out, sbyte* %depth, int %x) {
entry:
        %r = call int %through(sbyte* %fn, sbyte* %out, sbyte* %depth,
                               int %x)
        ret int %r
}
int %main() {
entry:
        %fn = cast int (int)* %twice to sbyte*
        %out = cast void (int)* %print_int to sbyte*
        %depth = cast uint ()* %llva.stack.depth to sbyte*
        %f = cast sbyte* %fn to int (int)*
        %v = call int %f(int 21)
        %p = cast sbyte* %out to void (int)*
        call void %p(int %v)
        %d = cast sbyte* %depth to uint ()*
        %dv = call uint %d()
        %di = cast uint %dv to int
        call void %p(int %di)
        call void %print_newline()
        br label %loop
loop:
        %i = phi int [0, %entry], [%j, %loop]
        %acc = phi int [0, %entry], [%acc2, %loop]
        %h = call int %hot(sbyte* %fn, sbyte* %out, sbyte* %depth, int %i)
        %acc2 = add int %acc, %h
        %j = add int %i, 1
        %done = setge int %j, 20
        br bool %done, label %exit, label %loop
exit:
        %r = and int %acc2, 255
        ret int %r
}
"""


def test_one_classification_of_an_indirect_callee():
    expected = outcome(INDIRECT, REFERENCE)
    assert expected[1:3] == ((380 + 60) & 255,
                             "421\n" + "".join("{0}3\n".format(2 * i)
                                               for i in range(20)))
    for config in ExecConfig.all():
        reference = ExecConfig(engine="reference", sanitize=config.sanitize)
        assert outcome(INDIRECT, config) == outcome(INDIRECT, reference), \
            config
    for target_name in ("x86", "sparc"):
        module = _module(INDIRECT)
        simulator = MachineSimulator(
            translate_module(module, make_target(target_name)), module)
        value, status = simulator.run("main")
        assert (value, simulator.output_text(), status) \
            == (expected[1], expected[2], expected[4]), target_name

"""A finished engine is freed by reference counting alone.

An engine in a reference cycle (a bound method or a closure over the
engine stored on the engine or its runtime library) lives, with its
``Memory`` and the simulator's decoded blocks, until the cyclic garbage
collector happens to run.  These tests run with that collector off.
"""

import gc
import weakref

import pytest

from repro.asm import parse_module
from repro.execution import Interpreter
from repro.execution.config import ExecConfig
from repro.execution.machine_sim import MachineSimulator
from repro.targets import make_target, translate_module

# Calls, a loop hot enough for tier 2 at threshold 0, a runtime call and
# clock_ticks (the runtime library's tick source).
SOURCE = """
declare void %print_int(int)
declare ulong %clock_ticks()
int %twice(int %n) {
entry:
        %m = mul int %n, 2
        ret int %m
}
int %main() {
entry:
        br label %loop
loop:
        %i = phi int [0, %entry], [%next, %loop]
        %v = call int %twice(int %i)
        %next = add int %i, 1
        %done = setge int %next, 40
        br bool %done, label %exit, label %loop
exit:
        %t = call ulong %clock_ticks()
        call void %print_int(int %v)
        ret int %v
}
"""


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("config", ExecConfig.all(), ids=lambda c: (
    "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
    .format(c)))
def test_interpreter_freed_after_run(config, no_cyclic_gc):
    engine = Interpreter(parse_module(SOURCE), config)
    assert engine.run("main", []).return_value == 78
    engine_ref = weakref.ref(engine)
    memory_ref = weakref.ref(engine.memory)
    del engine
    assert engine_ref() is None
    assert memory_ref() is None


@pytest.mark.parametrize("target", ["x86", "sparc"])
def test_simulator_freed_after_run(target, no_cyclic_gc):
    module = parse_module(SOURCE)
    simulator = MachineSimulator(
        translate_module(module, make_target(target)), module)
    assert simulator.run("main")[0] == 78
    simulator_ref = weakref.ref(simulator)
    memory_ref = weakref.ref(simulator.memory)
    del simulator
    assert simulator_ref() is None
    assert memory_ref() is None

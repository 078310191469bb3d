"""A run that ends in a trap leaves the engine ready for the next run,
and records its totals like a run that returns.

``main`` faults on a load from the null page; ``other`` returns 2.
Each engine runs ``main``, traps, and then runs ``other`` on the same
instance.
"""

import pytest

from repro import observe
from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import ExecConfig
from repro.execution.machine_sim import MachineSimulator
from repro.ir import verify_module
from repro.targets import make_target, translate_module

SOURCE = """
int %other() {
entry:
        ret int 2
}
int %main() {
entry:
        %one = call int %other()
        %p = cast ulong 64 to int*
        %v = load int* %p
        %r = add int %v, %one
        ret int %r
}
"""

TARGETS = ("x86", "sparc")
each_config = pytest.mark.parametrize(
    "config", ExecConfig.all(), ids=lambda c: (
        "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
        .format(c)))


def _module():
    module = parse_module(SOURCE)
    verify_module(module)
    return module


def _simulator(target_name):
    module = _module()
    return MachineSimulator(
        translate_module(module, make_target(target_name)), module)


class TestNextRunStartsClean:
    @each_config
    def test_interpreter(self, config):
        interpreter = Interpreter(_module(), config)
        stack_pointer = interpreter.memory.stack_pointer
        with pytest.raises(ExecutionTrap) as info:
            interpreter.run("main")
        assert info.value.address == 64
        assert interpreter._frames == []
        assert interpreter.memory.stack_pointer == stack_pointer
        assert interpreter.run("other").return_value == 2

    @pytest.mark.parametrize("target_name", TARGETS)
    def test_simulator(self, target_name):
        simulator = _simulator(target_name)
        stack_pointer = simulator.memory.stack_pointer
        with pytest.raises(ExecutionTrap) as info:
            simulator.run("main")
        assert info.value.address == 64
        assert simulator._frames == []
        assert simulator.memory.stack_pointer == stack_pointer
        assert simulator.run("other") == (2, 0)


class TestTrappedRunTotals:
    @each_config
    def test_interpreter(self, config):
        interpreter = Interpreter(_module(), config)
        with observe.capture() as obs:
            with pytest.raises(ExecutionTrap) as info:
                interpreter.run("main")
        engine = "fast" if config.engine == "fast" else "interp"
        assert obs.registry.value("run.steps", engine=engine) \
            == interpreter.steps > 0
        assert obs.registry.value(
            "run.traps", engine=engine,
            trap=str(info.value.trap_number)) == 1
        (run,) = [r for r in obs.tracer.records if r.name == "interp.run"]
        assert run.attrs["steps"] == interpreter.steps
        assert run.attrs["error"] == type(info.value).__name__

    @pytest.mark.parametrize("target_name", TARGETS)
    def test_simulator(self, target_name):
        simulator = _simulator(target_name)
        with observe.capture() as obs:
            with pytest.raises(ExecutionTrap):
                simulator.run("main")
        registry = obs.registry
        assert registry.value("run.cycles", engine=target_name) \
            == simulator.cycles > 0
        assert registry.value("run.instructions", engine=target_name) \
            == simulator.instructions_executed > 0
        assert registry.value("run.traps", engine=target_name,
                              trap="1") == 1
        (event,) = [e for e in obs.tracer.events
                    if e.name == "trap.unhandled"]
        assert event.attrs["engine"] == target_name

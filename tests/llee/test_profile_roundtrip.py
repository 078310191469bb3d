"""Satellite: the profile instrumentation cycle is lossless.

``instrument_module`` -> run -> ``read_profile`` ->
``strip_instrumentation`` must leave the module verifier-clean and
byte-identical (printed form) to the pre-instrumentation module, for
both execution engines.
"""

import pytest

from helpers import build_factorial, build_loop_sum
from repro.execution import Interpreter
from repro.execution.machine_sim import MachineSimulator
from repro.ir import print_module, verify_module
from repro.llee import instrument_module, read_profile, \
    strip_instrumentation
from repro.llee.jit import FunctionJIT
from repro.minic import compile_source
from repro.targets import NativeModule, make_target

MINIC_PROGRAM = """
int helper(int x) { return x * 3 + 1; }
int main() {
    int i;
    int total;
    total = 0;
    for (i = 0; i < 25; i = i + 1) total = total + helper(i);
    return total % 251;
}
"""


def _modules():
    return [
        ("factorial", build_factorial()),
        ("loop_sum", build_loop_sum(12)),
        ("minic", compile_source(MINIC_PROGRAM, optimization_level=1)),
    ]


class TestProfileRoundTrip:
    @pytest.mark.parametrize("name,module",
                             _modules(), ids=lambda v: v
                             if isinstance(v, str) else "")
    def test_interpreter_round_trip(self, name, module):
        before = print_module(module)
        profile_map = instrument_module(module)
        verify_module(module)  # instrumented code is legal LLVA
        interpreter = Interpreter(module)
        result = interpreter.run()
        profile = read_profile(profile_map, interpreter)
        # Real counts were collected before stripping.
        assert sum(profile.counts.values()) > 0
        for function in module.functions.values():
            for block in function.blocks:
                assert (function.name,
                        block.name or "") in profile.counts
        strip_instrumentation(module)
        verify_module(module)
        assert print_module(module) == before
        # The stripped module still runs and agrees with the
        # instrumented run.
        assert Interpreter(module).run().return_value \
            == result.return_value

    def test_native_round_trip(self):
        module = build_loop_sum(9)
        target = make_target("x86")
        before = print_module(module)
        profile_map = instrument_module(module)
        jit = FunctionJIT(module, target)
        simulator = MachineSimulator(
            NativeModule(target, module.name), module,
            resolver=jit.translate)
        simulator.run("main")
        profile = read_profile(profile_map, simulator)
        assert sum(profile.counts.values()) > 0
        strip_instrumentation(module)
        verify_module(module)
        assert print_module(module) == before

    def test_double_strip_is_harmless(self):
        module = build_factorial()
        before = print_module(module)
        instrument_module(module)
        strip_instrumentation(module)
        strip_instrumentation(module)  # idempotent
        assert print_module(module) == before

"""``mbr`` and ``cast`` on every engine and both native targets.

A cell is one small function and the argument values it is called
with.  The ``mbr`` cells switch on a selector of each integer type, with
a duplicate case value (the first wins), a case whose target is the
default, two cases that share a target and, for a signed type, a
negative case; the selectors include every case value, the type's
bounds and values no case names.  The ``cast`` cells convert between
every pair of the eight integer types at each type's min, max, 0, +-1,
min+1 and max-1 (those in range), from bool to each integer type and
back, and between pointers and integers.

Each cell's function is called with its values in turn, at least 17
times in all, so the threshold-16 tier-2 entry compiles it and runs it
compiled.  Every ``ExecConfig.all()`` entry must match the reference
interpreter (the llva-san reference for the llva-san entries) on each
call's result, output, steps and exit status, and x86 and SPARC must
match the reference with their own layout on result and exit status.
"""

import pytest

from repro.asm import parse_module
from repro.execution import Interpreter
from repro.execution.config import ExecConfig
from repro.execution.machine_sim import MachineSimulator
from repro.ir import types, verify_module
from repro.targets import make_target, translate_module

INTEGERS = [name for name, type_ in types.PRIMITIVES.items()
            if type_.is_integer]
TARGETS = ("x86", "sparc")
REFERENCE = ExecConfig(engine="reference")
#: Calls per cell, at least: one past the default promotion threshold.
CALLS = 17


def interesting(type_name):
    """min, max, 0, +-1, min+1 and max-1 of an integer type, in range."""
    type_ = types.PRIMITIVES[type_name]
    low, high = type_.min_value, type_.max_value
    values = [low, high, 0, 1, -1, low + 1, high - 1]
    return sorted({v for v in values if low <= v <= high})


#: Pointer arguments: in range for both targets' pointer sizes.
POINTERS = [0, 1, 0x10000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]


def cast_cell(source, dest):
    return """
{1} %f({0} %x) {{
entry:
        %r = cast {0} %x to {1}
        ret {1} %r
}}
""".format(source, dest)


def mbr_cell(type_name):
    """A switch whose targets return distinct values; ``%two`` is
    shadowed by the first case of value 1, ``%other`` is both the
    default and a case, and ``%three`` is two cases."""
    signed = types.PRIMITIVES[type_name].is_signed
    last = -5 if signed else types.PRIMITIVES[type_name].max_value
    return """
int %f({0} %x) {{
entry:
        mbr {0} %x, label %other, [ {0} 1, label %one ],
            [ {0} 1, label %two ], [ {0} 2, label %other ],
            [ {0} 3, label %three ], [ {0} 4, label %three ],
            [ {0} {1}, label %last ]
one:
        ret int 10
two:
        ret int 20
three:
        ret int 30
last:
        ret int 40
other:
        ret int 50
}}
""".format(type_name, last)


def _cells():
    cells = []
    for type_name in INTEGERS:
        cells.append(("mbr-" + type_name, mbr_cell(type_name),
                      sorted(set(interesting(type_name)) | {2, 3, 4, 5})))
    for source in INTEGERS:
        for dest in INTEGERS:
            cells.append(("cast-{0}-{1}".format(source, dest),
                          cast_cell(source, dest), interesting(source)))
        cells.append(("cast-bool-" + source, cast_cell("bool", source),
                      [False, True]))
        cells.append(("cast-{0}-bool".format(source),
                      cast_cell(source, "bool"), interesting(source)))
        cells.append(("cast-{0}-ptr".format(source),
                      cast_cell(source, "int*"), interesting(source)))
        cells.append(("cast-ptr-" + source, cast_cell("int*", source),
                      POINTERS))
    cells.append(("cast-ptr-ptr", cast_cell("int*", "sbyte*"), POINTERS))
    return cells


CELLS = _cells()


def _module(source):
    module = parse_module(source)
    verify_module(module)
    return module


def _calls(values):
    """The values repeated up to at least :data:`CALLS` calls."""
    rounds = -(-CALLS // len(values))
    return values * rounds


def interpreted(source, values, config, target=None):
    """Each call's (result, output, steps, exit status), in order; the
    steps and output accumulate over the engine's runs."""
    interpreter = Interpreter(_module(source), config, target=target)
    outcomes = []
    for value in _calls(values):
        result = interpreter.run("f", [value])
        outcomes.append((result.return_value, result.output, result.steps,
                         result.exit_status))
    return outcomes, interpreter


def native(source, values, target_name):
    """Each call's (result, exit status) on the machine simulator."""
    module = _module(source)
    simulator = MachineSimulator(
        translate_module(module, make_target(target_name)), module)
    return [simulator.run("f", [value]) for value in _calls(values)]


def test_every_integer_type_has_cells():
    assert len(INTEGERS) == 8
    assert len(CELLS) == 8 + 8 * 8 + 8 * 4 + 1


@pytest.mark.parametrize("cell", CELLS, ids=[cell[0] for cell in CELLS])
def test_cell(cell):
    _name, source, values = cell
    oracles = {}
    for config in ExecConfig.all():
        reference = ExecConfig(engine="reference", sanitize=config.sanitize)
        if reference not in oracles:
            oracles[reference] = interpreted(source, values, reference)[0]
        outcomes, interpreter = interpreted(source, values, config)
        assert outcomes == oracles[reference], config
        if config.tier2:
            # Compiled, and the calls after promotion ran in tier 2.
            assert interpreter.tier2.stats.functions_compiled == 1, config
            assert interpreter.tier2.stats.pins == 0, config
            assert interpreter.tier2_steps > 0, config
    for target_name in TARGETS:
        expected, _ = interpreted(source, values, REFERENCE,
                                  make_target(target_name).target_data)
        assert native(source, values, target_name) \
            == [(value, status) for value, _out, _steps, status
                in expected], target_name

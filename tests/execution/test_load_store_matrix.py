"""Every scalar type loaded and stored in every arena, and every memory
fault of a load and a store, on every engine and both native targets.

A cell is a scalar type and a place.  The places are the three arenas
(the stack, the heap and the globals) and four faults (the null page,
past the heap cursor, a freed heap block and a popped frame's slot),
each fault once delivered and once masked by ``!ee(false)``.  The types
are the scalar primitives of the IR's type table plus a pointer, so a
new scalar type cannot be left out.

The global arena's edges get cells of their own, each an address
reached through a ``getelementptr`` of a global (the accesses tier 2
tests against the arena's bounds before it calls ``Memory.load`` or
``store``): the arena's first byte, the last whole scalar below its end,
a scalar straddling its end (for a one-byte type, the byte just past
it) and a scalar below ``GLOBAL_BASE``.  Each is loaded, stored and
read back, and stored and loaded under ``!ee(false)``, where a faulting
load reads zero and a faulting store is dropped.

Each cell's module runs on every ``ExecConfig.all()`` entry and must
match the reference interpreter (the llva-san reference for the llva-san
entries) on result, output, steps, exit status and trap report.  It
also runs natively on x86 and SPARC and must match the reference
interpreter with that target's layout on result, output, exit status
and trap kind.
"""

from typing import Tuple

import pytest

from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import ExecConfig
from repro.execution.machine_sim import MachineSimulator
from repro.execution.memory import GLOBAL_BASE
from repro.ir import types, verify_module
from repro.targets import make_target, translate_module

POINTER = "int*"

#: Per type, the value a cell starts with (a global's initializer) and
#: the value it stores: negative, wide and non-trivial byte images, so
#: a wrong sign, width or byte order shows in the output.
VALUES = {
    "bool": ("true", "false"),
    "ubyte": ("200", "3"),
    "sbyte": ("-7", "121"),
    "ushort": ("60000", "7"),
    "short": ("-30000", "12345"),
    "uint": ("4000000000", "1"),
    "int": ("-2000000000", "305419896"),
    "ulong": ("18000000000000000000", "2"),
    "long": ("-5000000000123", "81985529216486895"),
    "float": ("-2.5", "0.1"),
    "double": ("0.1", "-1e+300"),
    POINTER: ("%anchor", "null"),
}

SCALARS = [name for name, type_ in types.PRIMITIVES.items()
           if type_.is_scalar] + [POINTER]

ARENAS = ("stack", "heap", "global")
FAULTS = ("null", "past-heap", "freed", "popped")
#: How a fault cell accesses the bad address: a delivered load, a
#: delivered store, or a masked store followed by a masked load.
ACCESSES = ("load", "store", "masked")

CELLS = [(t, place, None) for t in SCALARS for place in ARENAS] + [
    (t, place, access) for t in SCALARS for place in FAULTS
    for access in ACCESSES]

#: The global arena's edges: (the globals in layout order, then the
#: ``getelementptr`` index from the cell's global ``%g`` for a one-byte
#: scalar and for a wider one).  ``%pad`` is one byte, so the arena ends
#: one byte past the address ``%g``'s index 1 reaches.  Only the last
#: two fault.
EDGES = {
    "global-first": (("g", "anchor"), 0, 0),
    "global-last": (("anchor", "g"), 0, 0),
    "global-straddle": (("anchor", "g", "pad"), 2, 1),
    "global-below": (("g", "anchor"), -1, -1),
}
EDGE_CELLS = [(t, place, access) for t in SCALARS for place in EDGES
              for access in ACCESSES]

TARGETS = ("x86", "sparc")
REFERENCE = ExecConfig(engine="reference")

DECLS = """
declare sbyte* %malloc(uint)
declare void %free(sbyte*)
declare void %print_long(long)
declare void %print_double(double)
declare void %print_newline()
%anchor = global int 0
"""


def _print(type_name: str, value: str) -> str:
    """Print *value* of *type_name* on its own line."""
    if type_name in ("float", "double"):
        return """
        %{0}.d = cast {1} %{0} to double
        call void %print_double(double %{0}.d)
        call void %print_newline()""".format(value, type_name)
    return """
        %{0}.l = cast {1} %{0} to long
        call void %print_long(long %{0}.l)
        call void %print_newline()""".format(value, type_name)


def _place(type_name: str, place: str) -> str:
    """Instructions leaving a ``T*`` to *place* in ``%p``; a global is
    addressed by its name itself."""
    t = type_name
    if place == "stack":
        return "%p = alloca {0}".format(t)
    if place == "global":
        return ""
    if place == "heap":
        return """%raw = call sbyte* %malloc(uint 16)
        %p = cast sbyte* %raw to {0}*""".format(t)
    if place == "null":
        return "%p = cast ulong 8 to {0}*".format(t)
    if place == "past-heap":
        return """%raw = call sbyte* %malloc(uint 16)
        %far = getelementptr sbyte* %raw, long 4096
        %p = cast sbyte* %far to {0}*""".format(t)
    if place == "freed":
        return """%raw = call sbyte* %malloc(uint 16)
        call void %free(sbyte* %raw)
        %p = cast sbyte* %raw to {0}*""".format(t)
    assert place == "popped"
    return "%p = call {0}* %leak()".format(t)


def cell_source(type_name: str, place: str, access) -> str:
    t = type_name
    initial, stored = VALUES[t]
    p = "%g" if place == "global" else "%p"
    body = ["%g = global {0} {1}".format(t, initial), """
{0}* %leak() {{
entry:
        %slot = alloca {0}
        store {0} {1}, {0}* %slot
        ret {0}* %slot
}}
int %main() {{
entry:
        %init = load {0}* %g
        {2}""".format(t, initial, _place(t, place))]
    if access is None:
        # Read what the arena holds; store a constant, read it back and
        # read the first byte of its image; store a register (the
        # global's initial value) and read it back.
        body.append("""
        %before = load {0}* {2}
        store {0} {1}, {0}* {2}
        %after = load {0}* {2}
        %bp = cast {0}* {2} to ubyte*
        %byte = load ubyte* %bp
        store {0} %init, {0}* {2}
        %again = load {0}* {2}""".format(t, stored, p))
        body += [_print(t, "before"), _print(t, "after"),
                 _print("ubyte", "byte"), _print(t, "again")]
        body.append("""
        %r = cast ubyte %byte to int
        ret int %r
}""")
        return DECLS + "".join(body)
    ee = " !ee(false)" if access == "masked" else ""
    if access in ("store", "masked"):
        body.append("""
        store {0} %init, {0}* %p{1}""".format(t, ee))
    if access in ("load", "masked"):
        body.append("""
        %v = load {0}* %p{1}""".format(t, ee))
        body.append(_print(t, "v"))
    body.append("""
        ret int 7
}""")
    return DECLS + "".join(body)


def edge_source(type_name: str, place: str, access: str) -> str:
    """A cell at one of the global arena's edges: ``load`` reads the
    address, ``store`` stores there and reads it back, and ``masked``
    does both under ``!ee(false)``."""
    t = type_name
    # A global named in an initializer is laid out first, so the
    # pointer cell starts null and stores the anchor's address.
    initial, stored = ("null", "%anchor") if t == POINTER else VALUES[t]
    order, narrow, wide = EDGES[place]
    one_byte = t != POINTER and types.PRIMITIVES[t].size == 1
    index = narrow if one_byte else wide
    declared = {"g": "%g = global {0} {1}".format(t, initial),
                "anchor": "%anchor = global int 0",
                "pad": "%pad = global ubyte 0"}
    ee = " !ee(false)" if access == "masked" else ""
    body = ["\n".join(declared[name] for name in order),
            DECLS.replace("%anchor = global int 0\n", ""), """
int %main() {{
entry:
        %p = getelementptr {0}* %g, long {1}""".format(t, index)]
    if access in ("store", "masked"):
        body.append("""
        store {0} {1}, {0}* %p{2}""".format(t, stored, ee))
    body.append("""
        %v = load {0}* %p{1}""".format(t, ee))
    body.append(_print(t, "v"))
    body.append("""
        ret int 7
}""")
    return "".join(body)


def _module(source):
    module = parse_module(source)
    verify_module(module)
    return module


def interpreted(source, config, target=None):
    """(result, output, steps, exit status) or the trap report."""
    interpreter = Interpreter(_module(source), config, target=target)
    try:
        result = interpreter.run("main")
    except ExecutionTrap as trap:
        return ("trap", trap.trap_number, trap.address, trap.detail,
                interpreter.steps)
    return ("ok", result.return_value, result.output, result.steps,
            result.exit_status)


def native(source, target_name):
    """(result, output, exit status) or the trap kind."""
    module = _module(source)
    simulator = MachineSimulator(
        translate_module(module, make_target(target_name)), module)
    try:
        value, status = simulator.run("main")
    except ExecutionTrap as trap:
        return ("trap", trap.trap_number)
    return ("ok", value, simulator.output_text(), status)


def _kind(outcome):
    """An interpreted outcome as :func:`native` reports it."""
    if outcome[0] == "trap":
        return outcome[:2]
    return outcome[:3] + outcome[4:]


def test_every_scalar_type_has_a_cell():
    scalars = {t for t in types.PRIMITIVES.values() if t.is_scalar}
    assert scalars == {types.PRIMITIVES[name] for name in VALUES
                       if name != POINTER}
    assert len(SCALARS) == 12


def _cell_id(cell):
    type_name, place, access = cell
    return "-".join(p for p in (type_name.replace("*", "ptr"), place,
                                access) if p)


def _check_everywhere(source):
    """Run *source* on every config and both targets against the
    reference; return the reference interpreter's outcome."""
    oracles = {}
    for config in ExecConfig.all():
        reference = ExecConfig(engine="reference", sanitize=config.sanitize)
        if reference not in oracles:
            oracles[reference] = interpreted(source, reference)
        assert interpreted(source, config) == oracles[reference], config
    for target_name in TARGETS:
        expected = interpreted(source, REFERENCE,
                               make_target(target_name).target_data)
        assert native(source, target_name) == _kind(expected), target_name
    return oracles[REFERENCE]


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_cell(cell):
    outcome = _check_everywhere(cell_source(*cell))
    type_name, place, access = cell
    if access is None:
        assert outcome[0] == "ok"
    elif access != "masked":
        assert outcome[:2] == ("trap", 1)


def _address(type_name: str, place: str) -> Tuple[int, int, int]:
    """The address a global-edge cell accesses and its end, and where
    the global arena ends, in the reference interpreter's layout."""
    source = edge_source(type_name, place, "load")
    interpreter = Interpreter(_module(source), REFERENCE)
    address = interpreter.image.address_of("g")
    size = interpreter.target.size_of(
        interpreter.module.globals["g"].value_type)
    _order, narrow, wide = EDGES[place]
    address += size * (narrow if size == 1 else wide)
    return address, address + size, interpreter.memory.global_end


@pytest.mark.parametrize("type_name", SCALARS)
def test_global_edges_are_where_they_say(type_name):
    start, end, global_end = _address(type_name, "global-first")
    assert start == GLOBAL_BASE
    start, end, global_end = _address(type_name, "global-last")
    assert end == global_end
    start, end, global_end = _address(type_name, "global-straddle")
    assert start < global_end < end or start == global_end == end - 1
    start, end, global_end = _address(type_name, "global-below")
    assert end == GLOBAL_BASE


@pytest.mark.parametrize("cell", EDGE_CELLS, ids=_cell_id)
def test_global_edge_cell(cell):
    outcome = _check_everywhere(edge_source(*cell))
    type_name, place, access = cell
    faults = place in ("global-straddle", "global-below")
    if faults and access != "masked":
        assert outcome[:2] == ("trap", 1)
    else:
        assert outcome[0] == "ok"
        if faults:  # the masked load read zero
            assert float(outcome[2]) == 0

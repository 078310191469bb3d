"""The native cost model, pinned row by row.

Each of the 17 Table 2 programs is built at scale 0.01 with ``-O2`` and
run from its bitcode on the machine simulator for x86 and for SPARC, as
perfbench's native phases run it.  Return value, output, exit status,
cycles and executed instructions must equal the row in ``ROWS``.
perfbench gates only the sum of the cycles (``native_cycles``), so two
errors that cancel across rows would pass there; they fail here.

The same builds pin what translation does to its input.  It splits
critical edges in the LLVA module in place, and an LLEE keeps that
module resident, so a later launch that must JIT translates an already
translated module: that must give the same code byte for byte, and a
second launch on one LLEE must report what a fresh LLEE does.

To regenerate the table after a deliberate change to the cost model or
to the code generators, run this file from the repository root and
replace ``ROWS`` with what it prints::

    PYTHONPATH=src python tests/integration/test_native_cost_rows.py
"""

import functools

import pytest

from repro import observe
from repro.benchsuite import SUITE_ORDER, load_workload
from repro.bitcode import read_module, write_module
from repro.llee import LLEE, InMemoryStorage
from repro.llee.jit import FunctionJIT
from repro.minic import compile_source
from repro.targets import make_target, serialize_native

SCALE = 0.01
TARGETS = ("x86", "sparc")

#: (program, target) -> (return value, output, exit status, cycles,
#: instructions executed).
ROWS = {
    ('anagram', 'x86'): (0, 'anagram pairs=0 checksum=0\n', 0, 7461, 2717),
    ('anagram', 'sparc'): (0, 'anagram pairs=0 checksum=0\n', 0, 3588, 1834),
    ('ks', 'x86'): (0, 'ks cut 0 -> 0 checksum=0\n', 0, 991, 430),
    ('ks', 'sparc'): (0, 'ks cut 0 -> 0 checksum=0\n', 0, 635, 416),
    ('ft', 'x86'): (16354, 'ft mst=17 checksum=16354\n', 0, 4345, 1817),
    ('ft', 'sparc'): (16354, 'ft mst=17 checksum=16354\n', 0, 2061, 1269),
    ('yacr2', 'x86'): (1, 'yacr2 tracks=2 checksum=1\n', 0, 2733, 1127),
    ('yacr2', 'sparc'): (1, 'yacr2 tracks=2 checksum=1\n', 0, 1288, 797),
    ('bc', 'x86'): (30802, 'bc checksum=424018\n', 0, 1793247, 681192),
    ('bc', 'sparc'): (30802, 'bc checksum=424018\n', 0, 680098, 349858),
    ('art', 'x86'): (
        23614,
        'art moves=0 mass=23.614008 checksum=23614\n',
        0, 858596, 336153),
    ('art', 'sparc'): (
        23614,
        'art moves=0 mass=23.614008 checksum=23614\n',
        0, 309845, 186888),
    ('equake', 'x86'): (
        29696,
        'equake energy=0.040001 nnz=1 checksum=128000\n',
        0, 1840, 732),
    ('equake', 'sparc'): (
        29696,
        'equake energy=0.040001 nnz=1 checksum=128000\n',
        0, 1062, 651),
    ('mcf', 'x86'): (994, 'mcf cost=21 checksum=994\n', 0, 63635, 27158),
    ('mcf', 'sparc'): (994, 'mcf cost=21 checksum=994\n', 0, 22435, 14841),
    ('bzip2', 'x86'): (
        30145,
        'bzip2 bits=280 checksum=-728173119\n',
        0, 624609, 271687),
    ('bzip2', 'sparc'): (
        30145,
        'bzip2 bits=280 checksum=-728173119\n',
        0, 208154, 136609),
    ('gzip', 'x86'): (
        2573,
        'gzip tokens=52 matched=0 ok=1 checksum=2573\n',
        0, 321626, 136721),
    ('gzip', 'sparc'): (
        2573,
        'gzip tokens=52 matched=0 ok=1 checksum=2573\n',
        0, 114250, 77773),
    ('parser', 'x86'): (
        142,
        'parser parsed=1/1 linkages=10000 checksum=-1224671090\n',
        0, 352182, 147284),
    ('parser', 'sparc'): (
        142,
        'parser parsed=1/1 linkages=10000 checksum=-1224671090\n',
        0, 163505, 106008),
    ('ammp', 'x86'): (
        0,
        'ammp pe=0.000000 ke=0.000000 checksum=0\n',
        0, 2502, 969),
    ('ammp', 'sparc'): (
        0,
        'ammp pe=0.000000 ke=0.000000 checksum=0\n',
        0, 1492, 888),
    ('vpr', 'x86'): (
        0,
        'vpr cost 0 -> 0 verify=0 checksum=0\n',
        0, 5655, 2282),
    ('vpr', 'sparc'): (
        0,
        'vpr cost 0 -> 0 verify=0 checksum=0\n',
        0, 2675, 1675),
    ('twolf', 'x86'): (
        0,
        'twolf cost 0 -> 0 congestion=0 checksum=0\n',
        0, 18673, 7706),
    ('twolf', 'sparc'): (
        0,
        'twolf cost 0 -> 0 congestion=0 checksum=0\n',
        0, 8676, 5497),
    ('crafty', 'x86'): (
        1010,
        'crafty nodes=80 score=30 checksum=1010\n',
        0, 422570, 191363),
    ('crafty', 'sparc'): (
        1010,
        'crafty nodes=80 score=30 checksum=1010\n',
        0, 148445, 120372),
    ('vortex', 'x86'): (
        24099,
        'vortex live=3 inserts=3 hits=0 deletes=0 checksum=-472097245\n',
        0, 7921, 3048),
    ('vortex', 'sparc'): (
        24099,
        'vortex live=3 inserts=3 hits=0 deletes=0 checksum=-472097245\n',
        0, 4313, 2425),
    ('gap', 'x86'): (32, 'gap orders=1 sizes=1 checksum=32\n', 0, 5118, 2119),
    ('gap', 'sparc'): (
        32,
        'gap orders=1 sizes=1 checksum=32\n',
        0, 2985, 1866),
}

#: perfbench's gated ``native_cycles`` on ``steady-state`` (all rows)
#: and on ``cold-start`` (the probe rows of LIGHT).
STEADY_STATE_CYCLES = 6169211
LIGHT = ("anagram", "ft", "equake")
COLD_START_CYCLES = 20357


@functools.lru_cache(maxsize=None)
def _bitcode(name: str) -> bytes:
    module = compile_source(load_workload(name, SCALE).source, name,
                            optimization_level=2)
    return write_module(module)


def _row(name: str, target: str) -> tuple:
    report = LLEE(make_target(target)).run_executable(_bitcode(name))
    return (report.return_value, report.output, report.exit_status,
            report.cycles, report.native_instructions_executed)


@pytest.mark.parametrize("name,target", list(ROWS))
def test_row_matches_pinned_cost(name, target):
    assert _row(name, target) == ROWS[name, target]


@pytest.mark.parametrize("name,target", list(ROWS))
def test_translating_a_translated_module_changes_nothing(name, target):
    module = read_module(_bitcode(name))
    first = serialize_native(
        FunctionJIT(module, make_target(target)).translate_all())
    again = serialize_native(
        FunctionJIT(module, make_target(target)).translate_all())
    assert again == first


@pytest.mark.parametrize("name,target", list(ROWS))
def test_relaunch_without_storage_matches_a_fresh_llee(name, target):
    """The first launch is a fresh LLEE's; the second runs on the
    module the first translated, and translates it again."""
    llee = LLEE(make_target(target))
    first, second = (llee.run_executable(_bitcode(name))
                     for _ in range(2))
    for report in (first, second):
        assert (report.return_value, report.output, report.exit_status,
                report.cycles, report.native_instructions_executed) \
            == ROWS[name, target]
        assert not report.cache_hit
    assert second.functions_jitted == first.functions_jitted > 0


@pytest.mark.parametrize("name,target", list(ROWS))
def test_relaunch_with_storage_matches_a_fresh_llee(name, target):
    """The first launch translates and stores the vector; the next two
    run the resident translation on the first launch's machine, reset,
    and decode no block again."""
    llee = LLEE(make_target(target), InMemoryStorage())
    reports, decoded = [], []
    for _ in range(3):
        with observe.capture() as obs:
            reports.append(llee.run_executable(_bitcode(name)))
        decoded.append(obs.registry.value("native.blocks_decoded",
                                          target=target))
    for report in reports:
        assert (report.return_value, report.output, report.exit_status,
                report.cycles, report.native_instructions_executed) \
            == ROWS[name, target]
    assert [report.cache_hit for report in reports] == [False, True, True]
    assert decoded[0] > 0 and decoded[1:] == [0, 0]


def test_table_covers_the_suite_and_adds_up_to_the_gates():
    assert sorted(ROWS) == sorted((name, target) for name in SUITE_ORDER
                                  for target in TARGETS)
    assert sum(row[3] for row in ROWS.values()) == STEADY_STATE_CYCLES
    assert sum(ROWS[name, target][3] for name in LIGHT
               for target in TARGETS) == COLD_START_CYCLES


def _format_row(name: str, target: str, row: tuple) -> str:
    line = "    ({0!r}, {1!r}): {2!r},".format(name, target, row)
    if len(line) <= 79:
        return line
    return "    ({0!r}, {1!r}): (\n        {2!r},\n        {3!r},\n" \
        "        {4!r}, {5!r}, {6!r}),".format(name, target, *row)


if __name__ == "__main__":
    print("ROWS = {")
    for program in SUITE_ORDER:
        for target_name in TARGETS:
            print(_format_row(program, target_name,
                              _row(program, target_name)))
    print("}")

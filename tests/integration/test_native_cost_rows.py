"""The native cost model, pinned row by row.

Each of the 17 Table 2 programs is built at scale 0.01 with ``-O2`` and
run from its bitcode on the machine simulator for x86 and for SPARC, as
perfbench's native phases run it.  Return value, output, exit status,
cycles and executed instructions must equal the row in ``ROWS``.
perfbench gates only the sum of the cycles (``native_cycles``), so two
errors that cancel across rows would pass there; they fail here.

The same builds pin translation itself.  It only reads the module, so
the module still writes out as the bitcode it was read from and runs the
steps it ran before; the JIT counts that virtual object code, so the
suite's expansion is Table 2's; and each row's whole-module translation
is pinned byte for byte by digest.  A second launch on one LLEE, which
translates the module its first launch translated, must report what a
fresh LLEE does.

To regenerate the table after a deliberate change to the cost model or
to the code generators, run this file from the repository root and
replace ``ROWS`` (and, after a change to the code generators,
``DIGESTS``) with what it prints::

    PYTHONPATH=src python tests/integration/test_native_cost_rows.py
"""

import functools
import hashlib

import pytest

from repro import observe
from repro.benchsuite import SUITE_ORDER, load_workload
from repro.bitcode import read_module, write_module
from repro.execution import Interpreter
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

#: (program, target) -> SHA-256 of the serialized whole-module
#: translation.
DIGESTS = {
    ('anagram', 'x86'):
        "a332ef281072ff77d35373a47a8f2f84672dfdddc97ab7c543370d1146c2f9e3",
    ('anagram', 'sparc'):
        "b6ebc660019c0904118db16ac2c693ab50b62df2fda85d63172c89363a65f167",
    ('ks', 'x86'):
        "34d21cd3cbcee240924e603599203f69e1155fa4814a9aafc7d92e13b4a4913a",
    ('ks', 'sparc'):
        "3d9842d77ef78ec259a8666007d43136e99f2206af61bfd1fdbd76044dcd53dd",
    ('ft', 'x86'):
        "f300a42846d9c88ec24e72d5ccf12f300ddec5d01f32f445c642cf87a8ca6871",
    ('ft', 'sparc'):
        "ce6c7e2c16adbc905c68cd870ea56587cafdafe5b66f52aaec0a0b8b09dd1a06",
    ('yacr2', 'x86'):
        "35cc5f8902570e2fff94f8bd4eb15ae9aebfd6df4460dfc228328a6157cee6e2",
    ('yacr2', 'sparc'):
        "375787b632afbda8218db66db60273b1517951a6c53c5ae89590ea75fca86c8c",
    ('bc', 'x86'):
        "b5e538a07ab36df18174b0effa902bc42966fe2bdaae16b30d9d57e144a924fc",
    ('bc', 'sparc'):
        "4d45556872adc10f7020447e9ce502e165300c1f2b0fffee6e9bc2668e1c0d22",
    ('art', 'x86'):
        "695c1148b9c238d188409342aacf79c78b11ac4832ab660a82e9d47abce13e40",
    ('art', 'sparc'):
        "6d465e988594e5ec3120b1149237017bd44e50f5db9731d95d2fd1d0fed5c7d6",
    ('equake', 'x86'):
        "d76da3b9922657c6e47165344ff3fa2a2ff93a377ab494cf361e761d4644ab81",
    ('equake', 'sparc'):
        "f12f4fe96a73fae2890f2403c38c563da5fb82a7611d0eb6af47a9f6972b7e83",
    ('mcf', 'x86'):
        "c000bf4c9ef541b231ac062bdc744b021b84eaef8d63c2cda7e650a852571d39",
    ('mcf', 'sparc'):
        "e2eac4faad84c12e72220b0274c6806af2a1b9ae1ca99c20e76d3bcedd93a4a7",
    ('bzip2', 'x86'):
        "aac65bf5fcf6b981344834c7ca9147f3a162e96d8f1e0f20694ba23b3e6768df",
    ('bzip2', 'sparc'):
        "cf678e52e573c48b18d30b56a02a6c0e6332fa933be3ff322033f9ed5f666b45",
    ('gzip', 'x86'):
        "88a2ddc0a2043fc462f37edf935872e7982c2c885e20657eb96349f36d1cf24f",
    ('gzip', 'sparc'):
        "e1b756f6064af4b5dcb4ae36c972f0724d148036a34eaacc2c8c57c31a440192",
    ('parser', 'x86'):
        "c4c52f6d3b68697d3b8d35610835d0a59eee4caf8513e80e24cb19dc1457fd94",
    ('parser', 'sparc'):
        "94dc199b14240542d61f703262a8caf66cc5976614bd8a73fdd69a0fde1e8085",
    ('ammp', 'x86'):
        "8d902a885b8518436c13e2ebd02642783acb1427551e47adf0fb8ede6a0bfdfb",
    ('ammp', 'sparc'):
        "e6777f49af456e6e751dee47b9a04f46a552a6b91056d582ab32c75ae85f2e9c",
    ('vpr', 'x86'):
        "2bb5b954ee47c6d5c76413f8573ee99de6b405d64aec3501fbed04bb7635b2aa",
    ('vpr', 'sparc'):
        "ed7f202421ed9483a42e9677060cb1c8a07c9131094850205aebc0ab6447e097",
    ('twolf', 'x86'):
        "a125549d0f82d1b41fcd78d438d533ebd2148ded567d10ca85dbf18e74ed0dd4",
    ('twolf', 'sparc'):
        "a4df95ba749967d51b2ce093f982595fbc769f2dcecb60624df73e6375006254",
    ('crafty', 'x86'):
        "b404b2f874ec400e529cdfb5281b729565da252e418f0a3f5f907c53bdca9d83",
    ('crafty', 'sparc'):
        "cae83e889647c139eae7a08ec5eeeb02de3119d0a3b843f9d4ddd8ecf1d124f5",
    ('vortex', 'x86'):
        "3770e6fdac84690ef27fdea903e28989d744f95f173c20076faf4b2f7d7ff8a4",
    ('vortex', 'sparc'):
        "bb74790d2871243d37f0fdeef516e255116e0b295aa7dc620721a872f2897657",
    ('gap', 'x86'):
        "29ba0bb3cb24a84084b48b4e56e2b7c19d69fe0f6762c25458e4d592fc9dc878",
    ('gap', 'sparc'):
        "17cfa2af87acabb52d264ad58c97817dbf6fad4a2f175b1dab90e735f8f7afc3",
}

#: The suite's LLVA instructions, its native instructions per target,
#: and their ratio: Table 2's expansion over the whole suite.
LLVA_INSTRUCTIONS = 5274
NATIVE_INSTRUCTIONS = {"x86": 16599, "sparc": 14553}
EXPANSION = {"x86": 3.147, "sparc": 2.759}

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


def _digest(module, target: str) -> str:
    """SHA-256 of the serialized whole-module translation."""
    native = FunctionJIT(module, make_target(target)).translate_all()
    return hashlib.sha256(serialize_native(native)).hexdigest()


@pytest.mark.parametrize("name,target", list(ROWS))
def test_translating_a_translated_module_changes_nothing(name, target):
    """Translation only reads the module: it still writes out as its
    bitcode, and translating it again gives the pinned code."""
    bitcode = _bitcode(name)
    module = read_module(bitcode)
    for _ in range(2):
        assert _digest(module, target) == DIGESTS[name, target]
        assert write_module(module) == bitcode


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_translation_keeps_the_reference_steps(name):
    """After translation for both targets, the reference engine counts
    the steps it counted before."""
    bitcode = _bitcode(name)
    module = read_module(bitcode)
    steps = Interpreter(module).run().steps
    for target in TARGETS:
        FunctionJIT(module, make_target(target)).translate_all()
    assert write_module(module) == bitcode
    assert Interpreter(module).run().steps == steps


@functools.lru_cache(maxsize=None)
def _counts(name: str, target: str) -> tuple:
    """The LLVA instructions the JIT counts in translating all of
    *name* for *target*, and the native instructions it makes."""
    jit = FunctionJIT(read_module(_bitcode(name)), make_target(target))
    native = jit.translate_all()
    return jit.stats.instructions_translated, native.num_instructions()


@pytest.mark.parametrize("name,target", list(ROWS))
def test_jit_counts_the_object_code(name, target):
    assert _counts(name, target)[0] \
        == read_module(_bitcode(name)).num_instructions()


def test_suite_expansion_is_table_2s():
    llva = sum(read_module(_bitcode(name)).num_instructions()
               for name in SUITE_ORDER)
    assert llva == LLVA_INSTRUCTIONS
    for target in TARGETS:
        counts = [_counts(name, target) for name in SUITE_ORDER]
        assert sum(count[0] for count in counts) == llva
        native = sum(count[1] for count in counts)
        assert native == NATIVE_INSTRUCTIONS[target]
        assert round(native / llva, 3) == EXPANSION[target]


@pytest.mark.parametrize("name,target", list(ROWS))
def test_relaunch_without_storage_matches_a_fresh_llee(name, target):
    """The first launch is a fresh LLEE's; the second translates the
    module the first read and translated."""
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
    print("DIGESTS = {")
    for program in SUITE_ORDER:
        for target_name in TARGETS:
            print('    ({0!r}, {1!r}):\n        "{2}",'.format(
                program, target_name,
                _digest(read_module(_bitcode(program)), target_name)))
    print("}")

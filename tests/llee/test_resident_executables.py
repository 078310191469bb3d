"""Resident executables: a long-lived LLEE reports what fresh ones do.

An LLEE keeps one record per executable for its next launch: the module
it read, which every engine and the translator share, the fast engine's
decoded state per config, and the translation a native launch ran while
that equals the stored vector.  None of that may change what a launch
reports.  Each scenario below plays its steps twice, each time over its
own storage: once on one LLEE, and once on a fresh LLEE per launch.
Every native launch must report the same result, output, cycles,
``cache_hit`` and ``functions_jitted`` (or the same trap), and count the
same ``llee.cache.*`` events; every interpreted one the same result,
output, steps and exit status (or the same trap).

The data image is kept the same way on both launch paths: a relaunch
applies the layout its image took at the first load, so the last
section checks that it rewrites every initialized global, walks no
initializer and keeps no address a launch registered.
"""

import gc
import time
import weakref
from dataclasses import asdict

import pytest

from helpers import SMC_PROGRAM
from repro import observe
from repro.asm import parse_module
from repro.bitcode import write_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import ExecConfig
from repro.ir import IRBuilder, types
from repro.llee import LLEE, InMemoryStorage, manager
from repro.minic import compile_source
from repro.targets import make_target

TARGETS = ("x86", "sparc")
CACHE = "llee-native"

#: ``main(n)`` reaches ``cube`` only for n > 5, and traps for n == 6
#: once ``cube`` has run.
PROGRAM = r"""
int square(int x) { return x * x; }
int cube(int x) { return x * x * x; }
int main(int n) {
    int r;
    if (n > 5) r = cube(n); else r = square(n);
    print_int(100 / (n - 6));
    print_newline();
    return r;
}
"""


@pytest.fixture(scope="module")
def code():
    return write_module(compile_source(PROGRAM, "resident"))


@pytest.fixture(scope="module")
def smc_code():
    return write_module(parse_module(SMC_PROGRAM))


class _Storage(InMemoryStorage):
    """In-memory storage whose writes can be made to fail."""

    broken = False

    def write(self, cache, name, data, timestamp=None):
        if self.broken:
            raise IOError("read-only cache")
        super().write(cache, name, data, timestamp)


# -- steps: each is called as step(llee, storage, code) ----------------------

def launch(n, **kwargs):
    def step(llee, storage, code):
        with observe.capture() as obs:
            try:
                report = llee.run_executable(code, args=[n], **kwargs)
            except ExecutionTrap as trap:
                seen = ("trap", trap.trap_number, str(trap))
            else:
                seen = (report.return_value, report.output,
                        report.exit_status, report.cycles,
                        report.cache_hit, report.functions_jitted)
        return seen, obs.registry.counters("llee.cache.")
    return step


def offline_translate_o2(llee, storage, code):
    """Another LLEE replaces the vector by an install-time -O2 one."""
    LLEE(make_target(llee.target.name), storage).offline_translate(
        code, optimize_level=2)


def edit_under_header(llee, storage, code):
    """A well-formed edit of the payload; the header line stays."""
    data = storage.read(CACHE, llee._cache_key(code))
    header, _, body = data.partition(b"\n")
    edited = body.replace(b'"smc_version":0', b'"smc_version":1', 1)
    assert edited != body
    storage.write(CACHE, llee._cache_key(code), header + b"\n" + edited)


def corrupt(llee, storage, code):
    data = storage.read(CACHE, llee._cache_key(code))
    storage.write(CACHE, llee._cache_key(code),
                  b"\x00garbage\xff" + data[:40])


def break_writes(llee, storage, code):
    storage.broken = True


def mend_writes(llee, storage, code):
    storage.broken = False


def play(steps, target_name, code, one_llee, storage=True):
    """What each step of *steps* saw, on one LLEE or a fresh one per
    step."""
    storage = _Storage() if storage else None
    llee = LLEE(make_target(target_name), storage)
    seen = []
    for step in steps:
        if not one_llee:
            llee = LLEE(make_target(target_name), storage)
        seen.append(step(llee, storage, code))
    return seen


def assert_same_launches(steps, target_name, code, storage=True):
    resident = play(steps, target_name, code, True, storage)
    fresh = play(steps, target_name, code, False, storage)
    assert resident == fresh
    return fresh


# -- scenarios --------------------------------------------------------------

@pytest.mark.parametrize("target_name", TARGETS)
class TestResidentMatchesFresh:
    def test_repeat_launches_and_a_new_function(self, target_name, code):
        seen = assert_same_launches(
            [launch(2), launch(2), launch(7), launch(7), launch(2)],
            target_name, code)
        # Only the cold launch and the one reaching ``cube`` translate.
        assert [s[0][-1] for s in seen] == [2, 0, 1, 0, 0]

    def test_vector_replaced_by_offline_translation(self, target_name,
                                                    code):
        seen = assert_same_launches(
            [launch(2), launch(2), offline_translate_o2, launch(2),
             launch(7)], target_name, code)
        # The -O2 translation runs in other cycles than the online one.
        assert seen[3][0][3] != seen[1][0][3]

    def test_vector_edited_under_its_header(self, target_name, code):
        seen = assert_same_launches(
            [launch(2), launch(2), edit_under_header, launch(2),
             launch(2)], target_name, code)
        assert seen[3][0][4] is False  # the checksum rejects the edit

    def test_vector_corrupted(self, target_name, code):
        seen = assert_same_launches(
            [launch(2), launch(2), corrupt, launch(2), launch(2)],
            target_name, code)
        assert seen[3][0][4] is False

    def test_newer_executable(self, target_name, code):
        newer = time.time() + 3600
        seen = assert_same_launches(
            [launch(2), launch(2, executable_timestamp=newer),
             launch(2, executable_timestamp=newer), launch(2)],
            target_name, code)
        assert [s[0][4] for s in seen] == [False, False, False, True]

    def test_smc_launch_then_a_plain_one(self, target_name, smc_code):
        seen = assert_same_launches(
            [launch(0), launch(1), launch(0), launch(0), launch(2),
             launch(0)], target_name, smc_code)
        assert [s[0][0] for s in seen] == [3, 100, 3, 3, "trap", 3]

    def test_trapping_launches(self, target_name, code):
        seen = assert_same_launches(
            [launch(6), launch(6), launch(2)], target_name, code)
        assert [s[0][0] for s in seen[:2]] == ["trap", "trap"]
        # A trapped launch writes nothing back, so the code it
        # translated (``cube``) is not kept either.
        seen = assert_same_launches(
            [launch(2), launch(6), launch(6), launch(7), launch(2)],
            target_name, code)
        assert seen[1][0][0] == "trap"
        assert seen[3][0][4:] == (True, 1)

    def test_failed_write_back(self, target_name, code):
        """A launch that translates ``cube`` but cannot store it keeps
        no translation: the stored vector still lacks ``cube``."""
        seen = assert_same_launches(
            [launch(2), break_writes, launch(7), mend_writes, launch(7),
             launch(7)], target_name, code)
        assert [s[0][-1] for s in seen if s] == [2, 1, 1, 0]

    def test_no_storage(self, target_name, code):
        seen = assert_same_launches(
            [launch(2), launch(2), launch(7)], target_name, code,
            storage=False)
        assert all(not s[0][4] and s[0][5] > 0 for s in seen)


# -- what residency saves -----------------------------------------------------

@pytest.fixture
def loads(monkeypatch):
    """Counts of the bitcode reads and native decodes LLEE makes."""
    counts = {"read_module": 0, "deserialize_native": 0}
    for name in counts:
        original = getattr(manager, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(manager, name, counted)
    return counts


@pytest.mark.parametrize("target_name", TARGETS)
def test_relaunch_reads_and_decodes_nothing(target_name, code, loads):
    storage = InMemoryStorage()
    llee = LLEE(make_target(target_name), storage)
    for _ in range(3):
        llee.run_executable(code, args=[2])
    assert loads == {"read_module": 1, "deserialize_native": 0}
    assert storage.reads == 3  # the vector is still looked up
    other = LLEE(make_target(target_name), storage)
    for _ in range(2):
        assert other.run_executable(code, args=[2]).cache_hit
    assert loads == {"read_module": 2, "deserialize_native": 1}


def test_smc_launch_leaves_nothing_resident(smc_code, loads):
    llee = LLEE(make_target("x86"), InMemoryStorage())
    llee.run_executable(smc_code, args=[1])
    assert llee.run_executable(smc_code, args=[0]).return_value == 3
    assert loads["read_module"] == 2


@pytest.mark.parametrize("target_name", TARGETS)
@pytest.mark.parametrize("drop", ["smc", "replaced", "failed_write_back"])
def test_a_dropped_translation_frees_its_machine(target_name, drop, code,
                                                 smc_code):
    """The machine that ran a resident translation lives and dies with
    it: once a launch has dropped the translation and ``last_simulator``
    has moved on, nothing holds the machine."""
    storage = _Storage()
    llee = LLEE(make_target(target_name), storage)
    program, n = (smc_code, 0) if drop == "smc" else (code, 2)
    llee.run_executable(program, args=[n])
    machine = llee.last_simulator
    llee.run_executable(program, args=[n])
    assert llee.last_simulator is machine  # reset, not rebuilt
    machine = weakref.ref(machine)
    if drop == "replaced":
        offline_translate_o2(llee, storage, program)
        llee.run_executable(program, args=[n])
    else:
        if drop == "smc":
            llee.run_executable(program, args=[1])
        else:
            break_writes(llee, storage, program)
            llee.run_executable(program, args=[7])  # translates ``cube``
            mend_writes(llee, storage, program)
        # Another executable's launch moves ``last_simulator`` on.
        other = code if drop == "smc" else smc_code
        llee.run_executable(other, args=[0])
    gc.collect()
    assert machine() is None


def test_interpreted_smc_launch_that_traps_leaves_nothing_cached(
        smc_code):
    """``run_interpreted`` keeps its decoded module under the same
    rule, also when the launch that rewrote it then trapped."""
    llee = LLEE(make_target("x86"))
    assert llee.run_interpreted(smc_code, args=[0]).return_value == 3
    with pytest.raises(ExecutionTrap):
        llee.run_interpreted(smc_code, args=[2])
    again = llee.run_interpreted(smc_code, args=[0])
    assert (again.return_value, again.cache_hit) == (3, False)


# -- the data image ------------------------------------------------------------

#: Initialized globals of every kind a layout holds: a pointer to
#: another global, a function pointer, a struct and a string (in
#: assembly, because MiniC has no address initializers).  Each launch
#: prints them and then overwrites them, so a relaunch that did not
#: write an initialized global back prints something else.
GLOBALS_PROGRAM = r"""
%struct.Cell = type { int, long }
%count = global int 7
%count_ptr = global int* %count
%op = global int (int)* %twice
%cell = global %struct.Cell { int 3, long 9 }
%greeting = global [6 x sbyte] c"hello\00"

declare void %print_int(int)
declare void %print_long(long)
declare void %print_str(sbyte*)
declare void %print_newline()

int %twice(int %x) {
entry:
        %r = mul int %x, 2
        ret int %r
}

int %thrice(int %x) {
entry:
        %r = mul int %x, 3
        ret int %r
}

int %main(int %n) {
entry:
        %p = load int** %count_ptr
        %c = load int* %p
        %c1 = add int %c, %n
        store int %c1, int* %p
        call void %print_int(int %c1)
        call void %print_newline()
        %first = getelementptr %struct.Cell* %cell, long 0, ubyte 0
        store int* %first, int** %count_ptr
        %f = load int (int)** %op
        %r = call int %f(int 5)
        call void %print_int(int %r)
        call void %print_newline()
        store int (int)* %thrice, int (int)** %op
        %second = getelementptr %struct.Cell* %cell, long 0, ubyte 1
        %l = load long* %second
        %l1 = add long %l, 100
        store long %l1, long* %second
        call void %print_long(long %l1)
        call void %print_newline()
        %s = getelementptr [6 x sbyte]* %greeting, long 0, long 0
        call void %print_str(sbyte* %s)
        call void %print_newline()
        store sbyte 74, sbyte* %s
        ret int %c1
}
"""


@pytest.fixture(scope="module")
def globals_code():
    return write_module(parse_module(GLOBALS_PROGRAM))


def interpreted(n, config):
    def step(llee, storage, code):
        try:
            report = llee.run_interpreted(code, args=[n],
                                          **asdict(config))
        except ExecutionTrap as trap:
            return ("trap", trap.trap_number, str(trap))
        return (report.return_value, report.output, report.steps,
                report.exit_status)
    return step


#: Launches per round of ``every_engine``.
ROUND = len(ExecConfig.all()) + 1


def every_engine(*ns):
    """For each n, a launch under every ``ExecConfig.all()`` entry,
    then a native one."""
    return [step for n in ns
            for step in [interpreted(n, config)
                         for config in ExecConfig.all()] + [launch(n)]]


def results(seen):
    """The result (or "trap") of each launch of ``every_engine``."""
    return [s[0][0] if index % ROUND == ROUND - 1 else s[0]
            for index, s in enumerate(seen)]


@pytest.mark.parametrize("target_name", TARGETS)
class TestOneRecordForEveryEngine:
    """Interpreted and native launches of one executable, interleaved,
    share its record and report what fresh LLEEs do."""

    def test_repeat_and_trapping_launches(self, target_name, code):
        ns = (2, 6, 2, 7, 6, 2)
        seen = assert_same_launches(every_engine(*ns), target_name, code)
        assert results(seen) == [
            {2: 4, 6: "trap", 7: 343}[n] for n in ns for _ in range(ROUND)]

    def test_smc_and_smc_then_trap_launches(self, target_name, smc_code):
        ns = (0, 1, 0, 2, 0)
        seen = assert_same_launches(every_engine(*ns), target_name,
                                    smc_code)
        assert results(seen) == [
            {0: 3, 1: 100, 2: "trap"}[n] for n in ns for _ in range(ROUND)]

    def test_one_read_serves_every_engine(self, target_name, code, loads):
        llee = LLEE(make_target(target_name), InMemoryStorage())
        for step in every_engine(2, 2):
            step(llee, llee.storage, code)
        assert loads["read_module"] == 1


@pytest.mark.parametrize("config", ExecConfig.all(), ids=lambda c: (
    "{0.engine}-tier2={0.tier2}@{0.tier2_threshold}-san={0.sanitize}"
    .format(c)))
def test_interpreted_relaunch_rewrites_initialized_globals(config,
                                                          globals_code):
    seen = assert_same_launches(
        [interpreted(n, config) for n in (1, 0, 1)], "x86", globals_code,
        storage=False)
    assert [s[:2] for s in seen] == [
        (8, "8\n10\n109\nhello\n"), (7, "7\n10\n109\nhello\n"),
        (8, "8\n10\n109\nhello\n")]


@pytest.mark.parametrize("target_name", TARGETS)
def test_native_relaunch_rewrites_initialized_globals(target_name,
                                                      globals_code):
    seen = assert_same_launches(
        [launch(1), launch(0), launch(1)], target_name, globals_code)
    assert [s[0][:2] for s in seen] == [
        (8, "8\n10\n109\nhello\n"), (7, "7\n10\n109\nhello\n"),
        (8, "8\n10\n109\nhello\n")]


PATHS = ("interpreted",) + TARGETS


def launcher(path):
    """An LLEE and its launch method: the fast engine for
    ``interpreted``, else the target's native path over a storage."""
    if path == "interpreted":
        llee = LLEE(make_target("x86"))
        return llee, llee.run_interpreted
    llee = LLEE(make_target(path), InMemoryStorage())
    return llee, llee.run_executable


@pytest.mark.parametrize("path", PATHS)
def test_a_trapping_launch_keeps_the_record(path, code, loads):
    """A first launch that traps keeps the module it read, on either
    path; an interpreted one keeps its decoded state too."""
    _, run = launcher(path)
    with pytest.raises(ExecutionTrap):
        run(code, args=[6])
    report = run(code, args=[2])
    assert loads["read_module"] == 1
    assert report.cache_hit == (path == "interpreted")


@pytest.mark.parametrize("path", PATHS)
def test_a_relaunch_walks_no_initializer(path, globals_code):
    """The first launch lays the image out by walking the five
    initializers; a relaunch applies that layout and walks none."""
    _, run = launcher(path)
    written = []
    for _ in range(3):
        with observe.capture() as obs:
            run(globals_code, args=[1])
        written.append(obs.registry.value("image.initializers_written"))
    assert written == [5, 0, 0]


@pytest.fixture
def engines(monkeypatch):
    """The interpreters ``run_interpreted`` builds, in order."""
    built = []

    def build(*args, **kwargs):
        built.append(Interpreter(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(manager, "Interpreter", build)
    return built


@pytest.mark.parametrize("path", PATHS)
def test_a_registered_function_is_gone_at_the_next_launch(path, code,
                                                          engines):
    """Each launch's image owns its address maps: an address that
    ``register_function`` (self-extending code) gave out in one launch,
    on the image that walked the module or on one that applied its
    layout, has no function in the next launch."""
    llee, run = launcher(path)
    for launch_index in range(3):
        run(code, args=[2])
        image = engines[-1].image if path == "interpreted" \
            else llee.last_simulator.image
        if launch_index:
            assert image.function_at(address) is None
            with pytest.raises(KeyError):
                image.address_of(name)
        name = "generated{0}".format(launch_index)
        function = image.module.create_function(
            name, types.function_of(types.INT, [types.INT]), ["x"])
        IRBuilder(function.add_block("entry")).ret(function.args[0])
        address = image.register_function(function)
        assert image.function_at(address) is function

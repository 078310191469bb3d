"""The trace vocabulary and what the toolchain emits agree, both ways.

Fixed scenarios run under ``observe.capture()``: every
``ExecConfig.all()`` entry, both targets, an ``-O2`` build with
vectorization, cold and warm LLEE launches on ``DiskStorage``, a
corrupt cache blob, offline and profile-guided translation,
``llva.smc.replace``, a handled trap with a tier-2 deopt and a
sanitizer fault.  The observing subcommands run with ``--trace``.
Every span and event they record must validate against
``tracing.VOCABULARY``, and every name in the vocabulary must be
recorded at least once, so that a name nothing emits any more cannot
stay in the table.
"""

import json

import pytest

from repro import observe
from repro.asm import parse_module
from repro.bitcode import write_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import ExecConfig
from repro.ir import verify_module
from repro.llee.manager import LLEE
from repro.llee.pgo import idle_time_reoptimize
from repro.llee.profile import Profile
from repro.llee.storage import DiskStorage
from repro.minic import compile_source
from repro.observe.tracing import VOCABULARY, validate
from repro.targets import make_target
from repro.tools import main
from repro.transforms.pass_manager import optimize

# A helper hot enough to reach tier 2 at the default threshold, and two
# loops the autovectorizer takes.
PROGRAM = """
int a[64];
int work(int n) { return n * 3 + 1; }
int main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 40; i = i + 1) s = s + work(i);
    for (i = 0; i < 64; i = i + 1) { a[i] = i; }
    for (i = 0; i < 64; i = i + 1) { s = s + a[i]; }
    print_int(s);
    print_newline();
    return s % 97;
}
"""

SMC = """
declare void %llva.smc.replace(sbyte*, sbyte*)
int %f(int %x) {
entry:
        %r = add int %x, 1
        ret int %r
}
int %g(int %x) {
entry:
        %r = mul int %x, 50
        ret int %r
}
int %main() {
entry:
        %before = call int %f(int 2)
        %old = cast int (int)* %f to sbyte*
        %new = cast int (int)* %g to sbyte*
        call void %llva.smc.replace(sbyte* %old, sbyte* %new)
        %after = call int %f(int 2)
        %r = add int %after, %before
        ret int %r
}
"""

# A handled divide-by-zero inside a tier-2 function: delivered, then
# the function deoptimizes and is pinned to tier 1.
DEOPT = """
declare void %llva.trap.register(uint, sbyte*)
void %handler(uint %trapno, sbyte* %info) {
entry:
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
        ret int %a
}
"""

USE_AFTER_FREE = """
declare sbyte* %malloc(uint)
declare void %free(sbyte*)
int %main() {
entry:
        %p = call sbyte* %malloc(uint 16)
        call void %free(sbyte* %p)
        %v = load sbyte* %p
        %r = cast sbyte %v to int
        ret int %r
}
"""


TIER2_FORCED = ExecConfig(engine="fast", tier2=True, tier2_threshold=0)


def _parsed(source):
    module = parse_module(source)
    verify_module(module)
    return module


def _captured_scenarios(tmp_path):
    """Yield one capture per fixed scenario."""
    with observe.capture() as obs:
        module = compile_source(PROGRAM, "vocab", optimization_level=2,
                                vectorize=True)
        optimize(module, level=2, verify_each=True)
        idle_time_reoptimize(module, Profile())
    yield obs
    code = write_module(compile_source(PROGRAM, "vocab",
                                       optimization_level=2))
    for config in ExecConfig.all():
        with observe.capture() as obs:
            Interpreter(compile_source(PROGRAM, "vocab"), config) \
                .run("main")
        yield obs
    storage = DiskStorage(str(tmp_path / "cache"))
    for target in ("x86", "sparc"):
        for _launch in ("cold", "warm"):
            with observe.capture() as obs:
                llee = LLEE(make_target(target), storage)
                llee.run_executable(code)
                llee.run_interpreted(code, engine="fast", tier2=True)
            yield obs
    for path in (tmp_path / "cache").glob("*/*"):
        path.write_bytes(b"not a cache entry")
    with observe.capture() as obs:
        LLEE(make_target("x86"), storage).run_executable(code)
        LLEE(make_target("sparc"), DiskStorage(
            str(tmp_path / "offline"))).offline_translate(code)
    yield obs
    smc = write_module(_parsed(SMC))
    with observe.capture() as obs:
        Interpreter(_parsed(SMC), TIER2_FORCED).run("main")
        LLEE(make_target("x86")).run_executable(smc)
    yield obs
    with observe.capture() as obs:
        Interpreter(_parsed(DEOPT), TIER2_FORCED,
                    privileged=True).run("main")
    yield obs
    with observe.capture() as obs:
        with pytest.raises(ExecutionTrap):
            Interpreter(_parsed(USE_AFTER_FREE),
                        ExecConfig(sanitize=True)).run("main")
    yield obs


def _cli_scenarios(tmp_path, capsys):
    """Yield the exported trace records of each observing subcommand."""
    source = tmp_path / "p.c"
    source.write_text(PROGRAM)
    bc, opt = str(tmp_path / "p.bc"), str(tmp_path / "o.bc")
    trace = tmp_path / "t.jsonl"
    # ``run`` exits with main's result, 4396 % 97.
    for argv, status in ((["cc", str(source), "-o", bc, "-O", "2"], 0),
                         (["opt", bc, "-o", opt], 0),
                         (["run", opt, "--tier2"], 31),
                         (["stats", opt, "--target", "x86"], 0),
                         (["profile", opt], 0)):
        assert main(argv + ["--trace", str(trace)]) == status
        capsys.readouterr()
        _header, *records = [json.loads(line) for line
                             in trace.read_text().splitlines()]
        yield [(r["kind"], r["name"], r["attrs"]) for r in records]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``(kind, name, attrs)`` of every span and event recorded."""
    tmp_path = tmp_path_factory.mktemp("vocabulary")
    records = []
    for obs in _captured_scenarios(tmp_path):
        records.extend((r.kind, r.name, r.attrs) for r
                       in obs.tracer.records + list(obs.tracer.events))
    return records


def test_every_record_validates(recorded):
    problems = {problem for kind, name, attrs in recorded
                for problem in validate(kind, name, attrs)}
    assert not problems


def test_every_name_is_recorded(recorded, tmp_path, capsys):
    names = {name for _kind, name, _attrs in recorded}
    for records in _cli_scenarios(tmp_path, capsys):
        for kind, name, attrs in records:
            assert validate(kind, name, attrs) == []
            names.add(name)
    assert set(VOCABULARY) - names == set()

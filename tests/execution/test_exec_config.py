"""ExecConfig: one validation rule at every entry point, and one key.

Every invalid combination of execution settings is rejected with the
same message by ``ExecConfig``, ``Interpreter``,
``LLEE.run_interpreted`` and the CLI.  Every field of ``ExecConfig``
is part of the decoded-module cache key, and ``ExecConfig.all()``
covers it: a field added later cannot be left out of either.
"""

import re
from dataclasses import asdict, fields

import pytest

from repro.bitcode import read_module, write_module
from repro.execution import Interpreter
from repro.execution.config import ExecConfig
from repro.llee import LLEE
from repro.minic import compile_source
from repro.targets import make_target
from repro.tools import main

PROGRAM = r"""
int helper(int x) { return x * x + 1; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 50; i++) {
        if (i % 3 == 0) {
            total += helper(i);
        } else {
            total -= i;
        }
    }
    print_int(total);
    return total & 32767;
}
"""


@pytest.fixture(scope="module")
def object_code():
    return write_module(compile_source(PROGRAM, "exec-config",
                                       optimization_level=2))


@pytest.mark.parametrize("settings, flags", [
    pytest.param({"engine": "reference", "tier2": True}, None,
                 id="reference-tier2"),
    pytest.param({"engine": "fast", "tier2": True, "sanitize": True},
                 ["--tier2", "--sanitize"], id="tier2-sanitize"),
    pytest.param({"engine": "fast", "tier2": True, "tier2_threshold": -1},
                 ["--tier2", "--tier2-threshold", "-1"],
                 id="negative-threshold"),
    pytest.param({"engine": "turbo"}, None, id="unknown-engine"),
])
def test_invalid_combination_rejected_everywhere(
        settings, flags, object_code, tmp_path, capsys):
    with pytest.raises(ValueError) as rejected:
        ExecConfig(**settings)
    message = str(rejected.value)
    exactly = "^{0}$".format(re.escape(message))
    with pytest.raises(ValueError, match=exactly):
        Interpreter(read_module(object_code), **settings)
    with pytest.raises(ValueError, match=exactly):
        LLEE(make_target("x86")).run_interpreted(object_code, **settings)
    if flags is None:
        return
    program = tmp_path / "p.bc"
    program.write_bytes(object_code)
    for command in ("run", "stats"):
        assert main([command, str(program)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "{0}: {1}\n".format(command, message)


def _pairs(field):
    """The pairs of ``ExecConfig.all()`` entries, in both orders, that
    differ in *field* and in no other field."""
    configs = ExecConfig.all()
    return [(a, b) for a in configs for b in configs
            if [f.name for f in fields(ExecConfig)
                if getattr(a, f.name) != getattr(b, f.name)]
            == [field.name]]


def _observed(report):
    return (report.return_value, report.output, report.exit_status,
            report.steps, report.engine, report.sanitized,
            report.tier2_functions_compiled)


@pytest.mark.parametrize("field", fields(ExecConfig),
                         ids=lambda field: field.name)
def test_every_field_keys_the_interp_cache(field, object_code):
    """Running the second config of a pair on an LLEE that ran the
    first misses the interp cache, and runs (and compiles) what a
    fresh LLEE runs; a repeat hits on the fast engine, while the
    reference engine keeps no decoded module."""
    pairs = _pairs(field)
    assert pairs, "no two configs of ExecConfig.all() differ only in " \
        + field.name
    for first, second in pairs:
        llee = LLEE(make_target("x86"))
        llee.run_interpreted(object_code, **asdict(first))
        missed = llee.run_interpreted(object_code, **asdict(second))
        assert not missed.cache_hit, (first, second)
        fresh = LLEE(make_target("x86")).run_interpreted(
            object_code, **asdict(second))
        assert _observed(missed) == _observed(fresh), (first, second)
        again = llee.run_interpreted(object_code, **asdict(second))
        assert again.cache_hit == (second.engine == "fast"), second


def test_unused_threshold_shares_one_entry(object_code):
    """With tier 2 off the threshold is unused: configs that differ
    only there are one config, and one cache entry."""
    assert ExecConfig(tier2_threshold=0) == ExecConfig()
    assert hash(ExecConfig(tier2_threshold=0)) == hash(ExecConfig())
    llee = LLEE(make_target("x86"))
    llee.run_interpreted(object_code, tier2_threshold=0)
    assert llee.run_interpreted(object_code).cache_hit

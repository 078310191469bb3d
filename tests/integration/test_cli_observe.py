"""CLI observability: --trace / --metrics exports, the stats
subcommand, the unified --stats line, and program-argument parsing."""

import io
import json
import os
import sys

import pytest

from repro import observe
from repro.tools import _parse_program_args, main

PROGRAM = """
int square(int x) { return x * x; }
int main() {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 10; i = i + 1) acc = acc + square(i);
    print_int(acc);
    print_newline();
    return acc % 100;
}
"""


@pytest.fixture()
def prog_bc(tmp_path, capsys):
    source = tmp_path / "prog.c"
    source.write_text(PROGRAM)
    bc = tmp_path / "prog.bc"
    assert main(["cc", str(source), "-o", str(bc)]) == 0
    capsys.readouterr()
    return bc


def _capture(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProgramArgs:
    def test_mixed_types(self):
        assert _parse_program_args(["3", "2.5", "hello", "-7"]) == \
            [3, 2.5, "hello", -7]

    def test_string_arg_does_not_raise(self, prog_bc, capsys):
        # Regression: this used to die with an uncaught ValueError
        # from float("hello") before reaching the engine.
        code, _out, err = _capture(
            ["run", str(prog_bc), "hello"], capsys)
        # The engine reports a clean argument-count trap instead.
        assert code == 128 + 6
        assert "trap" in err

    def test_string_arg_for_int_parameter_rejected(self, tmp_path,
                                                   capsys):
        source = tmp_path / "takesint.c"
        source.write_text("int main(int n) { return n; }")
        bc = tmp_path / "takesint.bc"
        assert main(["cc", str(source), "-o", str(bc)]) == 0
        capsys.readouterr()
        code, _out, err = _capture(["run", str(bc), "oops"], capsys)
        assert code == 2
        assert "'oops'" in err and "is not a number" in err
        # Same guard on the stats subcommand.
        code, _out, err = _capture(["stats", str(bc), "oops"], capsys)
        assert code == 2
        assert "is not a number" in err

    @pytest.mark.parametrize("value", ["2147483648", "-2147483649",
                                       str(1 << 70)])
    @pytest.mark.parametrize("flags", [["--engine", "reference"],
                                       ["--tier2", "--tier2-threshold", "0"],
                                       ["--target", "x86"]])
    def test_out_of_range_arg_for_int_parameter_rejected(
            self, tmp_path, capsys, value, flags):
        # Regression: a value wider than the parameter reached the
        # engines, where a widening cast read it differently in tier 2
        # and the x86 argument store raised OverflowError.
        source = tmp_path / "widens.c"
        source.write_text("int main(int n) { long w = n; "
                          "print_long(w); return 0; }")
        bc = tmp_path / "widens.bc"
        assert main(["cc", str(source), "-o", str(bc)]) == 0
        capsys.readouterr()
        code, out, err = _capture(["run", str(bc), value] + flags, capsys)
        assert code == 2
        assert out == ""
        assert "({0}) is out of range".format(value) in err
        assert "of type int" in err
        code, out, _err = _capture(["run", str(bc), "2147483647"] + flags,
                                   capsys)
        assert code == 0 and out == "2147483647"

    def test_unwritable_trace_path_is_a_clean_error(self, tmp_path,
                                                    capsys):
        source = tmp_path / "ok.c"
        source.write_text("int main() { return 0; }")
        bc = tmp_path / "ok.bc"
        assert main(["cc", str(source), "-o", str(bc)]) == 0
        capsys.readouterr()
        code, _out, err = _capture(
            ["run", str(bc),
             "--trace", "/nonexistent/dir/trace.json"], capsys)
        assert code == 1
        assert "cannot write observability export" in err
        assert not observe.enabled()


class TestUnifiedStats:
    def test_interpreter_and_jit_share_one_format(self, prog_bc,
                                                  capsys):
        _code, _out, interp_err = _capture(
            ["run", str(prog_bc), "--stats"], capsys)
        _code, _out, jit_err = _capture(
            ["run", str(prog_bc), "--target", "x86", "--stats"],
            capsys)
        assert interp_err.startswith("[reference] result=85 ")
        assert jit_err.startswith("[x86] result=85 ")
        # One shape: space-separated key=value registry metrics.
        for line in (interp_err, jit_err):
            body = line.split("] ", 1)[1]
            for token in body.split():
                assert "=" in token, line
        assert "run.steps=" in interp_err
        assert "run.cycles=" in jit_err
        assert "jit.functions_translated=" in jit_err

    def test_observability_off_after_run(self, prog_bc, capsys):
        _capture(["run", str(prog_bc), "--stats"], capsys)
        assert not observe.enabled()


class TestTraceExport:
    def test_chrome_trace_spans_translate_and_execute(self, prog_bc,
                                                      tmp_path,
                                                      capsys):
        trace = tmp_path / "t.json"
        code, out, _err = _capture(
            ["run", str(prog_bc), "--target", "x86",
             "--trace", str(trace)], capsys)
        assert out.strip() == "285" and code == 85
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        by_name = {}
        for event in events:
            # Spans are complete events; the cache decisions are
            # instant events.
            assert event["ph"] == ("i" if event["name"] == "llee.cache"
                                   else "X"), event
            assert event.get("dur", 0) >= 0
            by_name.setdefault(event["name"], []).append(event)
        assert "jit.translate" in by_name
        assert "native.run" in by_name
        assert "cli.run" in by_name
        # Nesting: execution happens inside the cli.run span, and the
        # on-demand translations happen while the program runs.
        cli = by_name["cli.run"][0]
        native = by_name["native.run"][0]
        assert cli["ts"] <= native["ts"]
        assert native["ts"] + native["dur"] <= cli["ts"] + cli["dur"] \
            + 1.0
        assert any(e["args"].get("parent_span") for e in events)

    def test_jsonl_trace(self, prog_bc, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        _capture(["run", str(prog_bc), "--trace", str(trace)], capsys)
        header, *records = [json.loads(line)
                            for line in trace.read_text().splitlines()]
        assert header == {"trace": observe.TRACE_FORMAT_VERSION,
                          "dropped": 0}
        assert any(r["name"] == "interp.run" for r in records)
        assert all({"span_id", "start", "end", "attrs"} <= set(r)
                   for r in records if r["kind"] == "span")

    def test_cc_trace_covers_frontend(self, tmp_path, capsys):
        source = tmp_path / "p.c"
        source.write_text(PROGRAM)
        trace = tmp_path / "cc.json"
        metrics = tmp_path / "cc-metrics.json"
        code, _o, _e = _capture(
            ["cc", str(source), "-o", str(tmp_path / "p.bc"),
             "-O", "2", "--trace", str(trace),
             "--metrics", str(metrics)], capsys)
        assert code == 0
        names = {event["name"] for event
                 in json.loads(trace.read_text())["traceEvents"]}
        assert {"minic.lex", "minic.parse", "minic.sema",
                "minic.codegen", "pass.run"} <= names
        snapshot = json.loads(metrics.read_text())
        pass_runs = [c for c in snapshot["counters"]
                     if c["name"] == "pass.runs"]
        assert pass_runs and all("pass" in c["labels"]
                                 for c in pass_runs)


class TestStatsCommand:
    def test_interpreter_report(self, prog_bc, capsys):
        code, out, _err = _capture(
            ["stats", str(prog_bc)], capsys)
        assert code == 0
        assert "== execution ==" in out
        assert "result=85" in out
        assert "run.steps" in out
        assert "top opcodes:" in out
        assert "== hottest blocks ==" in out
        assert "== llee cache ==" in out

    def test_jit_report_with_cache(self, prog_bc, tmp_path, capsys):
        cache = str(tmp_path / "llee-cache")
        code, out, _err = _capture(
            ["stats", str(prog_bc), "-O", "2", "--target", "x86",
             "--cache", cache], capsys)
        assert code == 0
        assert "== optimization passes ==" in out
        assert "mem2reg" in out
        assert "== translation (Table 2 style) ==" in out
        assert "expansion=" in out
        assert "expansion histogram" in out
        assert "misses=1" in out
        # Second run hits the offline cache (Figure 3 behaviour).
        code, out, _err = _capture(
            ["stats", str(prog_bc), "-O", "2", "--target", "x86",
             "--cache", cache], capsys)
        assert code == 0
        assert "hits=1" in out

    def test_load_pretty_prints_exported_metrics(self, prog_bc,
                                                 tmp_path, capsys):
        metrics = tmp_path / "m.json"
        _capture(["run", str(prog_bc), "--metrics", str(metrics)],
                 capsys)
        code, out, _err = _capture(
            ["stats", "--load", str(metrics)], capsys)
        assert code == 0
        assert "run.steps{engine=reference}" in out

    def test_stats_requires_input(self, capsys):
        code, _out, err = _capture(["stats"], capsys)
        assert code == 2
        assert "required" in err

    def test_stats_json(self, prog_bc, capsys):
        code, out, err = _capture(
            ["stats", str(prog_bc), "--json"], capsys)
        assert code == 0
        document = json.loads(out)          # stdout is pure JSON...
        assert "285" in err                 # ...program output moved
        assert document["command"] == "stats"
        assert document["result"] == 85
        names = {c["name"] for c in document["metrics"]["counters"]}
        assert "run.steps" in names
        assert document["hottest_blocks"]


class TestProfileCommand:
    def test_default_report_covers_tiers_and_lifecycle(self, prog_bc,
                                                       capsys):
        code, out, _err = _capture(
            ["profile", str(prog_bc), "--tier2-threshold", "2"],
            capsys)
        assert code == 0
        assert "== run ==" in out
        assert "tier1_steps=" in out and "tier2_steps=" in out
        assert "== tiers ==" in out
        assert "== hottest functions ==" in out
        assert "square" in out
        assert "== jit lifecycle ==" in out
        assert "compile_seconds=" in out
        assert not observe.enabled()

    def test_json_totals_match_engine_accounting(self, prog_bc,
                                                 capsys):
        code, out, _err = _capture(
            ["profile", str(prog_bc), "--tier2-threshold", "2",
             "--json"], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["command"] == "profile"
        # The acceptance contract: profiler attribution reconciles
        # exactly with the engine's own step accounting.
        assert document["tier2_steps"] == \
            document["engine_tier2_steps"]
        assert document["tier1_steps"] + document["tier2_steps"] == \
            document["steps"]
        assert sum(t["steps"] for t in document["tiers"].values()) \
            == document["steps"]
        assert document["events"]["tier2.promote"] == \
            sum(document["promotion_reasons"].values()) == \
            document["tier2"]["functions_compiled"]

    def test_no_tier2_profiles_pure_tier1(self, prog_bc, capsys):
        code, out, _err = _capture(
            ["profile", str(prog_bc), "--no-tier2", "--json"], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["tier2_steps"] == 0
        assert document["tier1_steps"] == document["steps"] > 0
        assert "tier2" not in document

    def test_speedscope_export(self, prog_bc, tmp_path, capsys):
        scope = tmp_path / "profile.speedscope.json"
        code, _out, _err = _capture(
            ["profile", str(prog_bc), "--tier2-threshold", "2",
             "--speedscope", str(scope)], capsys)
        assert code == 0
        document = json.loads(scope.read_text())
        assert document["$schema"].endswith(
            "file-format-schema.json")
        profile_entry = document["profiles"][0]
        assert profile_entry["type"] == "evented"
        opens = sum(1 for e in profile_entry["events"]
                    if e["type"] == "O")
        closes = sum(1 for e in profile_entry["events"]
                     if e["type"] == "C")
        assert opens == closes > 0
        assert document["shared"]["frames"]


class TestFlightRecordExport:
    """The JIT lifecycle is part of the ``--trace`` export; the
    separate ring-buffer export and its flag are gone."""

    def test_run_writes_validated_jsonl(self, prog_bc, tmp_path,
                                        capsys):
        trace = tmp_path / "t.jsonl"
        code, _out, _err = _capture(
            ["run", str(prog_bc), "--tier2",
             "--tier2-threshold", "2", "--trace", str(trace)],
            capsys)
        assert code == 85
        header, *records = [json.loads(line)
                            for line in trace.read_text().splitlines()]
        assert header == {"trace": observe.TRACE_FORMAT_VERSION,
                          "dropped": 0}
        for record in records:
            assert observe.validate(record["kind"], record["name"],
                                    record["attrs"]) == [], record
        # A promotion is on the timeline before its compile span ends.
        names = [(r["kind"], r["name"], r["attrs"].get("function"))
                 for r in records]
        promoted = [f for kind, name, f in names
                    if name == "tier2.promote"]
        assert promoted
        for function in promoted:
            assert names.index(("event", "tier2.promote", function)) < \
                names.index(("span", "tier2.compile", function))
        assert ("span", "interp.run", None) in names

    def test_ring_buffer_flag_is_gone(self, capsys):
        for command in ("run", "stats", "profile"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0
            usage = capsys.readouterr().out
            assert "--trace" in usage and "flight" not in usage


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away (``repro ... | head -1``)."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["profile", "stats"])
    def test_report_into_closed_pipe_exits_quietly(self, command, prog_bc,
                                                   capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main([command, str(prog_bc)]) == 1
        # Later writes, and the exit flush, go to os.devnull.
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert capsys.readouterr().err == ""

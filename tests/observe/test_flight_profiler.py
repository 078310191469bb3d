"""Flight recorder + step profiler: unit behaviour, engine parity,
and the exact-attribution contract (``repro profile`` totals must
reconcile with the engines' own ``tier1_steps``/``tier2_steps``)."""

import io
import json

from repro import observe
from repro.execution import Interpreter
from repro.minic import compile_source
from repro.observe import FlightRecorder, StepProfiler, validate_event

PROGRAM = """
int work(int n) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) acc = acc + i % 7;
    return acc;
}
int main() {
    int j;
    int total;
    total = 0;
    for (j = 0; j < 40; j = j + 1) total = total + work(25);
    return total % 97;
}
"""


def _module():
    return compile_source(PROGRAM, "flightprog.mc")


def _run(engine, tier2=False, profiler=None):
    module = _module()
    with observe.capture(flight=True) as obs:
        interpreter = Interpreter(module, engine=engine, tier2=tier2,
                                  tier2_threshold=1, profiler=profiler)
        result = interpreter.run("main")
    return result, obs, interpreter


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        recorder = FlightRecorder(capacity=4)
        for n in range(10):
            recorder.record("tier2.promote", function="f%d" % n,
                            reason="invocations")
        assert len(recorder.events()) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        # Oldest fell off: the survivors are the last four.
        assert [e["function"] for e in recorder.events()] == \
            ["f6", "f7", "f8", "f9"]
        assert recorder.header()["dropped"] == 6

    def test_events_filter_by_type_and_prefix(self):
        recorder = FlightRecorder()
        recorder.record("run.begin", engine="fast", entry="main")
        recorder.record("tier2.promote", function="f",
                        reason="invocations")
        recorder.record("tier2.compile.begin", function="f")
        assert len(recorder.events("tier2.")) == 2
        assert len(recorder.events("tier2.promote")) == 1
        assert recorder.counts() == {"run.begin": 1,
                                     "tier2.compile.begin": 1,
                                     "tier2.promote": 1}

    def test_validate_event_rejects_malformed(self):
        recorder = FlightRecorder()
        good = recorder.record("tier2.deopt", function="f",
                               reason="trap")
        assert validate_event(good) == []
        bad_type = recorder.record("tier9.warp", function="f")
        assert any("unknown event type" in p
                   for p in validate_event(bad_type))
        missing = recorder.record("tier2.deopt", function="f")
        assert any("missing fields" in p
                   for p in validate_event(missing))
        # Format v6 dropped the hosted native tier's events.
        removed = recorder.record("tier3.promote", function="f",
                                  step_credit=0)
        assert any("unknown event type" in p
                   for p in validate_event(removed))
        assert len(recorder.validate()) == 3

    def test_jsonl_round_trip(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("run.begin", engine="fast", entry="main")
        recorder.record("run.end", engine="fast", steps=7)
        path = tmp_path / "flight.jsonl"
        recorder.write_jsonl(str(path))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["flight"] == 7
        assert lines[0]["recorded"] == 2
        assert [e["type"] for e in lines[1:]] == ["run.begin",
                                                  "run.end"]
        # Sequence numbers and timestamps are monotonic.
        assert lines[1]["seq"] < lines[2]["seq"]
        assert lines[1]["ts"] <= lines[2]["ts"]

    def test_autodump_fires_once(self):
        recorder = FlightRecorder()
        recorder.record("san.fault", kind="heap-overflow", detail="x")
        first, second = io.StringIO(), io.StringIO()
        recorder.autodump("sanitizer fault", stream=first)
        recorder.autodump("sanitizer fault", stream=second)
        assert "flight recorder (sanitizer fault)" in first.getvalue()
        assert "san.fault" in first.getvalue()
        assert second.getvalue() == ""


class TestStepProfiler:
    def test_nested_attribution(self):
        profiler = StepProfiler()
        profiler.push(0, "main", "tier1")
        profiler.push(10, "callee", "tier1")   # main ran 0..10
        profiler.pop(25)                       # callee ran 10..25
        profiler.flush(30)                     # main resumed 25..30
        rows = {(r["function"], r["tier"]): r["steps"]
                for r in profiler.function_rows()}
        assert rows == {("main", "tier1"): 15, ("callee", "tier1"): 15}
        assert profiler.total_steps() == 30

    def test_tier2_rows_count_as_tier2_steps(self):
        profiler = StepProfiler()
        profiler.push(0, "main", "tier1")
        profiler.push(40, "callee", "tier2")   # main ran 0..40
        profiler.pop(100)                      # callee ran 40..100
        profiler.flush(110)                    # main resumed 100..110
        assert profiler.tier1_steps() == 50
        assert profiler.tier2_steps() == 60
        assert profiler.tier_totals()["tier2"]["steps"] == 60

    def test_speedscope_document_is_balanced(self):
        profiler = StepProfiler(record_stack=True)
        profiler.push(0, "main", "tier1")
        profiler.push(5, "callee", "tier2")
        profiler.pop(9)
        profiler.flush(12)
        doc = profiler.speedscope_document("unit test")
        events = doc["profiles"][0]["events"]
        opens = [e for e in events if e["type"] == "O"]
        closes = [e for e in events if e["type"] == "C"]
        assert len(opens) == len(closes) == 2
        assert doc["shared"]["frames"]
        at_values = [e["at"] for e in events]
        assert at_values == sorted(at_values)


class TestEngineParity:
    """Satellite: the same workload observed on every engine agrees on
    results and on the shared metric vocabulary, and every flight
    event any engine emits passes schema validation."""

    def test_results_and_shared_metrics_agree(self):
        runs = {
            "reference": _run("reference"),
            "fast": _run("fast"),
            "tier2": _run("fast", tier2=True),
        }
        values = {name: run[0].return_value
                  for name, run in runs.items()}
        assert len(set(values.values())) == 1, values
        steps = {name: run[0].steps for name, run in runs.items()}
        assert len(set(steps.values())) == 1, steps
        # run.steps (summed over labels) agrees everywhere too.
        for name, (_result, obs, _interp) in runs.items():
            total = sum(v for metric, _l, v in obs.registry.counters()
                        if metric == "run.steps")
            assert total == steps[name], name

    def test_flight_events_validate_on_every_engine(self):
        for kwargs in ({"engine": "reference"}, {"engine": "fast"},
                       {"engine": "fast", "tier2": True}):
            _result, obs, _interp = _run(**kwargs)
            assert obs.flight is not None
            assert obs.flight.validate() == []

    def test_jit_lifecycle_is_replayable_from_flight(self):
        _result, obs, interpreter = _run("fast", tier2=True)
        counts = obs.flight.counts()
        assert counts["run.begin"] == 1
        assert counts["run.end"] == 1
        stats = interpreter.tier2.stats
        assert counts["tier2.compile.begin"] == \
            counts["tier2.compile.end"]
        assert counts["tier2.compile.end"] >= \
            stats.functions_compiled > 0
        assert counts.get("tier2.promote", 0) >= 1
        # Ordering: a function's promotion precedes its compile end.
        events = obs.flight.events()
        first_promote = next(i for i, e in enumerate(events)
                             if e["type"] == "tier2.promote")
        first_compiled = next(i for i, e in enumerate(events)
                              if e["type"] == "tier2.compile.end")
        assert first_promote < first_compiled

    def test_profiler_totals_match_engine_accounting(self):
        profiler = StepProfiler()
        result, _obs, interpreter = _run("fast", tier2=True,
                                         profiler=profiler)
        assert profiler.total_steps() == result.steps
        assert profiler.tier2_steps() == interpreter.tier2_steps
        assert profiler.tier1_steps() == \
            result.steps - interpreter.tier2_steps
        tiers = profiler.tier_totals()
        assert "tier1" in tiers
        assert profiler.tier2_steps() > 0
        # The hot helper dominates and runs in tier 2.
        hottest = profiler.function_rows()[0]
        assert hottest["function"] == "work"
        assert hottest["tier"] == "tier2"

    def test_profiler_matches_reference_engine_too(self):
        profiler = StepProfiler()
        result, _obs, _interp = _run("reference", profiler=profiler)
        assert profiler.total_steps() == result.steps
        assert profiler.tier2_steps() == 0

"""The repro.observe subsystem: metrics registry, span tracer and its
events, exports, and the zero-overhead-when-disabled contract."""

import gc
import io
import json

import pytest

from repro import observe
from repro.observe.metrics import Histogram, MetricsRegistry
from repro.observe.tracing import (EVENT_CAPACITY, NULL_SPAN,
                                   TRACE_FORMAT_VERSION, Tracer, validate)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        registry.inc("hits", 1, target="x86")
        registry.set_gauge("depth", 7)
        assert registry.value("hits") == 3
        assert registry.value("hits", target="x86") == 1
        assert registry.value("depth") == 7
        assert registry.value("never-written") == 0

    def test_histogram_stats(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.minimum == 0.5
        assert histogram.maximum == 20.0
        assert histogram.mean == pytest.approx(7.5)
        assert histogram.bucket_counts == [1, 1, 1]

    def test_label_values(self):
        registry = MetricsRegistry()
        registry.inc("pass.runs", 2, **{"pass": "gvn"})
        registry.inc("pass.runs", 1, **{"pass": "dce"})
        assert dict(registry.label_values("pass.runs", "pass")) == {
            "gvn": 2, "dce": 1}

    def test_histogram_buckets_are_cumulative(self):
        # Regression: to_dict used to drop empty buckets *before*
        # accumulating, producing non-monotonic Prometheus-style `le`
        # counts (a bucket could report fewer observations than a
        # smaller bound).
        histogram = Histogram(bounds=(1.0, 2.0, 5.0, 10.0))
        for value in (0.5, 0.7, 4.0, 4.5, 4.9):
            histogram.observe(value)
        buckets = histogram.to_dict()["buckets"]
        # Cumulative: le=1 sees 2, le=2 still sees 2 (bucket itself is
        # empty but must not disappear or reset), le=5 sees all 5.
        assert [(b["le"], b["count"]) for b in buckets] == [
            (1.0, 2), (2.0, 2), (5.0, 5), (10.0, 5), ("+Inf", 5)]
        counts = [b["count"] for b in buckets]
        assert counts == sorted(counts)
        assert buckets[-1] == {"le": "+Inf", "count": histogram.count}

    def test_histogram_overflow_lands_in_inf_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(100.0)
        buckets = histogram.to_dict()["buckets"]
        assert buckets == [{"le": "+Inf", "count": 1}]

    def test_empty_histogram_has_no_buckets(self):
        assert Histogram(bounds=(1.0,)).to_dict()["buckets"] == []

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.inc("a", 1, kind="x")
        registry.observe("lat", 0.25)
        snapshot = json.loads(registry.to_json())
        assert snapshot["counters"] == [
            {"name": "a", "labels": {"kind": "x"}, "value": 1}]
        assert snapshot["histograms"][0]["name"] == "lat"
        assert snapshot["histograms"][0]["value"]["count"] == 1


class TestTracer:
    def test_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", phase="compile"):
            with tracer.span("inner") as inner:
                inner.set(changed=True)
        inner_rec, outer_rec = tracer.records
        assert inner_rec.name == "inner"
        assert inner_rec.parent_id == outer_rec.span_id
        assert inner_rec.attrs == {"changed": True}
        assert outer_rec.parent_id is None
        assert outer_rec.end >= inner_rec.end

    def test_exception_marks_span_and_unwinds_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("boom"):
                    raise ValueError("no")
        assert [r.name for r in tracer.records] == ["boom", "outer"]
        assert tracer.records[0].attrs["error"] == "ValueError"
        assert tracer._stack == []

    def test_chrome_trace_format(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child", key="value"):
                pass
        trace = tracer.to_chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["parent", "child"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert {"ts", "pid", "tid", "cat", "args"} <= set(event)
        assert events[1]["args"]["key"] == "value"
        assert events[1]["args"]["parent_span"] == events[0]["args"] \
            .get("parent_span", 1)

    def test_write_formats_by_suffix(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tracer.write(str(chrome))
        tracer.write(str(jsonl))
        assert "traceEvents" in json.loads(chrome.read_text())
        lines = [json.loads(line)
                 for line in jsonl.read_text().splitlines()]
        assert lines[0] == {"trace": TRACE_FORMAT_VERSION, "dropped": 0}
        assert lines[1]["name"] == "only"


class TestTracerEvents:
    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer()
        for n in range(EVENT_CAPACITY + 6):
            tracer.event("tier2.promote", function="f%d" % n,
                         reason="invocations")
        assert len(tracer.events) == EVENT_CAPACITY
        assert tracer.events_recorded == EVENT_CAPACITY + 6
        assert tracer.events_dropped == 6
        # Oldest fell off: the survivors are the newest.
        assert tracer.events[0].attrs["function"] == "f6"
        assert tracer.events[-1].attrs["function"] == \
            "f%d" % (EVENT_CAPACITY + 5)
        assert tracer.header()["dropped"] == 6

    def test_event_names_and_parent_span(self):
        tracer = Tracer()
        tracer.event("tier2.promote", function="f", reason="steps")
        with tracer.span("tier2.compile", function="f") as span:
            tracer.event("tier2.pin", function="f", reason="opcode mbr")
            span.set(kind="error", warm=False)
        first, second = tracer.events
        assert [first.name, second.name] == ["tier2.promote",
                                             "tier2.pin"]
        assert first.parent_id is None
        assert second.parent_id == tracer.records[0].span_id
        assert first.ts <= second.ts <= tracer.records[0].end

    def test_validate_rejects_malformed(self):
        assert validate("event", "tier2.deopt",
                        {"function": "f", "reason": "trap"}) == []
        assert validate("span", "tier2.compile",
                        {"function": "f", "kind": "dispatch",
                         "warm": False}) == []
        assert "unknown event" in validate("event", "tier9.warp", {})[0]
        assert "lacks ['reason']" in validate(
            "event", "tier2.deopt", {"function": "f"})[0]
        assert "is a span, not a event" in validate(
            "event", "tier2.compile",
            {"function": "f", "kind": "dispatch", "warm": False})[0]
        assert validate("event", "tier2.deopt",
                        {"function": "f", "reason": object()})
        # Begin/end pairs became spans: their names are gone.
        for removed in ("run.begin", "tier2.compile.end",
                        "jit.translate.begin"):
            assert validate("event", removed, {})

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.event("tier2.promote", function="f", reason="steps")
        with tracer.span("interp.run", entry="main"):
            tracer.event("trap.deliver", engine="fast", trap=2,
                         handler="h")
        tracer.event("tier2.deopt", function="f", reason="trap")
        path = tmp_path / "trace.jsonl"
        tracer.write(str(path))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0] == {"trace": TRACE_FORMAT_VERSION, "dropped": 0}
        # Time order: a span at its end, an event at its timestamp.
        assert [(r["kind"], r["name"]) for r in lines[1:]] == [
            ("event", "tier2.promote"), ("event", "trap.deliver"),
            ("span", "interp.run"), ("event", "tier2.deopt")]
        assert lines[2]["parent_id"] == lines[3]["span_id"]
        assert lines[2]["attrs"] == {"engine": "fast", "trap": 2,
                                     "handler": "h"}

    def test_chrome_trace_marks_events_as_instants(self):
        tracer = Tracer()
        with tracer.span("interp.run", entry="main"):
            tracer.event("tier2.promote", function="f", reason="steps")
        trace = tracer.to_chrome_trace()
        phases = {e["name"]: e["ph"] for e in trace["traceEvents"]}
        assert phases == {"interp.run": "X", "tier2.promote": "i"}
        instant = trace["traceEvents"][1]
        assert instant["args"]["parent_span"] == 1
        assert trace["otherData"] == {"trace": TRACE_FORMAT_VERSION,
                                      "dropped": 0}

    def test_autodump_fires_once(self):
        tracer = Tracer()
        tracer.event("san.fault", kind="heap-overflow", detail="x")
        first, second = io.StringIO(), io.StringIO()
        tracer.autodump("sanitizer fault", stream=first)
        tracer.autodump("sanitizer fault", stream=second)
        assert "trace events (sanitizer fault)" in first.getvalue()
        assert "san.fault" in first.getvalue()
        assert second.getvalue() == ""
        tracer.reset()
        tracer.autodump("again", stream=second)
        assert "trace events (again): last 0 of 0" in second.getvalue()


class TestGlobalSwitchboard:
    def test_disabled_by_default_everything_is_noop(self):
        assert not observe.enabled()
        assert observe._record_collection not in gc.callbacks
        assert observe.span("x") is NULL_SPAN
        observe.counter("x")  # must not record
        observe.histogram("h", 1.0)
        observe.event("tier2.promote", function="f", reason="steps")
        assert observe.registry().value("x") == 0
        assert observe.registry().histogram("h") is None
        assert not observe.tracer().events

    def test_collections_are_spans_while_observing(self):
        observe.configure()
        try:
            assert observe._record_collection in gc.callbacks
            with observe.capture() as obs:
                with observe.span("outer"):
                    gc.collect()
            assert observe._record_collection in gc.callbacks
        finally:
            observe.disable()
        assert observe._record_collection not in gc.callbacks
        outer, = [r for r in obs.tracer.records if r.name == "outer"]
        assert any(r.name == "gc.collect" and r.attrs["generation"] == 2
                   and r.attrs["collected"] >= 0
                   and r.parent_id == outer.span_id
                   and outer.start <= r.start <= r.end <= outer.end
                   for r in obs.tracer.records)

    def test_capture_scopes_enablement(self):
        assert not observe.enabled()
        with observe.capture() as obs:
            assert observe.enabled()
            observe.counter("inside", 5)
            with observe.span("s"):
                pass
        assert not observe.enabled()
        assert obs.registry.value("inside") == 5
        assert [r.name for r in obs.tracer.records] == ["s"]
        # The global registry is back to the (empty) default.
        assert observe.registry().value("inside") == 0

    def test_capture_restores_prior_capture(self):
        with observe.capture() as outer:
            observe.counter("outer")
            with observe.capture() as inner:
                observe.counter("inner")
            observe.counter("outer")
        assert outer.registry.value("outer") == 2
        assert outer.registry.value("inner") == 0
        assert inner.registry.value("inner") == 1


class TestPipelineIntegration:
    def test_pass_manager_reports_through_registry(self):
        from repro.minic import compile_source
        from repro.transforms.pass_manager import optimize

        module = compile_source(
            "int main() { int x; x = 6; return x * 7; }")
        with observe.capture() as obs:
            report = optimize(module, level=2)
        # The per-run report is a view over its own registry...
        assert report.stats["mem2reg"].runs == 1
        assert report.total_changes >= 1
        # ...and the same records were mirrored globally.
        assert obs.registry.value("pass.runs",
                                  **{"pass": "mem2reg"}) == 1
        names = {r.name for r in obs.tracer.records}
        assert "pass.run" in names and "passes.pipeline" in names

    def test_jit_records_expansion_histogram(self):
        from helpers import build_factorial
        from repro.llee.jit import FunctionJIT
        from repro.targets import make_target

        module = build_factorial()
        with observe.capture() as obs:
            FunctionJIT(module, make_target("x86")).translate_all()
        assert obs.registry.value("jit.functions_translated",
                                  target="x86") == 2
        histogram = obs.registry.histogram("jit.expansion_ratio",
                                           target="x86")
        assert histogram is not None and histogram.count == 2
        assert histogram.mean > 1.0

    def test_llee_cache_counters(self):
        from helpers import build_factorial
        from repro.bitcode import write_module
        from repro.llee.manager import LLEE
        from repro.llee.storage import InMemoryStorage
        from repro.targets import make_target

        code = write_module(build_factorial())
        llee = LLEE(make_target("x86"), InMemoryStorage())
        with observe.capture() as obs:
            llee.run_executable(code)
            llee.run_executable(code)
        assert obs.registry.value("llee.cache.miss", target="x86") == 1
        assert obs.registry.value("llee.cache.hit", target="x86") == 1
        assert obs.registry.value("llee.cache.store", target="x86") == 1

    def test_interpreter_opcode_histogram(self):
        from helpers import build_factorial
        from repro.execution import Interpreter

        module = build_factorial()
        with observe.capture() as obs:
            result = Interpreter(module).run()
        assert result.return_value == 3628800
        assert obs.registry.value("run.steps",
                                  engine="reference") == result.steps
        opcodes = dict(obs.registry.label_values("interp.opcode",
                                                 "opcode"))
        assert opcodes.get("call", 0) >= 10
        assert sum(opcodes.values()) == result.steps

    def test_minic_compile_spans(self):
        from repro.minic import compile_source

        with observe.capture() as obs:
            compile_source("int main() { return 41; }",
                           optimization_level=1)
        names = [r.name for r in obs.tracer.records]
        for expected in ("minic.lex", "minic.parse", "minic.sema",
                         "minic.codegen", "minic.verify",
                         "minic.compile"):
            assert expected in names, names

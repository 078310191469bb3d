"""Step profiler: unit behaviour, engine parity of the trace, and the
exact-attribution contract (``repro profile`` totals must reconcile
with the engines' own ``tier1_steps``/``tier2_steps``)."""

from repro import observe
from repro.execution import Interpreter
from repro.minic import compile_source
from repro.observe import StepProfiler, validate

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
    return compile_source(PROGRAM, "profprog.mc")


def _run(engine, tier2=False, profiler=None):
    module = _module()
    with observe.capture() as obs:
        interpreter = Interpreter(module, engine=engine, tier2=tier2,
                                  tier2_threshold=1, profiler=profiler)
        result = interpreter.run("main")
    return result, obs, interpreter


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
    """The same workload observed on every engine agrees on results and
    on the shared metric vocabulary, and every span and event any
    engine emits validates against the trace vocabulary."""

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

    def test_events_validate_on_every_engine(self):
        for kwargs in ({"engine": "reference"}, {"engine": "fast"},
                       {"engine": "fast", "tier2": True}):
            result, obs, _interp = _run(**kwargs)
            records = obs.tracer.records + list(obs.tracer.events)
            assert records
            for record in records:
                assert validate(record.kind, record.name,
                                record.attrs) == [], record
            (run,) = [r for r in obs.tracer.records
                      if r.name == "interp.run"]
            assert run.attrs["steps"] == result.steps

    def test_jit_lifecycle_is_replayable_from_trace(self):
        _result, obs, interpreter = _run("fast", tier2=True)
        stats = interpreter.tier2.stats
        compiles = [r for r in obs.tracer.records
                    if r.name == "tier2.compile"]
        promotions = [e for e in obs.tracer.events
                      if e.name == "tier2.promote"]
        assert len(compiles) == stats.functions_compiled > 0
        assert all(r.attrs["kind"] == "dispatch" for r in compiles)
        # Each function's promotion comes before its compile ends.
        assert [e.attrs["function"] for e in promotions] == \
            [r.attrs["function"] for r in compiles]
        for promotion, compile_ in zip(promotions, compiles):
            assert promotion.ts <= compile_.start <= compile_.end
            assert promotion.parent_id == compile_.parent_id

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

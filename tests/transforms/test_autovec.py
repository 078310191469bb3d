"""The loop autovectorizer: canonical-loop recognition, the rejection
taxonomy, bit-exact results against the scalar build, and the
``vec.*`` / ``autovec.loop`` observability surface."""

import pytest

from repro import observe
from repro.execution import Interpreter
from repro.minic import compile_source
from repro.transforms.autovec import VECTOR_LANES, LoopAutovectorizer

# Two canonical loops, one per function so each gets a dedicated
# preheader (the function entry block): a contiguous fill and an
# in-order reduction.
_CANONICAL = """
double a[100];
int fill() {
  int i;
  for (i = 0; i < 100; i = i + 1) { a[i] = 2.5; }
  return 0;
}
int total() {
  int i; double s = 0.0;
  for (i = 0; i < 100; i = i + 1) { s = s + a[i]; }
  return (int)s;
}
int main() { fill(); return total(); }
"""

#: source -> the one rejection reason its single loop must surface.
_REJECTIONS = {
    "non-unit-stride": """
int main() {
  double a[100]; int i;
  for (i = 0; i < 100; i = i + 2) { a[i] = 2.5; }
  return 0;
}""",
    "unsupported-op": """
int idx[100]; double b[100];
int main() {
  double a[100]; int i;
  for (i = 0; i < 100; i = i + 1) { a[i] = b[idx[i]]; }
  return 0;
}""",
    "may-alias": """
void axpy(double* x, double* y, int n) {
  int i;
  for (i = 0; i < n; i = i + 1) { x[i] = x[i] + y[i]; }
}
int main() { return 0; }""",
    "not-counted": """
int main() {
  int n = 100; int s = 0;
  while (n > 0) { s = s + n; n = n - 1; }
  return s;
}""",
    "multi-block": """
int main() {
  double a[100]; int i;
  for (i = 0; i < 100; i = i + 1) { if (i > 50) { a[i] = 1.0; } }
  return 0;
}""",
    "unsigned-iv": """
int main() {
  double a[100]; uint i;
  for (i = 0u; i < 100u; i = i + 1u) { a[i] = 2.5; }
  return 0;
}""",
    "reduction": """
double a[100]; double b[100];
int main() {
  int i; double s = 0.0;
  for (i = 0; i < 100; i = i + 1) { s = s + a[i] + b[i]; }
  return (int)s;
}""",
}


def _opcodes(module, function="main"):
    return [inst.opcode
            for block in module.get_function(function).blocks
            for inst in block.instructions]


def _run(module):
    result = Interpreter(module, engine="reference").run("main")
    return (result.return_value, result.output, result.exit_status)


class TestVectorization:
    def test_canonical_loops_vectorize(self):
        module = compile_source(_CANONICAL, "vec",
                                optimization_level=2, vectorize=True)
        fill = _opcodes(module, "fill")
        assert "vsplat" in fill    # broadcast of the stored constant
        assert "vstore" in fill    # contiguous fill
        total = _opcodes(module, "total")
        assert "vload" in total    # contiguous read
        assert "vreduce.add" in total  # in-order accumulator fold

    def test_vectorized_results_match_scalar_build(self):
        scalar = compile_source(_CANONICAL, "vec", optimization_level=2)
        vector = compile_source(_CANONICAL, "vec",
                                optimization_level=2, vectorize=True)
        assert _run(vector) == _run(scalar)

    def test_vectorized_run_takes_fewer_steps(self):
        scalar = compile_source(_CANONICAL, "vec", optimization_level=2)
        vector = compile_source(_CANONICAL, "vec",
                                optimization_level=2, vectorize=True)
        steps = {}
        for label, module in (("scalar", scalar), ("vector", vector)):
            steps[label] = Interpreter(module,
                                       engine="reference").run("main").steps
        assert steps["vector"] < steps["scalar"]

    def test_scalar_epilogue_handles_remainders(self):
        # 103 is not a multiple of the lane count: the last iterations
        # must run through the preserved scalar loop.
        source = """
int main() {
  double a[103]; int i;
  double s = 0.0;
  for (i = 0; i < 103; i = i + 1) { a[i] = (double)i; }
  for (i = 0; i < 103; i = i + 1) { s = s + a[i]; }
  return (int)s;
}
"""
        scalar = compile_source(source, "rem", optimization_level=2)
        vector = compile_source(source, "rem",
                                optimization_level=2, vectorize=True)
        assert _run(vector) == _run(scalar)
        assert _run(vector)[0] == sum(range(103))

    def test_off_by_default(self):
        module = compile_source(_CANONICAL, "vec", optimization_level=2)
        for function in ("fill", "total"):
            assert not any(op.startswith("v")
                           for op in _opcodes(module, function))

    def test_lane_count_bounds(self):
        with pytest.raises(ValueError):
            LoopAutovectorizer(lanes=1)
        with pytest.raises(ValueError):
            LoopAutovectorizer(lanes=64)


class TestRejectionTaxonomy:
    @pytest.mark.parametrize("reason", sorted(_REJECTIONS))
    def test_reason(self, reason):
        with observe.capture() as cap:
            compile_source(_REJECTIONS[reason], "rej",
                           optimization_level=2, vectorize=True)
        assert cap.registry.value("vec.loops_rejected", reason=reason) \
            == 1, cap.registry.counters("vec.")
        assert cap.registry.value("vec.loops_vectorized",
                                  function="main") == 0

    @pytest.mark.parametrize("reason", sorted(_REJECTIONS))
    def test_rejected_loops_still_run_correctly(self, reason):
        source = _REJECTIONS[reason]
        scalar = compile_source(source, "rej", optimization_level=2)
        vector = compile_source(source, "rej",
                                optimization_level=2, vectorize=True)
        assert _run(vector) == _run(scalar)


class TestObservability:
    def test_counters_and_events(self):
        with observe.capture() as cap:
            compile_source(_CANONICAL, "vec",
                           optimization_level=2, vectorize=True)
        for function in ("fill", "total"):
            assert cap.registry.value("vec.loops_vectorized",
                                      function=function) == 1
        events = [e for e in cap.tracer.events
                  if e.name == "autovec.loop"]
        assert len(events) == 2
        assert {e.attrs["function"] for e in events} == {"fill", "total"}
        for event in events:
            assert observe.validate(event.kind, event.name,
                                    event.attrs) == []
            assert event.attrs["vectorized"] is True
            assert event.attrs["lanes"] == VECTOR_LANES

    def test_rejection_event_carries_reason(self):
        with observe.capture() as cap:
            compile_source(_REJECTIONS["may-alias"], "rej",
                           optimization_level=2, vectorize=True)
        events = [e for e in cap.tracer.events
                  if e.name == "autovec.loop"]
        assert len(events) == 1
        assert events[0].attrs["vectorized"] is False
        assert events[0].attrs["reason"] == "may-alias"

    def test_lane_counter_per_engine(self):
        module = compile_source(_CANONICAL, "vec",
                                optimization_level=2, vectorize=True)
        with observe.capture() as cap:
            Interpreter(module, engine="reference").run("main")
        lanes = cap.registry.value("vec.lanes", engine="interp")
        assert lanes > 0
        assert lanes % VECTOR_LANES == 0

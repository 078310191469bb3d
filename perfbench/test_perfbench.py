"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Two light programs, a handful of samples: every phase in seconds.
SMALL = ("ks", "ft")
COUNTS = ("native_cycles", "llva_code_bytes", "native_code_bytes")


def small_run(workload, seed=1, trace=False):
    return harness.run_workload(workload, seed, 0, trace, programs=SMALL,
                                passes=3)


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        document = json.load(f)
    return document


def test_benchmark_json_matches_harness(declared):
    assert [w["name"] for w in declared["workloads"]] \
        == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] \
        == list(harness.PER_LAYER)
    assert declared["command"] == ["python3", "perfbench/run.py"]


def test_oracle_covers_every_program_at_every_scale():
    oracle = harness.load_oracle()
    for scale in harness.SCALES:
        for name in harness.ALL:
            harness.expected_outcome(oracle, name, scale)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_workload_runs_at_tiny_size(workload, trace, declared):
    result = small_run(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    section = declared["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_two_seeds_give_the_same_deterministic_counts():
    for workload in harness.WORKLOADS:
        first, second = small_run(workload, 1), small_run(workload, 2)
        for name in COUNTS:
            assert first["metrics"][name]["value"] \
                == second["metrics"][name]["value"], (workload, name)


def test_traced_steady_state_leaves_translation_idle():
    metrics = small_run("steady-state", trace=True)["metrics"]
    assert metrics["trace.isolation_share"]["value"] < 0.01
    assert metrics["execution.tier2.warmup_passes"]["value"] \
        > harness.PROMOTION_THRESHOLD


def test_self_times_and_overlaps():
    trace = tracing.Trace()
    trace.spans.extend([("outer", 1.0, 5.0), ("inner", 2.0, 3.0),
                        ("next", 5.0, 6.0)])
    trace.close_op("op-kind", 0.0, 10.0)
    own = {name: value for (_, name), value in trace.self_time.items()}
    assert own == {"op": 5.0, "outer": 3.0, "inner": 1.0, "next": 1.0}
    assert trace.violations == 0
    trace.spans.extend([("a", 1.0, 3.0), ("b", 2.0, 4.0)])
    trace.close_op("op-kind", 0.0, 10.0)
    assert trace.violations == 1


def test_traced_build_spans_come_from_the_real_pipeline():
    """A traced pass instruments ``compile_source`` itself: every -O2
    pass and the frontend show up, and the wrappers are gone after."""
    from repro.minic import driver
    parse = driver.parse_program
    trace = tracing.Trace()
    with tracing.instrument(trace):
        harness.compile_to_bitcode("ft", harness.load_workload(
            "ft", harness.TINY).source, trace.spans, trace.counts)
    assert driver.parse_program is parse
    trace.close_op("build", trace.spans[0][1], trace.spans[-1][2])
    names = {name for (_, name) in trace.self_time}
    assert {"minic.parse", "minic.codegen", "ir.verify",
            "bitcode.write"} <= names
    assert {"transforms." + name for name in harness.PASSES} <= names
    assert trace.counts["transforms.pass_runs"] == 10
    assert trace.counts["minic.llva_insts"] > 0


def test_fails_without_the_program_sources(tmp_path, declared):
    """In a checkout holding only the benchmark, the command exits
    nonzero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    completed = subprocess.run(
        declared["command"] + ["--workload", "cold-start", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout == ""

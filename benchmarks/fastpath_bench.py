#!/usr/bin/env python
"""Differential benchmark: fast engine vs reference interpreter.

For every selected benchsuite workload this script compiles the program
once (O2), runs it on both interpreter engines, *verifies the engines
agree* on return value, output, architectural step count, and exit
status, and reports steps/second for each engine plus the speedup.

Any divergence is a correctness failure: the script prints the
mismatch and exits nonzero, which is what the CI perf-smoke job keys
on.  Timing numbers are informational — CI never fails on them.

``--tier2`` turns the fast engine into the tiered translator (tier-2
promotion forced by default with threshold 0) and reports the per-tier
step split plus decode/compile/run second breakdown; the report is
written to ``BENCH_tierjit.json`` instead of ``BENCH_fastpath.json``.
``--repeat N`` re-runs each engine N times against the same decode and
tier-2 caches and reports the min (steady state): the first iteration
pays decode+compile, later ones measure the running tier.

Usage:
    PYTHONPATH=src python benchmarks/fastpath_bench.py            # full
    PYTHONPATH=src python benchmarks/fastpath_bench.py --quick    # CI
    PYTHONPATH=src python benchmarks/fastpath_bench.py \\
        --programs ft ks --scale 0.1 --out BENCH_fastpath.json
    PYTHONPATH=src python benchmarks/fastpath_bench.py \\
        --tier2 --repeat 3                         # tiered, steady state
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.benchsuite import SUITE_ORDER, load_workload
from repro.execution import (
    DecodeCache,
    ExecutionTrap,
    Interpreter,
    Tier2Cache,
)
from repro.execution.config import ExecConfig
from repro.minic import compile_source

#: Small, fast-terminating programs for the CI smoke run.
QUICK_PROGRAMS = ["ft", "ks", "anagram"]
QUICK_SCALE = 0.05


def run_engine(module, engine, sanitize=False, repeat=1,
               tier2=False, tier2_threshold=0):
    """Run *module* ``repeat`` times on one engine against shared
    decode/tier-2 caches; returns a measurement dict (seconds = min)."""
    config = ExecConfig(engine=engine, tier2=tier2,
                        tier2_threshold=tier2_threshold,
                        sanitize=sanitize)
    decode_cache = None
    tier2_cache = None
    if engine == "fast":
        decode_cache = DecodeCache(module.target_data, sanitize)
        if tier2:
            tier2_cache = Tier2Cache(module, module.target_data,
                                     tier2_threshold)
    seconds = []
    observations = []
    faults = 0
    tier2_steps = tier2_calls = 0
    for _iteration in range(repeat):
        interpreter = Interpreter(module, config,
                                  decode_cache=decode_cache,
                                  tier2_cache=tier2_cache)
        started = time.perf_counter()
        try:
            result = interpreter.run("main")
            observation = (result.return_value, result.output,
                           result.steps, result.exit_status)
        except ExecutionTrap as trap:
            # A trapping benchsuite program is itself a finding (the
            # sanitized suite must run clean); record it as an
            # observation so divergence checking still applies.
            observation = ("trap", trap.trap_number, trap.detail,
                           interpreter.steps)
        seconds.append(time.perf_counter() - started)
        observations.append(observation)
        san = interpreter.memory.san
        faults += san.fault_count if san is not None else 0
        tier2_steps = getattr(interpreter, "tier2_steps", 0)
        tier2_calls = getattr(interpreter, "tier2_calls", 0)
    return {
        "observation": observations[0],
        # Every repeat must observe the same architectural results;
        # a flaky engine is as wrong as a diverging one.
        "stable": all(obs == observations[0] for obs in observations),
        "seconds": min(seconds),
        "first_seconds": seconds[0],
        "decode_seconds": (decode_cache.stats.decode_seconds
                           if decode_cache is not None else 0.0),
        "compile_seconds": (tier2_cache.stats.compile_seconds
                            if tier2_cache is not None else 0.0),
        "functions_compiled": (tier2_cache.stats.functions_compiled
                               if tier2_cache is not None else 0),
        "tier2_pins": (tier2_cache.stats.pins
                       if tier2_cache is not None else 0),
        "tier2_steps": tier2_steps,
        "tier2_calls": tier2_calls,
        "faults": faults,
    }


def bench_program(name, scale, sanitize=False, repeat=1, tier2=False,
                  tier2_threshold=0):
    workload = load_workload(name, scale)
    module = compile_source(workload.source, name, optimization_level=2)
    ref = run_engine(module, "reference", sanitize, repeat=repeat)
    fast = run_engine(module, "fast", sanitize, repeat=repeat,
                      tier2=tier2, tier2_threshold=tier2_threshold)
    ref_obs, fast_obs = ref["observation"], fast["observation"]
    steps = ref_obs[2] if ref_obs[0] != "trap" else ref_obs[3]
    ref_seconds, fast_seconds = ref["seconds"], fast["seconds"]
    row = {
        "program": name,
        "scale": scale,
        "steps": steps,
        "sanitizer_faults": ref["faults"] + fast["faults"],
        "reference_seconds": round(ref_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "fast_decode_seconds": round(fast["decode_seconds"], 6),
        "reference_steps_per_sec": round(steps / ref_seconds, 1)
        if ref_seconds > 0 else None,
        "fast_steps_per_sec": round(steps / fast_seconds, 1)
        if fast_seconds > 0 else None,
        "speedup": round(ref_seconds / fast_seconds, 3)
        if fast_seconds > 0 else None,
        "diverged": (ref_obs != fast_obs or not ref["stable"]
                     or not fast["stable"]),
    }
    if tier2:
        # Per-tier breakdown: where the steps ran and where the
        # translation time went (decode = tier 1, compile = tier 2).
        row["tier2_steps"] = fast["tier2_steps"]
        row["tier1_steps"] = max(steps - fast["tier2_steps"], 0)
        row["tier2_calls"] = fast["tier2_calls"]
        row["tier2_functions_compiled"] = fast["functions_compiled"]
        row["tier2_pins"] = fast["tier2_pins"]
        row["fast_compile_seconds"] = round(fast["compile_seconds"], 6)
        row["fast_first_run_seconds"] = round(fast["first_seconds"], 6)
    if row["diverged"]:
        row["reference_observation"] = repr(ref_obs)
        row["fast_observation"] = repr(fast_obs)
    return row


#: The numeric rows whose inner loops the autovectorizer targets —
#: the ``--vectorize`` mode's default selection.
VECTOR_PROGRAMS = ["art", "equake", "ammp", "ft"]


def _result_summary(observation):
    """Architectural results minus the step count: vectorization
    legitimately changes how many steps a program takes, and nothing
    else."""
    if observation[0] == "trap":
        return observation
    return (observation[0], observation[1], observation[3])


def bench_vector_program(name, scale, repeat=1):
    """One workload compiled twice — scalar -O2 and -O2 --vectorize —
    measured on the fast engine and under forced tier 2.

    The vectorized module must match the reference interpreter *on
    itself* byte for byte (including steps), and must produce the same
    return value, output, and exit status as the scalar build; the
    speedup columns are vector-off wall time over vector-on."""
    workload = load_workload(name, scale)
    scalar_mod = compile_source(workload.source, name,
                                optimization_level=2)
    vector_mod = compile_source(workload.source, name,
                                optimization_level=2, vectorize=True)
    reference = run_engine(vector_mod, "reference", repeat=1)
    runs = {}
    for label, module in (("scalar", scalar_mod),
                          ("vector", vector_mod)):
        runs[label] = {
            "fast": run_engine(module, "fast", repeat=repeat),
            "tier2": run_engine(module, "fast", repeat=repeat,
                                tier2=True, tier2_threshold=0),
        }
    ref_obs = reference["observation"]
    vec_fast = runs["vector"]["fast"]
    vec_tier2 = runs["vector"]["tier2"]
    scalar_fast = runs["scalar"]["fast"]
    scalar_tier2 = runs["scalar"]["tier2"]
    diverged = (
        vec_fast["observation"] != ref_obs
        or vec_tier2["observation"] != ref_obs
        or _result_summary(scalar_fast["observation"])
        != _result_summary(ref_obs)
        or scalar_fast["observation"] != scalar_tier2["observation"]
        or not all(m["stable"] for engines in runs.values()
                   for m in engines.values()))
    scalar_steps = scalar_fast["observation"][2] \
        if scalar_fast["observation"][0] != "trap" else 0
    vector_steps = vec_fast["observation"][2] \
        if vec_fast["observation"][0] != "trap" else 0
    row = {
        "program": name,
        "scale": scale,
        "scalar_steps": scalar_steps,
        "vector_steps": vector_steps,
        "step_ratio": round(scalar_steps / vector_steps, 3)
        if vector_steps else None,
        "scalar_fast_seconds": round(scalar_fast["seconds"], 6),
        "vector_fast_seconds": round(vec_fast["seconds"], 6),
        "vector_speedup": round(scalar_fast["seconds"]
                                / vec_fast["seconds"], 3)
        if vec_fast["seconds"] > 0 else None,
        "scalar_tier2_seconds": round(scalar_tier2["seconds"], 6),
        "vector_tier2_seconds": round(vec_tier2["seconds"], 6),
        "vector_speedup_tier2": round(scalar_tier2["seconds"]
                                      / vec_tier2["seconds"], 3)
        if vec_tier2["seconds"] > 0 else None,
        "diverged": diverged,
    }
    if diverged:
        row["reference_observation"] = repr(ref_obs)
        row["vector_fast_observation"] = repr(vec_fast["observation"])
    return row


#: Trivial program used to warm the translator machinery (codegen
#: imports) before any timed run, so
#: the first measured program is not charged process one-time costs.
_WARMUP_SOURCE = """
int work(int n) { int s = 0; for (int i = 0; i < n; i = i + 1)
                  s = s + i; return s; }
int main() { return work(64); }
"""


def warm_translator():
    module = compile_source(_WARMUP_SOURCE, "benchwarm",
                            optimization_level=2)
    run_engine(module, "fast", repeat=1, tier2=True, tier2_threshold=0)


def geomean(values):
    values = [v for v in values if v and v > 0]
    if not values:
        return None
    return round(math.exp(sum(math.log(v) for v in values)
                          / len(values)), 3)


def _vectorize_main(parser, args, programs, scale, out_path):
    """The ``--vectorize`` A/B report: per-program scalar-vs-vector
    wall time and step counts, gated by ``compare_bench.py
    --metric vector_geomean``."""
    warm_translator()
    rows = []
    diverged = False
    for name in programs:
        if name not in SUITE_ORDER:
            parser.error("unknown workload {0!r} (choose from {1})"
                         .format(name, ", ".join(SUITE_ORDER)))
        row = bench_vector_program(name, scale, repeat=args.repeat)
        rows.append(row)
        if row["diverged"]:
            status = "DIVERGED"
        else:
            status = ("fast {0:.2f}x  tier2 {1:.2f}x  steps "
                      "{2:.3f}x".format(row["vector_speedup"] or 0.0,
                                        row["vector_speedup_tier2"]
                                        or 0.0,
                                        row["step_ratio"] or 0.0))
        print("{0:<10} {1:>12,} -> {2:>12,} steps  {3}".format(
            name, row["scalar_steps"], row["vector_steps"], status))
        diverged = diverged or row["diverged"]
    report = {
        "scale": scale,
        "vectorize": True,
        "repeat": args.repeat,
        "programs": rows,
        "vector_geomean": geomean(
            [r["vector_speedup"] for r in rows]),
        "vector_geomean_tier2": geomean(
            [r["vector_speedup_tier2"] for r in rows]),
        "step_ratio_geomean": geomean(
            [r["step_ratio"] for r in rows]),
        "diverged": diverged,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("vector geomean: fast {0}x, tier2 {1}x, steps {2}x -> {3}"
          .format(report["vector_geomean"],
                  report["vector_geomean_tier2"],
                  report["step_ratio_geomean"], out_path))
    if diverged:
        print("ERROR: vectorization diverged; see {0}".format(
            out_path), file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fast-engine differential benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: {0} at scale {1}".format(
                            "/".join(QUICK_PROGRAMS), QUICK_SCALE))
    parser.add_argument("--scale", type=float, default=0.2,
                        help="workload scale factor (default 0.2)")
    parser.add_argument("--programs", nargs="+", metavar="NAME",
                        help="workloads to run (default: whole suite)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run both engines under llva-san; any "
                             "reported fault fails the run (the suite "
                             "must be sanitizer-clean)")
    parser.add_argument("--tier2", action="store_true",
                        help="enable the tier-2 translator on the fast "
                             "engine and report the per-tier breakdown")
    parser.add_argument("--tier2-threshold", type=int, default=0,
                        metavar="N",
                        help="tier-2 promotion threshold (default 0: "
                             "compile every function on first call)")
    parser.add_argument("--vectorize", action="store_true",
                        help="A/B the loop autovectorizer: each "
                             "program compiled -O2 with and without "
                             "--vectorize, measured on the fast "
                             "engine and under forced tier 2; the "
                             "report (default programs: {0}) lands in "
                             "BENCH_vector.json".format(
                                 "/".join(VECTOR_PROGRAMS)))
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each engine N times against shared "
                             "caches and report min-of-N (steady state)")
    parser.add_argument("--out", default=None,
                        help="JSON output path (default "
                             "BENCH_fastpath.json, BENCH_tierjit.json "
                             "with --tier2, or BENCH_vector.json with "
                             "--vectorize)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    out_path = args.out or (
        "BENCH_vector.json" if args.vectorize
        else "BENCH_tierjit.json" if args.tier2
        else "BENCH_fastpath.json")

    programs = args.programs or (
        list(VECTOR_PROGRAMS) if args.vectorize else list(SUITE_ORDER))
    scale = args.scale
    if args.quick:
        programs = args.programs or (
            VECTOR_PROGRAMS if args.vectorize else QUICK_PROGRAMS)
        scale = QUICK_SCALE

    if args.vectorize:
        return _vectorize_main(parser, args, programs, scale, out_path)

    try:
        ExecConfig(engine="fast", tier2=args.tier2,
                   tier2_threshold=args.tier2_threshold,
                   sanitize=args.sanitize)
    except ValueError as error:
        parser.error(str(error))
    if args.tier2:
        warm_translator()

    rows = []
    diverged = False
    total_faults = 0
    for name in programs:
        if name not in SUITE_ORDER:
            parser.error("unknown workload {0!r} (choose from {1})"
                         .format(name, ", ".join(SUITE_ORDER)))
        row = bench_program(name, scale, sanitize=args.sanitize,
                            repeat=args.repeat, tier2=args.tier2,
                            tier2_threshold=args.tier2_threshold)
        rows.append(row)
        if row["diverged"]:
            status = "DIVERGED"
        elif row["sanitizer_faults"]:
            status = "{0} SAN FAULTS".format(row["sanitizer_faults"])
        else:
            status = "{0:.2f}x".format(row["speedup"] or 0.0)
        if args.tier2 and not row["diverged"]:
            status += "  [t2 {0:.0f}%]".format(
                100.0 * row["tier2_steps"] / max(row["steps"], 1))
        print("{0:<10} {1:>12,} steps  ref {2:>8.3f}s  fast {3:>8.3f}s"
              "  {4}".format(name, row["steps"],
                             row["reference_seconds"],
                             row["fast_seconds"], status))
        diverged = diverged or row["diverged"]
        total_faults += row["sanitizer_faults"]

    report = {
        "scale": scale,
        "sanitize": args.sanitize,
        "tier2": args.tier2,
        "tier2_threshold": args.tier2_threshold,
        "repeat": args.repeat,
        "programs": rows,
        "geomean_speedup": geomean([r["speedup"] for r in rows]),
        "diverged": diverged,
        "sanitizer_faults": total_faults,
    }
    if args.tier2:
        total_steps = sum(r["steps"] for r in rows)
        t2_steps = sum(r["tier2_steps"] for r in rows)
        report["tier2_steps"] = t2_steps
        report["tier1_steps"] = total_steps - t2_steps
        report["tier2_step_fraction"] = round(
            t2_steps / max(total_steps, 1), 4)
        report["tier2_functions_compiled"] = sum(
            r["tier2_functions_compiled"] for r in rows)
        report["tier2_pins"] = sum(r["tier2_pins"] for r in rows)
        report["compile_seconds"] = round(
            sum(r["fast_compile_seconds"] for r in rows), 6)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("geomean speedup: {0}x -> {1}".format(
        report["geomean_speedup"], out_path))
    if diverged:
        print("ERROR: engines diverged; see {0}".format(out_path),
              file=sys.stderr)
        return 1
    if args.sanitize and total_faults:
        print("ERROR: {0} sanitizer fault(s) in the suite; see {1}"
              .format(total_faults, out_path), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

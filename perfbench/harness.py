"""The LLVA toolchain benchmark: workloads, operations and metrics.

One process acts as one closed-loop client: each operation starts only
after the previous one has finished, and nothing runs in the
background (tier-2 compilation is synchronous).  Every operation goes
through the public entry points of the layers: ``minic``,
``transforms``, ``ir``, ``bitcode``, ``targets``, ``llee`` and
``execution``.  Launches use the default tiered path,
``LLEE.run_interpreted(engine="fast", tier2=True)`` at the default
promotion threshold, and ``LLEE.run_executable`` for native code.

A workload is one or two *focal* phases, which get the run's time
budget and are the only phases traced, plus *probe* phases on a few
light programs, because every run reports every end-to-end metric.
See README.md.
"""

from __future__ import annotations

import collections
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.benchsuite import SUITE_ORDER, load_workload
from repro.bitcode.reader import read_module
from repro.bitcode.writer import write_module
from repro.execution import tier2
from repro.llee import LLEE
from repro.llee.jit import FunctionJIT
from repro.llee.storage import DiskStorage
from repro.minic import compile_source
from repro.targets import make_target

from speed import Speedometer
from tracing import Trace, call, clock, instrument

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")

#: Smallest scale: most size knobs sit at their clamp, so translation
#: costs about as much as execution.
TINY = 0.01
#: Steady-state scale: execution dominates and no program takes more
#: than a quarter of a pass.
STEADY = 0.02
#: The steady probe's scale: runs of the probe programs last 2-5 ms
#: here, against ~1 ms at ``STEADY``, which is no longer than the
#: calibration job timed after each of them.
STEADY_PROBE = 0.05
SCALES = (TINY, STEADY, STEADY_PROBE)
TARGETS = ("x86", "sparc")
#: Probe programs, for the end-to-end metrics outside a workload's
#: focus: the three with the smallest build cost at ``TINY``.
LIGHT = ("anagram", "ft", "equake")
ALL = tuple(SUITE_ORDER)

#: Set-ups per run; ``setup_s`` is their median, and the second must
#: reproduce the first bit for bit.
SETUP_REPEATS = 2
#: Promotion counts invocations; a function called once per run is
#: promoted after this many runs.
PROMOTION_THRESHOLD = tier2.DEFAULT_THRESHOLD
MAX_WARMUP_PASSES = 4 * PROMOTION_THRESHOLD


@dataclass(frozen=True)
class Phase:
    kind: str  # "launch", "steady" or "native"
    scale: float
    programs: Tuple[str, ...]
    #: Untraced passes per run, and so samples per program for each of
    #: the phase's timings; odd, so that a median is one sample.
    passes: int


#: Workload -> (focal phases, probe phases).
WORKLOADS: Dict[str, Tuple[Tuple[Phase, ...], Tuple[Phase, ...]]] = {
    "cold-start": ((Phase("launch", TINY, ALL, 7),),
                   (Phase("steady", STEADY_PROBE, LIGHT, 15),
                    Phase("native", TINY, LIGHT, 25))),
    "steady-state": ((Phase("steady", STEADY, ALL, 15),
                      Phase("native", TINY, ALL, 5)),
                     (Phase("launch", TINY, LIGHT, 11),)),
}

#: Timed operations of each phase kind (each one a sample key, in ms).
OPERATIONS = {
    "launch": ("build", "cold_launch", "warm_launch"),
    "steady": ("steady_run",),
    "native": ("native_run",),
}

END_TO_END = (
    [("setup_s", "s"), ("peak_rss_mb", "MB")]
    + [(kind + "_ms", "ms") for kinds in OPERATIONS.values()
       for kind in kinds]
    + [("native_cycles", "cycles"), ("llva_code_bytes", "bytes"),
       ("native_code_bytes", "bytes")]
)

PASSES = ("mem2reg", "instsimplify", "simplifycfg", "dce", "sccp", "gvn",
          "licm", "adce")

PER_LAYER = (
    [("minic.parse.s", "s"), ("minic.codegen.s", "s"),
     ("minic.llva_insts", "count"), ("ir.verify.s", "s")]
    + [("transforms.%s.s" % name, "s") for name in PASSES]
    + [("transforms.changed_ratio", "ratio"),
       ("transforms.llva_insts", "count"),
       ("bitcode.write.s", "s"), ("bitcode.bytes", "bytes"),
       ("bitcode.read.s", "s")]
    + [(fmt % target, unit) for target in TARGETS
       for fmt, unit in (("targets.%s.translate.s", "s"),
                         ("targets.%s.native_insts", "count"),
                         ("targets.%s.expansion", "ratio"))]
    + [("llee.storage.write.s", "s"), ("llee.storage.bytes_written", "bytes"),
       ("llee.storage.read.s", "s"), ("llee.storage.bytes_read", "bytes"),
       ("llee.translation_cache.hit_ratio", "ratio"),
       ("llee.native_cache.hit_ratio", "ratio"),
       ("llee.launch.self_s", "s"),
       ("execution.decode.s", "s"), ("execution.decode.functions", "count"),
       ("execution.tier2.compile.s", "s"),
       ("execution.tier2.functions_compiled", "count"),
       ("execution.tier2.warm_loads", "count"),
       ("execution.tier2.warmup_passes", "count"),
       ("execution.run.s", "s"), ("execution.tier1_steps", "count"),
       ("execution.tier2_steps", "count"),
       ("execution.tier2_step_ratio", "ratio"),
       ("execution.translate_run_ratio", "ratio"),
       ("execution.machine_sim.run.s", "s"),
       ("execution.machine_sim.native_insts_executed", "count"),
       ("trace.overhead_ratio", "ratio"), ("trace.uncovered_s", "s"),
       ("trace.isolation_share", "ratio")]
)

_TRANSLATION = {"minic.parse.s", "minic.codegen.s", "ir.verify.s",
                "bitcode.write.s", "targets.x86.translate.s",
                "targets.sparc.translate.s"} \
    | {"transforms.%s.s" % name for name in PASSES}

#: Per workload, the layers its focal phase should leave idle (the
#: "~No work in" column of README.md); ``trace.isolation_share`` is
#: their share of the traced time.
IDLE_LAYERS = {
    "cold-start": {"execution.machine_sim.run.s"},
    "steady-state": _TRANSLATION | {
        "llee.storage.write.s", "execution.decode.s",
        "execution.tier2.compile.s"},
}


class SetupError(Exception):
    """Set-up found a wrong result or a nondeterministic build."""


@dataclass
class Program:
    """One suite program at one scale, built in set-up."""

    name: str
    source: str
    #: (return value, output, exit status) from the reference oracle.
    expected: tuple
    bitcode: bytes
    #: target name -> NativeModule.code_size() of a full translation;
    #: empty for a program the workload never translates natively.
    native_bytes: Dict[str, int]
    #: Architectural steps of one run (the tiered fast engine).
    steps: int

    def fingerprint(self):
        return self.bitcode, self.native_bytes, self.steps


def load_oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["scales"]


def expected_outcome(oracle: dict, name: str, scale: float) -> tuple:
    row = oracle[repr(scale)][name]
    return row["return_value"], row["output"], row["exit_status"]


def outcome_of(report) -> tuple:
    return report.return_value, report.output, report.exit_status


# -- building ---------------------------------------------------------------

def compile_to_bitcode(name: str, source: str, spans=None,
                       counts=None) -> bytes:
    """MiniC source to verified ``-O2`` bitcode: ``compile_source``
    followed by ``write_module``.  In a traced pass the frontend,
    verifier and pass spans come from ``tracing.instrument``."""
    module = compile_source(source, name, optimization_level=2)
    bitcode = call(spans, "bitcode.write", write_module, module)
    if counts is not None:
        counts["transforms.llva_insts"] += module.num_instructions()
        counts["bitcode.bytes"] += len(bitcode)
    return bitcode


def prepare(name: str, scale: float, oracle: dict,
            translated: bool) -> Program:
    """Build one program and measure what the runs are checked against
    (its native code too when the workload ``translated`` it)."""
    source = load_workload(name, scale).source
    bitcode = compile_to_bitcode(name, source)
    native_bytes = {
        target: FunctionJIT(read_module(bitcode), make_target(target))
        .translate_all().code_size()
        for target in TARGETS if translated}
    report = LLEE(make_target("x86")).run_interpreted(
        bitcode, engine="fast", tier2=True)
    expected = expected_outcome(oracle, name, scale)
    if outcome_of(report) != expected:
        raise SetupError("%s@%r: result %r, oracle %r" % (
            name, scale, outcome_of(report), expected))
    return Program(name, source, expected, bitcode, native_bytes,
                   report.steps)


def set_up(phases: Sequence[Phase], oracle: dict, work_dir: str,
           speed: Speedometer):
    """Build every program the phases use, ``SETUP_REPEATS`` times, and fill
    a native translation cache for the native phases.  Returns the
    programs, the cache directory and, per set-up, the (seconds,
    calibration job) pair of each of its steps."""
    needed = list(dict.fromkeys((name, phase.scale) for phase in phases
                                for name in phase.programs))
    native = list(dict.fromkeys((name, phase.scale) for phase in phases
                                if phase.kind == "native"
                                for name in phase.programs))
    translated = {(name, phase.scale) for phase in phases
                  if phase.kind != "steady" for name in phase.programs}

    def timed(fn, *args):
        # Timed step by step, so that many calibration jobs, not just
        # two, set the speed of a set-up lasting seconds.
        started = clock()
        result = fn(*args)
        steps.append((clock() - started, speed.tick()))
        return result

    durations = []
    first = None
    native_dir = None
    for _ in range(SETUP_REPEATS):
        if native_dir is not None:
            shutil.rmtree(native_dir)
        gc.collect()
        steps = []
        programs = {}
        for key in needed:
            programs[key] = timed(prepare, key[0], key[1], oracle,
                                  key in translated)
        native_dir = tempfile.mkdtemp(dir=work_dir) if native else None
        storage = DiskStorage(native_dir) if native else None
        for key in native:
            for target in TARGETS:
                llee = LLEE(make_target(target), storage)
                timed(llee.offline_translate, programs[key].bitcode)
        durations.append(steps)
        if first is None:
            first = programs
            continue
        for key, program in programs.items():
            if program.fingerprint() != first[key].fingerprint():
                raise SetupError(
                    "%s@%r: two builds differ in bitcode, native code "
                    "bytes or step count" % key)
    return first, native_dir, durations


# -- running ------------------------------------------------------------------

class Run:
    """Samples, failures and (when traced) spans of one benchmark run."""

    def __init__(self, trace_mode: bool):
        #: operation kind -> program -> (wall seconds, calibration job)
        #: of its untraced samples, one per pass.
        self.samples = collections.defaultdict(
            lambda: collections.defaultdict(list))
        self.attempted = 0
        self.failed = 0
        #: Whole-run faults: nondeterminism, spans that do not add up.
        self.problems = []
        self.trace = Trace() if trace_mode else None
        self.speed = Speedometer()
        #: (plan index, traced) -> per pass, the (wall seconds,
        #: calibration job) of its operations.
        self.pass_seconds = collections.defaultdict(list)
        self.native_cycles = None
        self.warmup_passes = 0

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print("perfbench: %s failed: %s" % (kind, message),
                  file=sys.stderr)

    def op(self, kind: str, traced: bool, body, check, timed=True):
        """Time one operation.  ``check(result)`` returns an error
        message or None; a raise or a failed check counts the operation
        as failed.  Returns (result, (wall seconds, calibration job
        timed right after)), the job None when not ``timed``; or None
        on failure."""
        self.attempted += 1
        trace = self.trace if traced else None
        started = clock()
        try:
            result = body(trace)
        except Exception:
            if trace is not None:
                trace.spans.clear()
                trace.translated.clear()
            self.fail(kind, traceback.format_exc())
            return None
        ended = clock()
        if trace is not None:
            trace.close_op(kind, started, ended)
        error = check(result)
        if error is not None:
            self.fail(kind, error)
            return None
        return result, (ended - started,
                        self.speed.tick() if timed else None)


def _check_launch(program: Program):
    def check(report):
        if outcome_of(report) != program.expected:
            return "%s: result %r, oracle %r" % (
                program.name, outcome_of(report), program.expected)
        if report.steps != program.steps:
            return "%s: %d steps, set-up counted %d" % (
                program.name, report.steps, program.steps)
        return None
    return check


def _count_interpreted(trace: Optional[Trace], report) -> None:
    if trace is None:
        return
    counts = trace.counts
    counts["interpreted_launches"] += 1
    counts["translation_cache_hits"] += bool(report.translation_cache_hit)
    counts["execution.tier1_steps"] += report.steps - report.tier2_steps
    counts["execution.tier2_steps"] += report.tier2_steps


class Phases:
    """The pass functions of the three phase kinds, sharing one run."""

    def __init__(self, run: Run, programs: Dict, work_dir: str,
                 native_dir: Optional[str], rng: random.Random):
        self.run = run
        self.programs = programs
        self.work_dir = work_dir
        self.native_dir = native_dir
        self.rng = rng

    def _order(self, phase: Phase):
        programs = [self.programs[(name, phase.scale)]
                    for name in phase.programs]
        self.rng.shuffle(programs)
        return programs

    def _record(self, kind: str, key: str, traced: bool, measured,
                totals) -> None:
        if measured is None:
            return
        totals.append(measured[1])
        if not traced:
            self.run.samples[kind][key].append(measured[1])

    def launch_pass(self, phase: Phase, traced: bool, totals) -> None:
        for program in self._order(phase):
            storage_dir = tempfile.mkdtemp(dir=self.work_dir)
            cache_dir = tempfile.mkdtemp(dir=self.work_dir)
            try:
                self._launch_ops(program, traced, totals, storage_dir,
                                 cache_dir)
            finally:
                shutil.rmtree(storage_dir)
                shutil.rmtree(cache_dir)

    def _launch_ops(self, program, traced, totals, storage_dir,
                    cache_dir) -> None:
        run = self.run

        def build(trace):
            spans = trace.spans if trace else None
            bitcode = compile_to_bitcode(
                program.name, program.source, spans,
                trace.counts if trace else None)
            storage = DiskStorage(storage_dir)
            for target in TARGETS:
                llee = LLEE(make_target(target), storage)
                call(spans, "llee.launch", llee.offline_translate, bitcode)
            return bitcode

        def built(bitcode):
            if bitcode != program.bitcode:
                return "%s: build differs from set-up" % program.name
            return None

        self._record("build", program.name, traced,
                     run.op("build", traced, build, built), totals)

        def launch(trace):
            llee = LLEE(make_target("x86"), DiskStorage(cache_dir))
            return call(trace.spans if trace else None, "llee.launch",
                        llee.run_interpreted, program.bitcode,
                        engine="fast", tier2=True)

        for kind in ("cold_launch", "warm_launch"):
            measured = run.op(kind, traced, launch, _check_launch(program))
            if measured is not None:
                _count_interpreted(run.trace if traced else None,
                                   measured[0])
            self._record(kind, program.name, traced, measured, totals)

    def steady_pass(self, phase: Phase, traced: bool, totals,
                    llee: LLEE, timed=True) -> int:
        """One run of every program; returns the summed tier-2
        ``functions_compiled`` of their caches (for warm-up)."""
        run = self.run
        compiled = 0
        for program in self._order(phase):
            def body(trace, bitcode=program.bitcode):
                return call(trace.spans if trace else None, "llee.launch",
                            llee.run_interpreted, bitcode,
                            engine="fast", tier2=True)
            measured = run.op("steady_run", traced, body,
                              _check_launch(program), timed)
            if measured is not None:
                compiled += measured[0].tier2_functions_compiled
                _count_interpreted(run.trace if traced else None,
                                   measured[0])
            if timed:
                self._record("steady_run", program.name, traced, measured,
                             totals)
        return compiled

    def warm_up(self, phase: Phase, llee: LLEE) -> int:
        """Untimed passes until tier-2 ``functions_compiled`` stops
        growing, after every function run once per pass has had the
        invocations to promote.  Returns the number of passes."""
        previous = None
        for passes in range(1, MAX_WARMUP_PASSES + 1):
            compiled = self.steady_pass(phase, False, [], llee, False)
            if passes > PROMOTION_THRESHOLD and compiled == previous:
                return passes
            previous = compiled
        self.run.problems.append(
            "tier-2 compiles still growing after %d warm-up passes"
            % MAX_WARMUP_PASSES)
        return MAX_WARMUP_PASSES

    def native_pass(self, phase: Phase, traced: bool, totals,
                    llees: Dict[str, LLEE]) -> None:
        run = self.run
        pairs = [(program, target) for program in self._order(phase)
                 for target in TARGETS]
        self.rng.shuffle(pairs)
        cycles = 0
        complete = True
        for program, target in pairs:
            def body(trace, bitcode=program.bitcode, llee=llees[target]):
                return call(trace.spans if trace else None, "llee.launch",
                            llee.run_executable, bitcode)

            def check(report, program=program):
                if outcome_of(report) != program.expected:
                    return "%s: native result %r, oracle %r" % (
                        program.name, outcome_of(report), program.expected)
                return None
            measured = run.op("native_run", traced, body, check)
            if measured is None:
                complete = False
            else:
                report = measured[0]
                cycles += report.cycles
                if traced:
                    counts = run.trace.counts
                    counts["native_launches"] += 1
                    counts["native_cache_hits"] += bool(report.cache_hit)
                    counts["execution.machine_sim.native_insts_executed"] \
                        += report.native_instructions_executed
            self._record("native_run", "%s/%s" % (program.name, target),
                         traced, measured, totals)
        if complete:
            if run.native_cycles is None:
                run.native_cycles = cycles
            elif cycles != run.native_cycles:
                run.problems.append("native cycles differ between passes:"
                                    " %d vs %d" % (cycles, run.native_cycles))

    def _pass_function(self, phase: Phase):
        """A ``one_pass(traced, totals)`` for the phase; a steady phase
        warms its LLEE up first."""
        if phase.kind == "steady":
            llee = LLEE(make_target("x86"))
            self.run.warmup_passes = self.warm_up(phase, llee)
            return lambda traced, totals: self.steady_pass(
                phase, traced, totals, llee)
        if phase.kind == "native":
            llees = {target: LLEE(make_target(target),
                                  DiskStorage(self.native_dir))
                     for target in TARGETS}
            return lambda traced, totals: self.native_pass(
                phase, traced, totals, llees)
        return lambda traced, totals: self.launch_pass(phase, traced, totals)

    def run_phases(self, plan, seconds: float, trace_mode: bool) -> None:
        """Run ``plan``, a list of (phase, minimum passes, focal), until
        every phase has its passes and ``seconds`` have elapsed; extra
        passes go to the focal phases.  Passes of all phases interleave
        in proportion, so that each metric samples the whole run rather
        than one stretch of it (the machine's speed drifts over
        seconds).  In trace mode each focal phase's passes go untraced,
        traced, traced, untraced, ..., which keeps the overhead ratio
        fair while the process slows down as it ages."""
        one_pass = [self._pass_function(phase) for phase, _, _ in plan]
        done = [0] * len(plan)
        gc.collect()
        started = clock()
        while True:
            behind = [i for i, (_, wanted, _) in enumerate(plan)
                      if done[i] < wanted]
            if not behind and clock() - started < seconds:
                behind = [i for i, (_, _, focal) in enumerate(plan)
                          if focal]
            if not behind:
                break
            index = min(behind, key=lambda i: done[i] / plan[i][1])
            focal = plan[index][2]
            traced = trace_mode and focal and done[index] % 4 in (1, 2)
            totals = []
            if traced:
                with instrument(self.run.trace):
                    one_pass[index](True, totals)
            else:
                one_pass[index](False, totals)
            if focal:
                self.run.pass_seconds[index, traced].append(totals)
            done[index] += 1
        for (phase, _, _), passes in zip(plan, done):
            print("perfbench: %s phase at scale %r: %d passes over %d "
                  "programs" % (phase.kind, phase.scale, passes,
                                len(phase.programs)), file=sys.stderr)
        print("perfbench: measured for %.1f s" % (clock() - started),
              file=sys.stderr)


# -- metrics ------------------------------------------------------------------

def geomean(values) -> float:
    return math.exp(statistics.fmean(map(math.log, values)))


def _typical_ms(per_program, scale) -> Dict[str, float]:
    """Each program's median sample time in milliseconds, each sample
    scaled by ``scale(seconds, job)``."""
    return {key: 1000.0 * statistics.median(scale(*sample)
                                            for sample in samples)
            for key, samples in per_program.items()}


def end_to_end_metrics(run: Run, programs: Dict, phases: Sequence[Phase],
                       focal: Sequence[Phase], setup: list) -> dict:
    """Each timing is the geometric mean over the programs (and targets)
    of their median time: every program weighs the same, and one
    program's slow stretch moves only its own median."""
    speed = run.speed
    metrics = {"setup_s": statistics.median(
                   sum(speed.scale(*step) for step in steps)
                   for steps in setup),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    wanted = {kind: phase.passes for phase in phases
              for kind in OPERATIONS[phase.kind]}
    for kind, passes in wanted.items():
        per_program = run.samples[kind]
        short = [key for key, samples in per_program.items()
                 if len(samples) < passes]
        if short or not per_program:
            run.problems.append("%s: fewer than %d samples for %s" % (
                kind, passes, ", ".join(short) or "every program"))
        metrics[kind + "_ms"] = geomean(
            _typical_ms(per_program, speed.scale).values()) \
            if per_program else 0.0
    focal_programs = [programs[key] for key in dict.fromkeys(
        (name, phase.scale) for phase in focal for name in phase.programs)]
    metrics["native_cycles"] = run.native_cycles or 0
    metrics["llva_code_bytes"] = sum(len(p.bitcode) for p in focal_programs)
    metrics["native_code_bytes"] = sum(
        sum(p.native_bytes.values()) for p in focal_programs)
    return metrics


def print_raw_timings(run: Run) -> None:
    """The timings in raw wall milliseconds, to standard error, beside
    the scaled ones the result reports."""
    for kind, per_program in run.samples.items():
        typical = _typical_ms(per_program, lambda seconds, job: seconds)
        print("perfbench: raw %s_ms %.4g (%d programs, %d samples each)"
              % (kind, geomean(typical.values()), len(per_program),
                 min(map(len, per_program.values()))), file=sys.stderr)


def _span_metric(name: str) -> str:
    if name == "llee.launch":
        return "llee.launch.self_s"
    metric = name + ".s"
    return metric if metric in _SECONDS else "trace.uncovered_s"


_SECONDS = {name for name, unit in PER_LAYER if unit == "s"}
#: Interpreted launches: the base of ``execution.translate_run_ratio``.
_LAUNCHES = ("cold_launch", "warm_launch", "steady_run")


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(run: Run, workload: str, focal_phases: int) -> dict:
    """Means per round (one pass of every focal phase) over the traced
    passes; ratios over their sums."""
    trace = run.trace
    traced = [times for (_, is_traced), times in run.pass_seconds.items()
              if is_traced]
    passes = max(sum(map(len, traced)) / focal_phases, 1)
    seconds = collections.Counter()
    launch_seconds = collections.Counter()
    for (kind, name), value in trace.self_time.items():
        metric = _span_metric(name)
        seconds[metric] += value
        if kind in _LAUNCHES:
            launch_seconds[metric] += value
    counts = trace.counts
    metrics = {name: seconds[name] / passes for name in _SECONDS}
    for name, unit in PER_LAYER:
        if unit in ("count", "bytes") and name in counts:
            metrics[name] = counts[name] / passes
    metrics["transforms.changed_ratio"] = _ratio(
        counts["transforms.changed_runs"], counts["transforms.pass_runs"])
    for target in TARGETS:
        metrics["targets.%s.expansion" % target] = _ratio(
            counts["targets.%s.native_insts" % target],
            counts["targets.%s.llva_insts" % target])
    metrics["llee.translation_cache.hit_ratio"] = _ratio(
        counts["translation_cache_hits"], counts["interpreted_launches"])
    metrics["llee.native_cache.hit_ratio"] = _ratio(
        counts["native_cache_hits"], counts["native_launches"])
    metrics["execution.tier2_step_ratio"] = _ratio(
        counts["execution.tier2_steps"],
        counts["execution.tier1_steps"] + counts["execution.tier2_steps"])
    metrics["execution.translate_run_ratio"] = _ratio(
        launch_seconds["bitcode.read.s"] + launch_seconds["execution.decode.s"]
        + launch_seconds["execution.tier2.compile.s"],
        launch_seconds["execution.run.s"])
    metrics["execution.tier2.warmup_passes"] = run.warmup_passes
    metrics["trace.overhead_ratio"] = _ratio(*(
        sum(statistics.mean(sum(run.speed.scale(*op) for op in ops)
                            for ops in passes)
            for (_, is_traced), passes in run.pass_seconds.items()
            if is_traced == side)
        for side in (True, False)))
    metrics["trace.isolation_share"] = _ratio(
        sum(seconds[name] for name in IDLE_LAYERS[workload]),
        sum(trace.op_time.values()))
    for name, unit in PER_LAYER:
        metrics.setdefault(name, 0)
    if trace.violations:
        run.problems.append("%d spans overlap a sibling or escape their "
                            "parent" % trace.violations)
    return metrics


# -- entry point --------------------------------------------------------------

def _restrict(phase: Phase, names) -> Phase:
    if names is None:
        return phase
    kept = tuple(name for name in phase.programs if name in names)
    return Phase(phase.kind, phase.scale, kept or tuple(names),
                 phase.passes)


def run_workload(workload: str, seed: int, seconds: float, trace_mode: bool,
                 programs: Optional[Sequence[str]] = None,
                 passes: Optional[int] = None) -> dict:
    """Run one workload and return the result object the CLI prints.
    ``programs`` and ``passes`` (per phase) shrink a run for the
    benchmark's own tests."""
    def shrink(phase):
        phase = _restrict(phase, programs)
        return phase if passes is None else Phase(
            phase.kind, phase.scale, phase.programs, passes)

    focal, probes = WORKLOADS[workload]
    focal = tuple(map(shrink, focal))
    # Only focal phases are traced, so a traced run skips the probes.
    probes = () if trace_mode else tuple(map(shrink, probes))
    units = PER_LAYER if trace_mode else END_TO_END
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    run = Run(trace_mode)
    try:
        built, native_dir, setup = set_up(
            focal + probes, load_oracle(), work_dir, run.speed)
        phases = Phases(run, built, work_dir, native_dir,
                        random.Random(seed))
        # A traced run needs two untraced and two traced focal passes.
        plan = [(phase, 4 if trace_mode else phase.passes, True)
                for phase in focal]
        plan += [(probe, probe.passes, False) for probe in probes]
        phases.run_phases(plan, seconds, trace_mode)
        if trace_mode:
            values = per_layer_metrics(run, workload, len(focal))
        else:
            values = end_to_end_metrics(run, built, focal + probes, focal,
                                        setup)
            print_raw_timings(run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    for problem in run.problems:
        print("perfbench: " + problem, file=sys.stderr)
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }

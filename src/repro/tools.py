"""The LLVA command-line toolchain.

One entry point, classic subcommands::

    python -m repro cc  prog.c  -o prog.bc  [-O2]    # MiniC -> object code
    python -m repro as  prog.ll -o prog.bc           # assembly -> object code
    python -m repro dis prog.bc                      # object code -> assembly
    python -m repro opt prog.bc -o out.bc -O2 [--link-time]
    python -m repro run prog.bc [--target x86|sparc] [--entry main]
                        [--engine fast] [--tier2 [--tier2-threshold N]
                        [--translation-cache DIR]] [args...]
    python -m repro llc prog.bc --target sparc       # native listing
    python -m repro link a.bc b.bc -o out.bc         # module linker
    python -m repro stats prog.bc [--target x86]     # observability report
    python -m repro profile prog.bc [--top 10]       # tiered-execution profile

Sources are auto-detected by suffix where it matters: ``.ll`` is
assembly, ``.c``/``.mc`` is MiniC, anything else is treated as virtual
object code.

Observability: ``cc``/``opt``/``run``/``stats``/``profile`` accept
``--trace FILE`` (the spans and the JIT-lifecycle events as Chrome
``trace_event`` JSON, or as JSONL with a ``.jsonl`` suffix) and
``--metrics FILE`` (the registry snapshot as JSON); ``repro stats``
runs a program with full instrumentation and pretty-prints per-pass
timings, expansion ratios, cache behaviour, opcode mix, and the
hottest profiled blocks; ``repro profile`` attributes every
interpreter step to a ``(function, tier)`` pair — tier 1 or tier 2 —
with optional speedscope export.  See ``docs/OBSERVABILITY.md``.

A file that cannot be read or written, or an input that is malformed,
ends in one stderr line (``<command>: cannot read|write <path>:
<reason>``) and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro import observe
from repro.asm import LexerError, ParseError, parse_module
from repro.bitcode import BitcodeError, read_module, write_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.config import DEFAULT_THRESHOLD, ExecConfig
from repro.execution.machine_sim import MachineSimulator
from repro.execution.tier2 import Tier2Cache, cache_key
from repro.ir import VerificationError, print_module, verify_module
from repro.ir.module import Module
from repro.llee.jit import FunctionJIT
from repro.minic import MiniCSyntaxError, compile_source
from repro.targets import disassemble, make_target, verify_native_module
from repro.transforms import link_modules, optimize

#: What reading an unreadable or malformed input file raises
#: (``ValueError`` covers undecodable text and malformed JSON).
_INPUT_ERRORS = (OSError, ValueError, BitcodeError, ParseError,
                 LexerError, MiniCSyntaxError, VerificationError)


class _FileError(Exception):
    """A file could not be read or written, or an input is malformed;
    :func:`main` reports it in one line instead of a traceback."""

    def __init__(self, path: str, error: Exception, verb: str = "read"):
        if isinstance(error, OSError) and error.strerror:
            reason = error.strerror
        else:
            lines = str(error).splitlines() or [type(error).__name__]
            reason = lines[0]
            if len(lines) > 1:
                reason += " (and {0} more)".format(len(lines) - 1)
        super().__init__("cannot {0} {1}: {2}".format(verb, path, reason))


@contextmanager
def _file_errors(path: str, verb: str = "read") -> Iterator[None]:
    """Report what fails inside the block as one ``cannot <verb>
    <path>`` line.  Reads catch every malformed-input error; writes
    (``verb="write"``) catch only ``OSError``."""
    errors = _INPUT_ERRORS if verb == "read" else OSError
    try:
        yield
    except errors as error:
        raise _FileError(path, error, verb) from error


def _load_module(path: str) -> Module:
    return _load_executable(path)[0]


def _load_executable(path: str) -> Tuple[Module, Optional[bytes]]:
    """The verified module at *path*, with the virtual object code it
    was read from when *path* is a bitcode file (else None)."""
    object_code = None
    with observe.span("cli.load_module", path=path), _file_errors(path):
        if path.endswith(".ll"):
            with open(path) as handle:
                module = parse_module(handle.read(), path)
        elif path.endswith((".c", ".mc")):
            with open(path) as handle:
                module = compile_source(handle.read(), path)
        else:
            with open(path, "rb") as handle:
                object_code = handle.read()
            module = read_module(object_code, path)
        verify_module(module)
    return module, object_code


def _write_text(text: str, output: Optional[str]) -> None:
    if output:
        with _file_errors(output, "write"), open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_output(module: Module, output: Optional[str],
                  as_text: bool = False) -> None:
    if as_text or (output and output.endswith(".ll")):
        _write_text(print_module(module), output)
        return
    data = write_module(module)
    if output:
        with _file_errors(output, "write"), open(output, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)


def _cmd_cc(args) -> int:
    with _file_errors(args.input), open(args.input) as handle:
        module = compile_source(handle.read(), args.input,
                                optimization_level=args.optimize,
                                pointer_size=args.pointer_size,
                                endianness=args.endian,
                                vectorize=args.vectorize)
    verify_module(module)
    _write_output(module, args.output)
    return 0


def _cmd_as(args) -> int:
    module = _load_module(args.input)
    _write_output(module, args.output)
    return 0


def _cmd_dis(args) -> int:
    module = _load_module(args.input)
    _write_output(module, args.output, as_text=True)
    return 0


def _cmd_opt(args) -> int:
    module = _load_module(args.input)
    optimize(module, level=args.optimize, link_time=args.link_time,
             vectorize=args.vectorize)
    verify_module(module)
    _write_output(module, args.output)
    return 0


def _cmd_link(args) -> int:
    modules = [_load_module(path) for path in args.inputs]
    linked = link_modules(modules, args.output or "linked")
    verify_module(linked)
    _write_output(linked, args.output)
    return 0


def _parse_program_args(raw: List[str]) -> List[object]:
    """Program arguments: ints and floats become numbers, anything
    else is passed through as a string (never an uncaught ValueError)."""
    out: List[object] = []
    for text in raw:
        try:
            out.append(int(text))
            continue
        except ValueError:
            pass
        try:
            out.append(float(text))
        except ValueError:
            out.append(text)
    return out


def _check_program_args(module, entry: str,
                        program_args: List[object]) -> Optional[str]:
    """Return an error message when a program argument cannot feed the
    entry function's parameter type (a string for an int parameter
    would otherwise surface as a TypeError deep in the evaluator).  An
    integer argument must be a value of an integer or pointer
    parameter's type: every engine holds a register to its type's
    range, and the native targets' argument stores reject wider
    values."""
    function = module.functions.get(entry)
    if function is None:
        return None  # the engine reports unknown entry points itself
    for position, (arg, value) in enumerate(
            zip(function.args, program_args), start=1):
        param_type = arg.type
        if ((param_type.is_integer or param_type.is_floating_point)
                and isinstance(value, str)):
            return ("argument {0} ({1!r}) is not a number, but "
                    "{2} parameter '{3}' is of type {4}\n".format(
                        position, value, entry, arg.name, param_type))
        if param_type.is_integer:
            low, high = param_type.min_value, param_type.max_value
        elif param_type.is_pointer:
            low, high = 0, (1 << (8 * module.target_data.pointer_size)) - 1
        else:
            continue
        if isinstance(value, int) and not low <= value <= high:
            return ("argument {0} ({1}) is out of range for {2} "
                    "parameter '{3}' of type {4}\n".format(
                        position, value, entry, arg.name, param_type))
    return None


#: Registry prefixes surfaced on the one-line ``--stats`` report.
_STATS_PREFIXES = ("run.", "jit.", "llee.cache.", "fastpath.", "san.",
                   "tier2.", "vec.")


def _format_stats_line(label: str, result: object) -> str:
    """The unified ``--stats`` line: ``result=`` plus every run-level
    registry counter, aggregated over labels — one code path for the
    interpreter and the JIT."""
    totals = {}
    for name, _labels, value in observe.registry().counters():
        if name.startswith(_STATS_PREFIXES):
            totals[name] = totals.get(name, 0) + value
    parts = ["result={0}".format(result)]
    for name in sorted(totals):
        value = totals[name]
        if isinstance(value, float) and not value.is_integer():
            parts.append("{0}={1:.6f}".format(name, value))
        else:
            parts.append("{0}={1}".format(name, int(value)))
    return "[{0}] {1}\n".format(label, " ".join(parts))


def _exec_config(args):
    """The execution settings of ``run``, ``stats`` or ``profile`` as
    one :class:`ExecConfig`, or the diagnostic that rejects them.

    ``--tier2`` implies ``--engine fast``; ``profile`` runs tier 2 on
    the fast engine unless ``--no-tier2`` is given.  ``--sanitize`` and
    ``--tier2`` apply to the interpreter engines only, not
    ``--target``; every other rule is :class:`ExecConfig`'s own."""
    if args.command == "profile":
        tier2 = args.engine == "fast" and not args.no_tier2
        sanitize = False
    else:
        tier2, sanitize = args.tier2, args.sanitize
        for flag, on in (("--sanitize", sanitize), ("--tier2", tier2)):
            if on and args.target:
                return ("{0} applies to the interpreter engines only, "
                        "not --target".format(flag))
    try:
        return ExecConfig(engine="fast" if tier2 else args.engine,
                          tier2=tier2,
                          tier2_threshold=args.tier2_threshold,
                          sanitize=sanitize)
    except ValueError as error:
        return str(error)


def _disk_storage(path: str):
    """A :class:`DiskStorage` rooted at *path*; a path that cannot be
    a cache directory is reported as ``cannot write <path>``."""
    from repro.llee.storage import DiskStorage

    with _file_errors(path, "write"):
        return DiskStorage(path)


def _run_interpreter(args, module, config, program_args, profiler=None,
                     object_code: Optional[bytes] = None):
    """Run *module* on the interpreter *config* selects and return
    ``(interpreter, result)``.  ``--translation-cache`` persists the
    tier-2 translations in a directory, for cross-process warm starts,
    under the key of *object_code*: the bitcode *module* was read from
    and has not changed since, or None to encode *module*."""
    tier2_cache = None
    if config.tier2 and args.translation_cache:
        tier2_cache = Tier2Cache(module, module.target_data,
                                 config.tier2_threshold)
        if object_code is None:
            object_code = write_module(module)
        tier2_cache.attach_storage(_disk_storage(args.translation_cache),
                                   cache_key(object_code))
    interpreter = Interpreter(module, config, privileged=args.privileged,
                              tier2_cache=tier2_cache, profiler=profiler)
    try:
        return interpreter, interpreter.run(args.entry, program_args)
    finally:
        if tier2_cache is not None:
            tier2_cache.flush_storage()


def _cmd_run(args) -> int:
    module, object_code = _load_executable(args.input)
    if args.vectorize:
        # Compile-time rewrite: run the autovectorizer over the loaded
        # module (loops must already be canonical — compile with -O).
        optimize(module, level=0, vectorize=True)
        verify_module(module)
        object_code = None
    program_args = _parse_program_args(args.args)
    problem = _check_program_args(module, args.entry, program_args)
    if problem:
        sys.stderr.write("run: " + problem)
        return 2
    config = _exec_config(args)
    if isinstance(config, str):
        sys.stderr.write("run: {0}\n".format(config))
        return 2
    try:
        if args.target:
            target = make_target(args.target)
            from repro.targets import NativeModule

            native = NativeModule(target, module.name)
            jit = FunctionJIT(module, target)
            simulator = MachineSimulator(native, module,
                                         resolver=jit.translate)
            value, status = simulator.run(args.entry, program_args)
            sys.stdout.write(simulator.output_text())
            if args.stats:
                sys.stderr.write(_format_stats_line(args.target, value))
        else:
            _interpreter, result = _run_interpreter(
                args, module, config, program_args,
                object_code=object_code)
            sys.stdout.write(result.output)
            value, status = result.return_value, result.exit_status
            if args.stats:
                label = "tier2" if config.tier2 else config.engine
                sys.stderr.write(_format_stats_line(label, value))
    except ExecutionTrap as trap:
        sys.stderr.write("trap: {0}\n".format(trap))
        return 128 + trap.trap_number
    if status:
        return status
    return int(value) & 0xFF if isinstance(value, (int, bool)) else 0


def _cmd_llc(args) -> int:
    module = _load_module(args.input)
    target = make_target(args.target)
    jit = FunctionJIT(module, target)
    native = jit.translate_all()
    verify_native_module(native)
    chunks = [disassemble(machine)
              for machine in native.functions.values()]
    _write_text("\n".join(chunks), args.output)
    sys.stderr.write(
        "; {0} LLVA instructions -> {1} {2} instructions "
        "({3:.2f}x), {4} bytes\n".format(
            module.num_instructions(), native.num_instructions(),
            args.target,
            native.num_instructions() / max(module.num_instructions(),
                                            1),
            native.code_size()))
    return 0


# ---------------------------------------------------------------------------
# repro stats — the observability report
# ---------------------------------------------------------------------------


def _labels_text(labels) -> str:
    return ",".join("{0}={1}".format(k, v) for k, v in labels)


def _is_number(value) -> bool:
    return isinstance(value, (int, float))


def _check_metrics_snapshot(snapshot) -> None:
    """Raise ``ValueError`` unless *snapshot* has the shape
    ``MetricsRegistry.snapshot`` exports: ``counters`` and
    ``histograms`` lists of named entries with numeric values."""
    def histogram_ok(value):
        return (isinstance(value, dict)
                and _is_number(value.get("count"))
                and _is_number(value.get("mean"))
                and all(value.get(k) is None or _is_number(value.get(k))
                        for k in ("min", "max")))

    if not isinstance(snapshot, dict):
        raise ValueError("not a metrics snapshot")
    for section, value_ok in (("counters", _is_number),
                              ("histograms", histogram_ok)):
        entries = snapshot.get(section)
        if not isinstance(entries, list) or not all(
                isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("labels", {}), dict)
                and value_ok(entry.get("value"))
                for entry in entries):
            raise ValueError("not a metrics snapshot")


def _print_loaded_metrics(path: str, out) -> int:
    """Pretty-print a previously exported ``--metrics`` JSON file."""
    with _file_errors(path), open(path) as handle:
        snapshot = json.load(handle)
        _check_metrics_snapshot(snapshot)
    out.write("== metrics ({0}) ==\n".format(path))
    for entry in snapshot.get("counters", []):
        labels = entry.get("labels", {})
        suffix = "" if not labels else "{{{0}}}".format(
            ",".join("{0}={1}".format(k, labels[k])
                     for k in sorted(labels)))
        out.write("  {0}{1} = {2}\n".format(entry["name"], suffix,
                                            entry["value"]))
    for entry in snapshot.get("histograms", []):
        value = entry["value"]
        labels = entry.get("labels", {})
        suffix = "" if not labels else "{{{0}}}".format(
            ",".join("{0}={1}".format(k, labels[k])
                     for k in sorted(labels)))
        out.write(
            "  {0}{1} : count={2} mean={3:.4g} min={4:.4g} "
            "max={5:.4g}\n".format(
                entry["name"], suffix, value["count"], value["mean"],
                value["min"] or 0, value["max"] or 0))
    return 0


def _render_stats_report(profile, result_value, top: int, out) -> None:
    registry = observe.registry()

    pass_rows = registry.label_values("pass.runs", "pass")
    if pass_rows:
        out.write("== optimization passes ==\n")
        out.write("  {0:<24} {1:>5} {2:>8} {3:>10}\n".format(
            "pass", "runs", "changes", "seconds"))
        for name, runs in pass_rows:
            out.write("  {0:<24} {1:>5} {2:>8} {3:>10.4f}\n".format(
                name, int(runs),
                int(registry.value("pass.changes", **{"pass": name})),
                registry.value("pass.seconds", **{"pass": name})))

    translated = sum(v for _l, v in registry.label_values(
        "jit.functions_translated", "target"))
    if translated:
        llva = sum(v for _l, v in registry.label_values(
            "jit.llva_instructions", "target"))
        native = sum(v for _l, v in registry.label_values(
            "jit.native_instructions", "target"))
        seconds = sum(v for _l, v in registry.label_values(
            "jit.translate_seconds", "target"))
        out.write("== translation (Table 2 style) ==\n")
        out.write(
            "  functions={0} llva_instructions={1} "
            "native_instructions={2} expansion={3:.2f}x "
            "translate_seconds={4:.4f}\n".format(
                int(translated), int(llva), int(native),
                native / max(llva, 1), seconds))
        for name, labels, histogram in registry.histograms(
                "jit.expansion_ratio"):
            out.write(
                "  expansion histogram [{0}]: count={1} "
                "mean={2:.2f} min={3:.2f} max={4:.2f}\n".format(
                    _labels_text(labels) or "all", histogram.count,
                    histogram.mean, histogram.minimum or 0,
                    histogram.maximum or 0))

    out.write("== execution ==\n")
    out.write("  result={0}\n".format(result_value))
    for name in ("run.steps", "run.cycles", "run.instructions",
                 "run.traps"):
        rows = [(labels, value) for metric, labels, value
                in registry.counters(name) if metric == name]
        for labels, value in rows:
            out.write("  {0}{1} = {2}\n".format(
                name,
                " [{0}]".format(_labels_text(labels)) if labels else "",
                int(value)))
    opcode_rows = sorted(
        registry.label_values("interp.opcode", "opcode")
        + registry.label_values("native.opcode", "op"),
        key=lambda kv: -kv[1])
    if opcode_rows:
        out.write("  top opcodes: {0}\n".format(" ".join(
            "{0}={1}".format(name, int(count))
            for name, count in opcode_rows[:top])))

    tier2_rows = [(name, labels, value) for name, labels, value
                  in registry.counters("tier2.")]
    if tier2_rows:
        out.write("== tiered translation (tier 2) ==\n")
        totals = {}
        for name, _labels, value in tier2_rows:
            totals[name] = totals.get(name, 0) + value
        for name in sorted(totals):
            value = totals[name]
            if isinstance(value, float) and not value.is_integer():
                out.write("  {0} = {1:.6f}\n".format(name, value))
            else:
                out.write("  {0} = {1}\n".format(name, int(value)))

    vec_rows = [(name, labels, value) for name, labels, value
                in registry.counters("vec.")]
    if vec_rows:
        out.write("== vectorization ==\n")
        for name, labels, value in vec_rows:
            out.write("  {0}{1} = {2}\n".format(
                name,
                " [{0}]".format(_labels_text(labels)) if labels else "",
                int(value)))

    san_rows = [(name, labels, value) for name, labels, value
                in registry.counters("san.")]
    if san_rows:
        out.write("== sanitizer (llva-san) ==\n")
        for name, labels, value in sorted(san_rows,
                                          key=lambda row: row[0]):
            out.write("  {0}{1} = {2}\n".format(
                name,
                " [{0}]".format(_labels_text(labels)) if labels else "",
                int(value)))

    out.write("== llee cache ==\n")
    out.write("  hits={0} misses={1} stores={2}\n".format(
        int(sum(v for _l, v in registry.label_values(
            "llee.cache.hit", "target"))),
        int(sum(v for _l, v in registry.label_values(
            "llee.cache.miss", "target"))),
        int(sum(v for _l, v in registry.label_values(
            "llee.cache.store", "target")))))

    if profile is not None and profile.counts:
        out.write("== hottest blocks ==\n")
        out.write("  {0:<32} {1:>12}\n".format("function:block",
                                               "executions"))
        for (function, block), count in profile.hottest_blocks(top):
            if count == 0:
                continue
            out.write("  {0:<32} {1:>12}\n".format(
                "{0}:{1}".format(function, block), count))


def _stats_json_payload(profile, result_value, top: int) -> dict:
    """The machine-readable twin of :func:`_render_stats_report`."""
    payload = {
        "command": "stats",
        "result": result_value,
        "metrics": observe.registry().snapshot(),
    }
    if profile is not None and profile.counts:
        payload["hottest_blocks"] = [
            {"function": function, "block": block, "executions": count}
            for (function, block), count in profile.hottest_blocks(top)
            if count]
    return payload


def _cmd_stats(args) -> int:
    if args.load:
        return _print_loaded_metrics(args.load, sys.stdout)
    if not args.input:
        sys.stderr.write("stats: an input program (or --load) "
                         "is required\n")
        return 2
    from repro.llee.profile import instrument_module, read_profile

    module = _load_module(args.input)
    if args.optimize > 0 or args.vectorize:
        optimize(module, level=args.optimize,
                 vectorize=args.vectorize)
    profile_map = instrument_module(module)
    program_args = _parse_program_args(args.args)
    problem = _check_program_args(module, args.entry, program_args)
    if problem:
        sys.stderr.write("stats: " + problem)
        return 2
    config = _exec_config(args)
    if isinstance(config, str):
        sys.stderr.write("stats: {0}\n".format(config))
        return 2
    profile = None
    try:
        if args.target:
            from repro.llee.manager import LLEE

            storage = _disk_storage(args.cache) if args.cache else None
            llee = LLEE(make_target(args.target), storage)
            report = llee.run_executable(write_module(module),
                                         entry=args.entry,
                                         args=program_args)
            (sys.stderr if args.json else sys.stdout).write(
                report.output)
            result_value = report.return_value
            profile = read_profile(profile_map, llee.last_simulator)
        else:
            interpreter, result = _run_interpreter(args, module, config,
                                                   program_args)
            (sys.stderr if args.json else sys.stdout).write(
                result.output)
            result_value = result.return_value
            profile = read_profile(profile_map, interpreter)
    except ExecutionTrap as trap:
        sys.stderr.write("trap: {0}\n".format(trap))
        return 128 + trap.trap_number
    if args.json:
        json.dump(_stats_json_payload(profile, result_value, args.top),
                  sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        _render_stats_report(profile, result_value, args.top,
                             sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# repro profile — step attribution across tiers
# ---------------------------------------------------------------------------


def _reasons(name: str) -> dict:
    """Reason -> count over one ``reason``-labelled counter."""
    return {reason: int(count) for reason, count
            in observe.registry().label_values(name, "reason")}


def _profile_payload(profiler, interpreter, result, top: int) -> dict:
    """The ``repro profile`` report as one JSON-ready dict (also the
    substrate for the human-readable rendering)."""
    data = profiler.to_dict()
    duration = data["duration_seconds"]
    stats = getattr(getattr(interpreter, "tier2", None), "stats", None)
    payload = {
        "command": "profile",
        "result": result.return_value,
        "steps": result.steps,
        "tier1_steps": data["tier1_steps"],
        "tier2_steps": data["tier2_steps"],
        "engine_tier2_steps": getattr(interpreter, "tier2_steps", 0),
        "duration_seconds": duration,
        "tiers": data["tiers"],
        "functions": data["functions"][:top] if top else
        data["functions"],
        "deopt_reasons": _reasons("tier2.deopts"),
        "pin_reasons": _reasons("tier2.pins"),
        "promotion_reasons": _reasons("tier2.promotions"),
        "events": dict(sorted(Counter(
            event.name for event in observe.tracer().events).items())),
    }
    if stats is not None:
        payload["tier2"] = {
            "functions_compiled": stats.functions_compiled,
            "warm_compiles": stats.warm_compiles,
            "deopts": stats.deopts,
            "pins": stats.pins,
            "invalidations": stats.invalidations,
            "compile_seconds": round(stats.compile_seconds, 9),
            "compile_share": (stats.compile_seconds / duration
                              if duration else 0.0),
        }
    vectorization = _vectorization_payload()
    if vectorization is not None:
        payload["vectorization"] = vectorization
    return payload


def _vectorization_payload() -> Optional[dict]:
    """The ``vec.*`` counters folded into one report row: loops
    vectorized, rejections by reason, and lanes executed per tier."""
    rows = observe.registry().counters("vec.")
    if not rows:
        return None
    info = {"loops_vectorized": 0, "loops_rejected": {}, "lanes": {}}
    for name, labels, value in rows:
        label_map = dict(labels)
        if name == "vec.loops_vectorized":
            info["loops_vectorized"] += int(value)
        elif name == "vec.loops_rejected":
            reason = label_map.get("reason", "?")
            info["loops_rejected"][reason] = \
                info["loops_rejected"].get(reason, 0) + int(value)
        elif name == "vec.lanes":
            engine = label_map.get("engine", "?")
            info["lanes"][engine] = \
                info["lanes"].get(engine, 0) + int(value)
    return info


def _render_profile_report(payload: dict, out) -> None:
    out.write("== run ==\n")
    out.write("  result={0} steps={1} duration={2:.4f}s\n".format(
        payload["result"], payload["steps"],
        payload["duration_seconds"]))
    out.write("  tier1_steps={0} tier2_steps={1}\n".format(
        payload["tier1_steps"], payload["tier2_steps"]))

    total = max(payload["steps"], 1)
    out.write("== tiers ==\n")
    out.write("  {0:<12} {1:>12} {2:>7} {3:>10}\n".format(
        "tier", "steps", "%", "seconds"))
    for tier, row in payload["tiers"].items():
        out.write("  {0:<12} {1:>12} {2:>6.1f}% {3:>10.4f}\n".format(
            tier, row["steps"], 100.0 * row["steps"] / total,
            row["seconds"]))

    if payload["functions"]:
        out.write("== hottest functions ==\n")
        out.write("  {0:<28} {1:<10} {2:>12} {3:>7} {4:>10} "
                  "{5:>7}\n".format("function", "tier", "steps", "%",
                                    "seconds", "calls"))
        for row in payload["functions"]:
            out.write(
                "  {0:<28} {1:<10} {2:>12} {3:>6.1f}% {4:>10.4f} "
                "{5:>7}\n".format(
                    row["function"][:28], row["tier"], row["steps"],
                    100.0 * row["steps"] / total, row["seconds"],
                    row["calls"]))

    tier2 = payload.get("tier2")
    if tier2:
        out.write("== jit lifecycle ==\n")
        out.write("  compiled={0} (warm={1})\n".format(
            tier2["functions_compiled"], tier2["warm_compiles"]))
        out.write("  deopts={0} pins={1} invalidations={2}\n".format(
            tier2["deopts"], tier2["pins"], tier2["invalidations"]))
        out.write("  compile_seconds={0:.4f} ({1:.1f}% of run)\n".format(
            tier2["compile_seconds"], 100.0 * tier2["compile_share"]))
    vectorization = payload.get("vectorization")
    if vectorization:
        out.write("== vectorization ==\n")
        out.write("  loops_vectorized={0}\n".format(
            vectorization["loops_vectorized"]))
        lanes = vectorization.get("lanes") or {}
        if lanes:
            out.write("  lanes: {0}\n".format(" ".join(
                "{0}={1}".format(engine, lanes[engine])
                for engine in sorted(lanes))))
        rejected = vectorization.get("loops_rejected") or {}
        for reason in sorted(rejected, key=lambda r: -rejected[r]):
            out.write("  rejected {0:>5}  {1}\n".format(
                rejected[reason], reason))
    for title, key in (("promotion reasons", "promotion_reasons"),
                       ("deopt reasons", "deopt_reasons"),
                       ("pin reasons", "pin_reasons")):
        reasons = payload.get(key)
        if reasons:
            out.write("== {0} ==\n".format(title))
            for reason in sorted(reasons, key=lambda r: -reasons[r]):
                out.write("  {0:>5}  {1}\n".format(reasons[reason],
                                                   reason))


def _cmd_profile(args) -> int:
    from repro.observe.profiler import StepProfiler

    module = _load_module(args.input)
    if args.optimize > 0 or args.vectorize:
        optimize(module, level=args.optimize,
                 vectorize=args.vectorize)
    program_args = _parse_program_args(args.args)
    problem = _check_program_args(module, args.entry, program_args)
    if problem:
        sys.stderr.write("profile: " + problem)
        return 2
    config = _exec_config(args)
    if isinstance(config, str):
        sys.stderr.write("profile: {0}\n".format(config))
        return 2
    profiler = StepProfiler(record_stack=bool(args.speedscope))
    try:
        interpreter, result = _run_interpreter(args, module, config,
                                               program_args, profiler)
    except ExecutionTrap as trap:
        sys.stderr.write("trap: {0}\n".format(trap))
        return 128 + trap.trap_number
    # under --json stdout carries only the document; the program's own
    # output moves to stderr
    (sys.stderr if args.json else sys.stdout).write(result.output)
    payload = _profile_payload(profiler, interpreter, result, args.top)
    if args.speedscope:
        with _file_errors(args.speedscope, "write"):
            profiler.write_speedscope(args.speedscope,
                                      name="repro profile " + args.input)
    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        _render_profile_report(payload, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and the observability lifecycle
# ---------------------------------------------------------------------------


def _add_observe_flags(sub) -> None:
    sub.add_argument(
        "--trace", metavar="FILE",
        help="write a span trace (Chrome trace_event JSON; "
             ".jsonl suffix selects JSONL)")
    sub.add_argument(
        "--metrics", metavar="FILE",
        help="write the metrics registry snapshot as JSON")


def _add_exec_flags(sub, engine: str = "reference", ladder: bool = False,
                    report: bool = False) -> None:
    """Declare the flags of a command that executes a program (``run``,
    ``stats`` and ``profile``), then its arguments, so call it after
    the command's own flags.  *engine* is the ``--engine`` default.
    *ladder* adds the rungs ``run`` and ``stats`` choose among
    (``--target``, ``--sanitize`` and ``--tier2``; ``profile`` runs tier
    2 unless ``--no-tier2``), and *report* the report flags of ``stats``
    and ``profile`` (``-O``, ``--top`` and ``--json``)."""
    sub.add_argument("--engine", choices=("fast", "reference"),
                     default=engine,
                     help="interpreter engine (default %(default)s): "
                          "'fast' is the pre-decoded closure-threaded "
                          "engine, which tier 2 needs, and 'reference' "
                          "the semantic oracle")
    sub.add_argument("--entry", default="main")
    sub.add_argument("--privileged", action="store_true")
    sub.add_argument("--vectorize", action="store_true",
                     help="run the loop autovectorizer over the module "
                          "(after any -O pipeline) before execution")
    if ladder:
        sub.add_argument("--target", choices=("x86", "sparc"),
                         help="run the JIT's code for this target on "
                              "the machine simulator (--engine is then "
                              "ignored)")
        sub.add_argument("--sanitize", action="store_true",
                         help="run under llva-san: shadow-memory "
                              "checking with redzones, a free "
                              "quarantine, and per-allocation fault "
                              "reports (interpreter engines only)")
        sub.add_argument("--tier2", action="store_true",
                         help="enable the tiered translator: hot "
                              "functions are compiled to Python "
                              "bytecode (implies --engine fast)")
    sub.add_argument(
        "--tier2-threshold", type=int, default=DEFAULT_THRESHOLD,
        metavar="N",
        help="tier-1 invocations before a function is promoted to "
             "tier 2 (default %(default)s; 0 = compile on first call)")
    sub.add_argument(
        "--translation-cache", metavar="DIR",
        help="persist tier-2 translations in DIR (POSIX storage API) "
             "for cross-process warm starts")
    if report:
        sub.add_argument("-O", "--optimize", type=int, default=0)
        sub.add_argument("--top", type=int, default=10,
                         help="rows in each table of the report")
        sub.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of the "
                              "human-readable rendering")
    _add_observe_flags(sub)
    sub.add_argument("args", nargs="*")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The LLVA toolchain (MICRO 2003 reproduction).")
    commands = parser.add_subparsers(dest="command", required=True)

    cc = commands.add_parser("cc", help="compile MiniC to object code")
    cc.add_argument("input")
    cc.add_argument("-o", "--output")
    cc.add_argument("-O", "--optimize", type=int, default=0)
    cc.add_argument("--pointer-size", type=int, default=8,
                    choices=(4, 8))
    cc.add_argument("--endian", default="little",
                    choices=("little", "big"))
    cc.add_argument("--vectorize", action="store_true",
                    help="append the loop autovectorizer to the "
                         "optimization pipeline")
    _add_observe_flags(cc)
    cc.set_defaults(func=_cmd_cc)

    as_cmd = commands.add_parser(
        "as", help="assemble .ll (or re-encode) to object code")
    as_cmd.add_argument("input")
    as_cmd.add_argument("-o", "--output")
    as_cmd.set_defaults(func=_cmd_as)

    dis = commands.add_parser("dis",
                              help="disassemble object code to .ll")
    dis.add_argument("input")
    dis.add_argument("-o", "--output")
    dis.set_defaults(func=_cmd_dis)

    opt = commands.add_parser("opt", help="run the optimizer")
    opt.add_argument("input")
    opt.add_argument("-o", "--output")
    opt.add_argument("-O", "--optimize", type=int, default=2)
    opt.add_argument("--link-time", action="store_true")
    opt.add_argument("--vectorize", action="store_true",
                     help="append the loop autovectorizer to the "
                          "optimization pipeline")
    _add_observe_flags(opt)
    opt.set_defaults(func=_cmd_opt)

    link = commands.add_parser("link", help="link modules")
    link.add_argument("inputs", nargs="+")
    link.add_argument("-o", "--output")
    link.set_defaults(func=_cmd_link)

    run = commands.add_parser(
        "run", help="execute (interpreter, or --target JIT)")
    run.add_argument("input")
    run.add_argument("--stats", action="store_true")
    _add_exec_flags(run, ladder=True)
    run.set_defaults(func=_cmd_run)

    llc = commands.add_parser(
        "llc", help="translate to a native listing")
    llc.add_argument("input")
    llc.add_argument("--target", default="sparc",
                     choices=("x86", "sparc"))
    llc.add_argument("-o", "--output")
    llc.set_defaults(func=_cmd_llc)

    stats = commands.add_parser(
        "stats",
        help="run a program fully instrumented and print a "
             "metrics/profile report")
    stats.add_argument("input", nargs="?")
    stats.add_argument("--load", metavar="METRICS_JSON",
                       help="pretty-print an exported --metrics file "
                            "instead of running")
    stats.add_argument("--cache", metavar="DIR",
                       help="LLEE translation cache directory "
                            "(enables cache hits across runs)")
    _add_exec_flags(stats, ladder=True, report=True)
    stats.set_defaults(func=_cmd_stats)

    profile = commands.add_parser(
        "profile",
        help="run under the step-attribution profiler: per-function "
             "per-tier steps and wall time, the JIT lifecycle, and "
             "deopt reasons (tier 2 on by default)")
    profile.add_argument("input")
    profile.add_argument("--no-tier2", action="store_true",
                         help="profile pure tier-1 execution")
    profile.add_argument("--speedscope", metavar="FILE",
                         help="write the tier timeline as a "
                              "speedscope.app JSON document")
    _add_exec_flags(profile, engine="fast", report=True)
    profile.set_defaults(func=_cmd_profile)

    return parser


def _wants_observability(args) -> bool:
    return bool(getattr(args, "trace", None)
                or getattr(args, "metrics", None)
                or getattr(args, "stats", False)
                or args.command in ("stats", "profile"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    observing = _wants_observability(args)
    if observing:
        observe.configure()
    try:
        with observe.span("cli." + args.command):
            status = args.func(args)
    except _FileError as error:
        sys.stderr.write("{0}: {1}\n".format(args.command, error))
        status = 1
    except BrokenPipeError:
        # The reader of stdout went away (``repro stats p.bc | head
        # -1``): stop quietly, with stdout pointed at os.devnull so
        # that the interpreter's exit flush cannot raise again.
        sys.stdout = open(os.devnull, "w")
        status = 1
    finally:
        export_failed = False
        if observing:
            try:
                trace_path = getattr(args, "trace", None)
                if trace_path:
                    observe.tracer().write(trace_path)
                metrics_path = getattr(args, "metrics", None)
                if metrics_path:
                    observe.registry().write_json(metrics_path)
            except OSError as error:
                sys.stderr.write(
                    "{0}: cannot write observability export: {1}\n"
                    .format(args.command, error))
                export_failed = True
            finally:
                observe.disable()
    return 1 if export_failed and not status else status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""``repro.observe`` — unified metrics, tracing and profiling for the
whole pipeline.

Every layer of the toolchain (MiniC front-end, pass manager, JIT,
LLEE, interpreter, machine simulator, trace cache) reports through this
module instead of keeping bespoke counters.  There are three
instruments: the metrics registry (how many?), the tracer (spans for
what took how long, events for what happened when) and the step
profiler (which function ran in which tier).  The design constraint is
**zero overhead when disabled** — which is the default:

* :func:`span` returns a shared no-op context manager;
* :func:`counter` / :func:`gauge` / :func:`histogram` / :func:`event`
  check one module flag and return immediately; emit sites guard
  :func:`event` with :func:`enabled` so that no field dict is built
  while off;
* hot loops (per-instruction) must hoist :func:`enabled` into a local
  before the loop and skip collection entirely when it is False.

Enable it for a run with :func:`configure` (or the CLI's ``--trace`` /
``--metrics`` / ``--stats`` flags, or ``repro stats`` / ``repro
profile``), read results from :func:`registry` / :func:`tracer`, and
reset with :func:`disable`.  :func:`capture` wraps that lifecycle for
scoped use::

    from repro import observe

    with observe.capture() as obs:
        run_pipeline()
    obs.registry.value("llee.cache.miss")
    obs.tracer.write("trace.jsonl")
    [e for e in obs.tracer.events if e.name == "tier2.promote"]

The vocabulary of span and event names is ``tracing.VOCABULARY``;
naming conventions are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass

from repro.observe.metrics import Histogram, MetricsRegistry
from repro.observe.profiler import StepProfiler
from repro.observe.tracing import (NULL_SPAN, TRACE_FORMAT_VERSION,
                                   VOCABULARY, EventRecord, SpanRecord,
                                   Tracer, validate)

__all__ = [
    "EventRecord", "Histogram", "MetricsRegistry", "SpanRecord",
    "StepProfiler", "TRACE_FORMAT_VERSION", "Tracer", "VOCABULARY",
    "autodump", "capture", "configure", "counter", "disable", "enabled",
    "event", "gauge", "histogram", "registry", "span", "tracer",
    "validate",
]

_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer()
#: The ``gc.collect`` span of the collection in progress, if any.
_collection = None


def enabled() -> bool:
    """Is observability on?  Hot loops hoist this into a local."""
    return _enabled


def registry() -> MetricsRegistry:
    """The active registry (meaningful once enabled)."""
    return _registry


def tracer() -> Tracer:
    """The active tracer (meaningful once enabled)."""
    return _tracer


def configure(reset: bool = True) -> None:
    """Turn observability on, optionally clearing previous data."""
    global _enabled
    _enabled = True
    _watch_collections()
    if reset:
        _registry.reset()
        _tracer.reset()


def disable(reset: bool = True) -> None:
    global _enabled
    _enabled = False
    _watch_collections()
    if reset:
        _registry.reset()
        _tracer.reset()


def _watch_collections() -> None:
    """Hook the cyclic garbage collector while observability is on, and
    only then."""
    hooked = _record_collection in gc.callbacks
    if _enabled and not hooked:
        gc.callbacks.append(_record_collection)
    elif hooked and not _enabled:
        gc.callbacks.remove(_record_collection)


def _record_collection(phase: str, info: dict) -> None:
    """A ``gc.callbacks`` hook: each collection becomes a ``gc.collect``
    span inside the span that was open when it began, so a trace shows
    which layer paid for it."""
    global _collection
    if phase == "start":
        _collection = _tracer.span("gc.collect",
                                   generation=info["generation"])
    elif _collection is not None:
        _collection.set(collected=info["collected"])
        _collection.__exit__(None, None, None)
        _collection = None


@dataclass
class Capture:
    """Handle to the data collected inside one :func:`capture` block."""

    registry: MetricsRegistry
    tracer: Tracer


@contextmanager
def capture():
    """Enable observability for a ``with`` block and hand back a fresh
    registry and tracer; restores the previous on/off state afterwards
    (data survives the block — it belongs to the returned handle)."""
    global _enabled, _registry, _tracer
    previous = (_enabled, _registry, _tracer)
    _registry = MetricsRegistry()
    _tracer = Tracer()
    _enabled = True
    _watch_collections()
    handle = Capture(_registry, _tracer)
    try:
        yield handle
    finally:
        _enabled, _registry, _tracer = previous
        _watch_collections()


# -- instrumentation points (cheap when disabled) ---------------------------


def span(name: str, /, **attrs):
    """A timed span; nest freely.  No-op singleton when disabled."""
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, **attrs)


def event(name: str, /, **fields) -> None:
    """One instant event in the tracer's ring."""
    if _enabled:
        _tracer.event(name, **fields)


def autodump(reason: str) -> None:
    """Write the tail of the event ring to stderr, once per tracer: the
    evidence trail of a sanitizer fault or an unhandled trap."""
    if _enabled:
        _tracer.autodump(reason)


def counter(name: str, amount: float = 1, **labels) -> None:
    if _enabled:
        _registry.inc(name, amount, **labels)


def gauge(name: str, value: float, **labels) -> None:
    if _enabled:
        _registry.set_gauge(name, value, **labels)


def histogram(name: str, value: float, **labels) -> None:
    if _enabled:
        _registry.observe(name, value, **labels)

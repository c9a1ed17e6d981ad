"""``repro.obs`` — end-to-end tracing, flight recorder, structured logging.

Stdlib-only observability for the four-layer pipeline (facade -> engine
plan/shard -> scheduler/executor -> service wave).  See
``docs/observability.md`` for the span taxonomy, the context-propagation
rules per executor, and the service's ``/v1/traces`` API.

Tracing is **off by default** (zero-overhead no-op call sites); the
service enables it by constructing a :class:`~repro.obs.trace.Tracer`
over its :class:`~repro.obs.recorder.FlightRecorder`, and library users
opt in with :func:`~repro.obs.trace.install` or a scoped
:func:`~repro.obs.trace.activate`.
"""

from repro.obs.recorder import FlightRecorder
from repro.obs.trace import (
    SpanCollector,
    SpanHandle,
    TraceContext,
    Tracer,
    activate,
    active_tracer,
    current_context,
    current_ids,
    ingest,
    install,
    request_slice,
    span,
)

__all__ = [
    "FlightRecorder",
    "SpanCollector",
    "SpanHandle",
    "TraceContext",
    "Tracer",
    "activate",
    "active_tracer",
    "current_context",
    "current_ids",
    "ingest",
    "install",
    "request_slice",
    "span",
]

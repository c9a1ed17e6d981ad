"""Spans, tracers, and cross-executor trace context — stdlib only.

One request through the stack touches four layers (facade -> engine plan/
shard -> scheduler/executor -> service wave) and three concurrency regimes
(asyncio tasks, thread pools, process pools).  This module gives every
layer the same three primitives:

* :func:`span` — the instrumentation call site.  ``with span("name",
  key=value):`` opens a child of the context's current span, times it on
  the monotonic clock, and emits it to the active tracer's sink on exit.
  With no tracer active it returns a shared no-op context manager: the
  disabled cost is one ``ContextVar.get`` plus one global read, which is
  what keeps the no-op overhead inside the benchmark gate.
* :class:`Tracer` — builds spans and hands them to a ``sink`` callable
  (the service's :class:`~repro.obs.recorder.FlightRecorder`, or a
  :class:`SpanCollector` buffering for a pack).  ``Tracer.span(parent=...)``
  opens a scoped span under an explicit parent.  ``begin``/``end`` are the
  service's alone, for spans that cross task boundaries (queue wait starts
  on the handler task and ends on the dispatcher); the engine opens every
  span it emits through the scoped API.
* :class:`TraceContext` — the picklable ``(trace_id, span_id)`` pair that
  travels *inside* pack payloads.  Process pools share no memory, so
  the engine stamps the current context into each payload; the pack
  kernel activates a :class:`SpanCollector` of its own, opens its root
  span under that context, and returns the collected spans alongside its
  results, which the dispatching side re-emits via :func:`ingest`.
  Asyncio needs none of this: tasks and ``asyncio.to_thread`` copy the
  ambient context, so the contextvars propagate on their own.

Spans are plain dicts (JSON-ready, picklable)::

    {"name": ..., "trace_id": ..., "span_id": ..., "parent_id": ...,
     "start_s": <epoch>, "duration_s": <monotonic delta>,
     "status": "ok" | "error", "attrs": {...}}

Determinism: ids come from ``os.urandom`` and timing from
``time.perf_counter`` — neither touches any ``numpy`` RNG stream, so
seeds, fingerprints, and wave composition are trace-invariant by
construction.
"""

from __future__ import annotations

import contextvars
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Tracer activated for the current context (``with activate(tracer):``).
_ACTIVE: "contextvars.ContextVar[Tracer | None]" = contextvars.ContextVar(
    "repro_obs_tracer", default=None
)
#: Innermost open span of the current context (parent for new spans).
_SPAN: "contextvars.ContextVar[dict | None]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)
#: Process-wide fallback tracer (see :func:`install`).
_GLOBAL: "Tracer | None" = None


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """A picklable pointer into a trace: parent for remote-side spans."""

    trace_id: str
    span_id: "str | None" = None


def _parent_ids(parent) -> "tuple[str | None, str | None]":
    """``(trace_id, span_id)`` from a span dict, TraceContext, or None."""
    if parent is None:
        return None, None
    if isinstance(parent, TraceContext):
        return parent.trace_id, parent.span_id
    return parent["trace_id"], parent["span_id"]


class Tracer:
    """Creates spans and emits finished ones to ``sink`` (a callable)."""

    def __init__(self, sink: "Callable[[dict], None] | None" = None):
        self.sink = sink

    # -- manual span lifecycle (cross-task spans) ------------------------------

    def begin(self, name: str, parent=None, **attrs) -> dict:
        """Open a span; a ``parent`` of ``None`` starts a fresh trace."""
        trace_id, parent_id = _parent_ids(parent)
        return {
            "name": name,
            "trace_id": trace_id if trace_id is not None else _new_id(8),
            "span_id": _new_id(4),
            "parent_id": parent_id,
            "start_s": time.time(),
            "duration_s": None,
            "status": "ok",
            "attrs": attrs,
            "_t0": time.perf_counter(),
        }

    def end(self, span: dict, error: "BaseException | str | None" = None) -> None:
        """Close a span (idempotent) and emit it to the sink."""
        t0 = span.pop("_t0", None)
        if t0 is None:
            return  # already ended
        span["duration_s"] = time.perf_counter() - t0
        if error is not None:
            span["status"] = "error"
            span["error"] = str(error) or type(error).__name__
        if self.sink is not None:
            self.sink(span)

    # -- scoped spans ----------------------------------------------------------

    def span(self, name: str, parent=None, **attrs) -> "_SpanScope":
        """``with tracer.span("name") as handle:`` — scoped child span."""
        return _SpanScope(self, name, parent, attrs)

    def ingest(self, spans: "Iterable[dict]") -> None:
        """Re-emit spans collected elsewhere (a worker's SpanCollector)."""
        if self.sink is None:
            return
        for span in spans:
            self.sink(span)


class SpanCollector(Tracer):
    """A tracer that buffers finished spans for a later :func:`ingest`."""

    def __init__(self):
        self.spans: list[dict] = []
        super().__init__(sink=self.spans.append)

    def drain(self) -> list[dict]:
        # Clear in place: the sink closure is bound to this list object, so
        # rebinding self.spans would strand future spans in the drained list.
        spans = self.spans[:]
        self.spans.clear()
        return spans


class SpanHandle:
    """What ``with span(...) as handle:`` yields: attrs and identity access."""

    __slots__ = ("span",)

    def __init__(self, span: dict):
        self.span = span

    def set(self, **attrs) -> None:
        """Attach attributes learned mid-span (cache hit, routing mode)."""
        self.span["attrs"].update(attrs)

    @property
    def trace_id(self) -> str:
        return self.span["trace_id"]

    @property
    def span_id(self) -> str:
        return self.span["span_id"]


class _SpanScope:
    __slots__ = ("tracer", "name", "parent", "attrs", "span", "_token")

    def __init__(self, tracer: Tracer, name: str, parent, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.attrs = attrs

    def __enter__(self) -> SpanHandle:
        parent = self.parent if self.parent is not None else _SPAN.get()
        self.span = self.tracer.begin(self.name, parent=parent, **self.attrs)
        self._token = _SPAN.set(self.span)
        return SpanHandle(self.span)

    def __exit__(self, exc_type, exc, tb) -> bool:
        _SPAN.reset(self._token)
        self.tracer.end(self.span, error=exc)
        return False


class _NoopHandle:
    __slots__ = ()
    trace_id = None
    span_id = None

    def set(self, **attrs) -> None:
        pass


class _NoopScope:
    __slots__ = ()

    def __enter__(self) -> _NoopHandle:
        return _NOOP_HANDLE

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_HANDLE = _NoopHandle()
_NOOP_SCOPE = _NoopScope()


# -- module-level instrumentation API ---------------------------------------


def active_tracer() -> "Tracer | None":
    """The context's tracer, falling back to the installed global one."""
    tracer = _ACTIVE.get()
    return tracer if tracer is not None else _GLOBAL


def span(name: str, **attrs):
    """Open a scoped span on the active tracer; no-op when tracing is off.

    This is the hot-path call site: when no tracer is active the cost is a
    ``ContextVar.get``, a global read, and returning a shared no-op scope.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        tracer = _GLOBAL
        if tracer is None:
            return _NOOP_SCOPE
    return _SpanScope(tracer, name, None, attrs)


class activate:
    """``with activate(tracer):`` — route :func:`span` calls to ``tracer``.

    Scoped to the current context (task/thread), so concurrent requests
    can carry different collectors without touching the global tracer.
    """

    __slots__ = ("tracer", "_token", "_span_token")

    def __init__(self, tracer: "Tracer | None"):
        self.tracer = tracer

    def __enter__(self) -> "Tracer | None":
        self._token = _ACTIVE.set(self.tracer)
        self._span_token = _SPAN.set(None)  # a fresh root, not the caller's span
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _SPAN.reset(self._span_token)
        _ACTIVE.reset(self._token)
        return False


def install(tracer: "Tracer | None") -> None:
    """Set (or with ``None`` clear) the process-wide fallback tracer.

    Library users who want traces without the service call
    ``install(Tracer(sink=recorder.record))`` once; :func:`activate`
    still overrides per context.
    """
    global _GLOBAL
    _GLOBAL = tracer


def current_context() -> "TraceContext | None":
    """Picklable pointer to the current span (payload stamping), or None."""
    current = _SPAN.get()
    if current is None:
        return None
    return TraceContext(current["trace_id"], current["span_id"])


def current_ids() -> "tuple[str | None, str | None]":
    """``(trace_id, span_id)`` of the current span (logging enrichment)."""
    current = _SPAN.get()
    if current is None:
        return None, None
    return current["trace_id"], current["span_id"]


def ingest(spans: "Iterable[dict]") -> None:
    """Forward worker-collected spans to the active tracer (if any)."""
    tracer = active_tracer()
    if tracer is not None:
        tracer.ingest(spans)


def request_slice(spans: "list[dict]", span_id: "str | None") -> list[dict]:
    """The subset of ``spans`` relevant to the request that owns ``span_id``.

    A coalesced wave solves many requests in one engine call, so its span
    set interleaves every request's work.  For one request — identified by
    its ``engine.solve`` span id — the relevant slice is:

    * the span itself, its ancestors (shard -> dispatch -> execute ->
      facade), and its descendants;
    * spans under the same root that are scoped to the *same shard*
      (``engine.shard`` ancestry or a matching ``shard`` attribute:
      cache lookups, route decisions);
    * unsharded same-root spans (plan compile, store checkpoint)
      — shared work every request in the call paid for.

    Spans of sibling requests' shards are excluded.  Returns ``[]`` when
    ``span_id`` is unknown (e.g. a result served without a trace stamp).
    """
    by_id = {s["span_id"]: s for s in spans}
    target = by_id.get(span_id)
    if target is None:
        return []

    def ancestry(span: dict) -> list[dict]:
        chain = [span]
        seen = {span["span_id"]}
        while True:
            parent = by_id.get(chain[-1].get("parent_id"))
            if parent is None or parent["span_id"] in seen:
                return chain
            seen.add(parent["span_id"])
            chain.append(parent)

    target_chain = ancestry(target)
    root_id = target_chain[-1]["span_id"]
    own_shard_ids = {s["span_id"] for s in target_chain if s["name"] == "engine.shard"}
    target_shard = target["attrs"].get("shard")

    kept = []
    for candidate in spans:
        chain = ancestry(candidate)
        if chain[-1]["span_id"] != root_id:
            continue  # a different engine call in the same wave
        if any(
            s["name"] == "engine.shard" and s["span_id"] not in own_shard_ids
            for s in chain
        ):
            continue  # scoped under a sibling request's shard
        shard_attr = candidate["attrs"].get("shard")
        in_own_shard = any(s["span_id"] in own_shard_ids for s in chain)
        if shard_attr is not None and shard_attr != target_shard and not in_own_shard:
            continue  # shard-attributed work for a different shard
        kept.append(candidate)
    return kept

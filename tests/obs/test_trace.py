"""Span/tracer primitives: lifecycle, parenting, context propagation, slicing.

Everything here is pure-stdlib plumbing — no engine, no service — so the
tests pin the exact contracts the instrumented layers rely on: span dicts
are JSON/pickle-clean, ``end`` is idempotent, ``activate`` starts a fresh
root, ``TraceContext`` survives a pickle round trip, and ``request_slice``
separates one request's spans from a coalesced wave's interleaved set.
"""

import pickle
import threading

import pytest

from repro import obs
from repro.obs import trace as trace_mod


@pytest.fixture(autouse=True)
def _no_global_tracer():
    """Tests that install a process-wide tracer must not leak it."""
    yield
    obs.install(None)


class TestSpanLifecycle:
    def test_scoped_span_emits_a_json_ready_dict(self):
        collector = obs.SpanCollector()
        with obs.activate(collector):
            with obs.span("unit.work", shard=3) as handle:
                assert handle.trace_id is not None
                handle.set(hit=True)
        (span,) = collector.drain()
        assert span["name"] == "unit.work"
        assert len(span["trace_id"]) == 16
        assert len(span["span_id"]) == 8
        assert span["parent_id"] is None
        assert span["status"] == "ok"
        assert span["duration_s"] >= 0.0
        assert span["attrs"] == {"shard": 3, "hit": True}
        assert "_t0" not in span  # internal clock never leaks to sinks

    def test_nesting_links_parent_and_shares_trace_id(self):
        collector = obs.SpanCollector()
        with obs.activate(collector):
            with obs.span("outer") as outer:
                with obs.span("inner"):
                    pass
        inner, outer_span = collector.drain()  # inner ends first
        assert inner["name"] == "inner"
        assert inner["trace_id"] == outer_span["trace_id"]
        assert inner["parent_id"] == outer.span_id
        assert outer_span["parent_id"] is None

    def test_exception_marks_error_and_propagates(self):
        collector = obs.SpanCollector()
        with pytest.raises(ValueError, match="boom"):
            with obs.activate(collector):
                with obs.span("unit.fails"):
                    raise ValueError("boom")
        (span,) = collector.drain()
        assert span["status"] == "error"
        assert "boom" in span["error"]

    def test_manual_end_is_idempotent(self):
        emitted = []
        tracer = obs.Tracer(sink=emitted.append)
        span = tracer.begin("queue_wait", lane="interactive")
        tracer.end(span)
        tracer.end(span)  # the _run_wave backstop may end an already-ended span
        assert len(emitted) == 1
        assert emitted[0]["attrs"] == {"lane": "interactive"}

    def test_begin_without_parent_starts_a_fresh_trace(self):
        tracer = obs.Tracer()
        a, b = tracer.begin("a"), tracer.begin("b")
        assert a["trace_id"] != b["trace_id"]
        assert a["parent_id"] is None

    def test_begin_with_trace_context_parent(self):
        tracer = obs.Tracer()
        ctx = obs.TraceContext("ab" * 8, "cd" * 4)
        child = tracer.begin("child", parent=ctx)
        assert child["trace_id"] == ctx.trace_id
        assert child["parent_id"] == ctx.span_id


class TestNoopPath:
    def test_span_without_tracer_is_the_shared_noop_scope(self):
        scope_a = obs.span("hot.path", attr=1)
        scope_b = obs.span("hot.path.again")
        assert scope_a is scope_b  # one shared object: zero per-call allocation
        with scope_a as handle:
            handle.set(anything="ignored")
            assert handle.trace_id is None
            assert handle.span_id is None

    def test_noop_scope_swallows_nothing(self):
        with pytest.raises(RuntimeError):
            with obs.span("still.raises"):
                raise RuntimeError("bubbles")

    def test_current_context_is_none_outside_spans(self):
        assert obs.current_context() is None
        assert obs.current_ids() == (None, None)


class TestActivationAndInstall:
    def test_activate_starts_a_fresh_root_not_a_child(self):
        outer, inner = obs.SpanCollector(), obs.SpanCollector()
        with obs.activate(outer):
            with obs.span("service.wave"):
                # The engine call runs under its own synthetic trace: its
                # root must NOT be parented under the service span.
                with obs.activate(inner):
                    with obs.span("engine.root"):
                        pass
        (engine_root,) = inner.drain()
        (wave,) = outer.drain()
        assert engine_root["parent_id"] is None
        assert engine_root["trace_id"] != wave["trace_id"]

    def test_install_is_the_fallback_and_activate_overrides(self):
        fallback, scoped = obs.SpanCollector(), obs.SpanCollector()
        obs.install(fallback)
        with obs.span("via.global"):
            pass
        with obs.activate(scoped):
            with obs.span("via.scoped"):
                pass
        assert [s["name"] for s in fallback.drain()] == ["via.global"]
        assert [s["name"] for s in scoped.drain()] == ["via.scoped"]
        assert obs.active_tracer() is fallback
        obs.install(None)
        assert obs.active_tracer() is None

    def test_activation_is_per_thread(self):
        """A worker thread must not see the main thread's activation
        (ThreadPoolExecutor workers do not inherit contextvars)."""
        collector = obs.SpanCollector()
        seen = {}

        def worker():
            seen["tracer"] = trace_mod._ACTIVE.get()

        with obs.activate(collector):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["tracer"] is None

    def test_ingest_forwards_to_the_active_tracer(self):
        collector = obs.SpanCollector()
        foreign = [{"name": "remote", "trace_id": "x", "span_id": "y",
                    "parent_id": None, "start_s": 0.0, "duration_s": 0.1,
                    "status": "ok", "attrs": {}}]
        obs.ingest(foreign)  # no tracer: silently dropped, never raises
        with obs.activate(collector):
            obs.ingest(foreign)
        assert collector.drain() == foreign


class TestTraceContext:
    def test_pickles_cleanly(self):
        ctx = obs.TraceContext("ff" * 8, "ee" * 4)
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_current_context_points_at_the_open_span(self):
        with obs.activate(obs.SpanCollector()):
            with obs.span("carrier") as handle:
                ctx = obs.current_context()
                assert ctx == obs.TraceContext(handle.trace_id, handle.span_id)
                assert obs.current_ids() == (handle.trace_id, handle.span_id)
                assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_worker_side_spans_chain_to_the_carried_context(self):
        """The shard-worker pattern: payload context -> local collector ->
        spans returned with results -> ingest on the dispatching side."""
        ctx = obs.TraceContext("ab" * 8, "cd" * 4)
        collector = obs.SpanCollector()
        shard = collector.begin("engine.shard", parent=ctx, shard=0)
        solve = collector.begin("engine.solve", parent=shard, index=0)
        collector.end(solve)
        collector.end(shard)
        spans = collector.drain()
        assert [s["name"] for s in spans] == ["engine.solve", "engine.shard"]
        assert all(s["trace_id"] == ctx.trace_id for s in spans)
        assert spans[1]["parent_id"] == ctx.span_id
        assert spans[0]["parent_id"] == spans[1]["span_id"]
        assert collector.drain() == []  # drain empties the buffer


def _wave_spans():
    """A synthetic coalesced-wave span set: one engine call, two shards,
    each serving a different request, plus shared (unsharded) work."""
    t = obs.Tracer()
    root = t.begin("facade.solve_many")
    plan = t.begin("engine.plan_compile", parent=root)
    cache0 = t.begin("cache.lookup", parent=root, shard=0)
    cache1 = t.begin("cache.lookup", parent=root, shard=1)
    shard0 = t.begin("engine.shard", parent=root, shard=0)
    solve0 = t.begin("engine.solve", parent=shard0, shard=0, index=0)
    shard1 = t.begin("engine.shard", parent=root, shard=1)
    solve1 = t.begin("engine.solve", parent=shard1, shard=1, index=0)
    spans = [root, plan, cache0, cache1, shard0, solve0, shard1, solve1]
    for span in spans:
        t.end(span)
    return spans, solve0, solve1


class TestRequestSlice:
    def test_keeps_own_chain_shared_work_and_same_shard_spans(self):
        spans, solve0, _ = _wave_spans()
        kept = {s["name"]: s for s in obs.request_slice(spans, solve0["span_id"])}
        assert set(kept) == {
            "facade.solve_many", "engine.plan_compile",
            "cache.lookup", "engine.shard", "engine.solve",
        }
        assert kept["cache.lookup"]["attrs"]["shard"] == 0
        assert kept["engine.shard"]["attrs"]["shard"] == 0
        assert kept["engine.solve"] is solve0

    def test_sibling_request_slices_are_disjoint_below_the_shared_work(self):
        spans, solve0, solve1 = _wave_spans()
        ids0 = {s["span_id"] for s in obs.request_slice(spans, solve0["span_id"])}
        ids1 = {s["span_id"] for s in obs.request_slice(spans, solve1["span_id"])}
        shared = ids0 & ids1
        shared_names = {s["name"] for s in spans if s["span_id"] in shared}
        assert shared_names == {"facade.solve_many", "engine.plan_compile"}

    def test_unknown_span_id_yields_empty(self):
        spans, _, _ = _wave_spans()
        assert obs.request_slice(spans, "deadbeef") == []
        assert obs.request_slice(spans, None) == []

    def test_foreign_root_spans_are_excluded(self):
        spans, solve0, _ = _wave_spans()
        other = obs.Tracer().begin("facade.solve_many")
        obs.Tracer().end(other)
        kept = obs.request_slice(spans + [other], solve0["span_id"])
        assert other["span_id"] not in {s["span_id"] for s in kept}

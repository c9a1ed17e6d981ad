"""The solver service: jobs in, coalesced engine waves out, metrics up.

:class:`SolverService` owns the long-lived engine state (one
:class:`~repro.engine.cache.ResultCache`, one
:class:`~repro.engine.scheduler.BackendScoreboard` — wrapped in the
:class:`~repro.engine.scheduler.AdaptiveScheduler` every wave routes
through — and optionally one durable
:class:`~repro.engine.store.EngineStore`), the job book, the coalescing
queue, and the dispatcher task that turns queued submissions into
``solve_many`` waves.

**Determinism contract.**  Every wave dispatches with *explicit per-request
seeds* and ``max_shard_size=1`` (stateless items ignore shard-mates; a
stateful backend needs one-item shards): each request's result is exactly
the one a direct ``repro.solve(problem, backend=..., seed=...)`` call
returns — the same objective, samples and cache key — no matter which
wave it rode in or with whom.  Coalescing is therefore free of result skew; what it buys is
amortisation: one executor dispatch per wave instead of per request,
**single-flight dedup** (identical ``(problem fingerprint, seed)``
submissions in one wave are solved once and fanned out), shared cache and
store tiers, and — in fleet mode — scoreboard routing per structure.

Threading model: the event loop owns jobs/queue/metrics bookkeeping; each
wave's engine call runs in a worker thread (``asyncio.to_thread``) and
marshals back to the loop before touching any job.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro import obs
from repro.engine.cache import ResultCache
from repro.engine.scheduler import AdaptiveScheduler, BackendScoreboard
from repro.engine.store import record_best_effort, resolve_store
from repro.exceptions import ReproError
from repro.obs.log import get_logger
from repro.service.admission import (
    DEFAULT_TENANT,
    PRIORITIES,
    AdmissionPolicy,
    AdmissionShed,
    TenantBudget,
)
from repro.service.coalesce import CoalescingQueue
from repro.service.config import ServiceConfig
from repro.service.jobs import STATES, Job, JobBook
from repro.service.metrics import (
    LATENCY_BUCKETS,
    WAVE_BUCKETS,
    MetricsRegistry,
)
from repro.service.problems import problem_from_spec
from repro.utils.rngtools import SEED_RANGE


class SolverService:
    """Coalescing solver-as-a-service over the ``repro`` engine."""

    def __init__(self, config: "ServiceConfig | None" = None):
        self.config = (config or ServiceConfig()).validate()
        self.jobs = JobBook(retention=self.config.job_retention)
        self.queue = CoalescingQueue(
            window_s=self.config.window_s,
            max_wave=self.config.max_wave,
            max_depth=self.config.max_queue_depth,
            lane_weights=self.config.resolved_lane_weights(),
        )

        # -- long-lived engine state ----------------------------------------
        store_spec = False if self.config.store == "" else self.config.store
        self.store = resolve_store(store_spec)
        self.cache = ResultCache() if self.config.cache else None
        self.scoreboard = BackendScoreboard()
        if self.store is not None:
            self.scoreboard.hydrate(self.store)  # /readyz and admission start warm
        # Every wave routes through a scheduler over the one scoreboard (a
        # one-name fleet routes trivially), so each solve is observed once
        # live and recorded once in the store.  Degraded requests run on the
        # classical tier under their own scheduler: same scoreboard, same
        # seed discipline.
        def scheduler() -> AdaptiveScheduler:
            return AdaptiveScheduler(
                scoreboard=self.scoreboard,
                epsilon=self.config.epsilon,
                seed=self.config.scheduler_seed,
                deadline_s=self.config.scheduler_deadline_s,
            )

        self.scheduler = scheduler()
        self._degrade_scheduler = scheduler()

        # -- admission -------------------------------------------------------
        self.admission = AdmissionPolicy(
            queue=self.queue,
            scoreboard=self.scoreboard,
            backends=self.config.backends,
            tenants=self.config.tenants,
            default_budget=TenantBudget.from_mapping(
                self.config.default_budget, where="default budget"
            ),
            degrade_backends=self.config.degrade_backends,
            degrade_ratio=self.config.degrade_ratio,
        )

        # -- observability ---------------------------------------------------
        # The recorder is the tracer's sink: every finished span of every
        # request lands in the ring buffer behind GET /v1/traces.  With
        # trace=false both stay None and every span call site degrades to
        # the shared no-op scope.
        self.recorder: "obs.FlightRecorder | None" = None
        self.tracer: "obs.Tracer | None" = None
        if self.config.trace:
            self.recorder = obs.FlightRecorder(max_traces=self.config.trace_buffer)
            self.tracer = obs.Tracer(sink=self.recorder.record)
        self._log = get_logger("service")

        # -- lifecycle -------------------------------------------------------
        self._accepting = False
        self._draining = False
        self._stopped = False
        self._started_at = time.time()
        self._dispatcher: "asyncio.Task | None" = None
        self._wave_tasks: "set[asyncio.Task]" = set()
        self._inflight = asyncio.Semaphore(self.config.max_inflight_waves)
        self._wave_counter = 0

        self._build_metrics()

    # -- metrics ---------------------------------------------------------------

    def _build_metrics(self) -> None:
        reg = self.metrics = MetricsRegistry()
        m = self._m = {}
        m["requests"] = reg.counter(
            "repro_service_requests_total", "Accepted solve submissions."
        )
        m["rejected"] = reg.counter(
            "repro_service_rejected_total",
            "Rejected submissions by reason.",
            labelnames=("reason",),
        )
        m["responses"] = reg.counter(
            "repro_service_responses_total",
            "Finished jobs by terminal status.",
            labelnames=("status",),
        )
        m["waves"] = reg.counter(
            "repro_service_waves_total", "Coalesced solve_many dispatch waves."
        )
        m["unique_solves"] = reg.counter(
            "repro_service_wave_unique_solves_total",
            "Engine solves dispatched after single-flight dedup.",
        )
        m["deduped"] = reg.counter(
            "repro_service_deduped_requests_total",
            "Requests served by another identical request in the same wave.",
        )
        m["holds"] = reg.counter(
            "repro_service_coalesce_holds_total",
            "Collected waves by whether the coalescing window was held.",
            labelnames=("decision",),
        )
        m["wave_size"] = reg.histogram(
            "repro_service_wave_size",
            "Requests per dispatched wave.",
            buckets=WAVE_BUCKETS,
        )
        m["latency"] = reg.histogram(
            "repro_service_request_latency_seconds",
            "Submit-to-finish request latency.",
            buckets=LATENCY_BUCKETS,
        )
        m["admission"] = reg.counter(
            "repro_service_admission_total",
            "Admission decisions by action and priority.",
            labelnames=("decision", "priority"),
        )
        m["tenant_requests"] = reg.counter(
            "repro_service_tenant_requests_total",
            "Admission decisions per tenant.",
            labelnames=("tenant", "decision"),
        )
        m["tenant_latency"] = reg.histogram(
            "repro_service_tenant_latency_seconds",
            "Submit-to-finish latency per tenant.",
            buckets=LATENCY_BUCKETS,
            labelnames=("tenant",),
        )
        m["tenant_jobs"] = reg.gauge(
            "repro_service_tenant_jobs",
            "Retained jobs by tenant and state.",
            labelnames=("tenant", "state"),
        )
        m["queue_depth"] = reg.gauge(
            "repro_service_queue_depth", "Undispatched submissions."
        )
        m["lane_depth"] = reg.gauge(
            "repro_service_lane_depth",
            "Undispatched submissions per priority lane.",
            labelnames=("lane",),
        )
        m["jobs"] = reg.gauge(
            "repro_service_jobs", "Retained jobs by state.", labelnames=("state",)
        )
        m["uptime"] = reg.gauge("repro_service_uptime_seconds", "Seconds since boot.")
        m["ready"] = reg.gauge(
            "repro_service_ready", "1 when accepting submissions, else 0."
        )
        m["cache"] = reg.gauge(
            "repro_engine_cache", "ResultCache counters.", labelnames=("event",)
        )
        m["backend"] = reg.gauge(
            "repro_backend_capacity",
            "Per-backend scoreboard capacity stats (EWMA latency/quality, rates).",
            labelnames=("backend", "stat"),
        )
        m["store"] = reg.gauge(
            "repro_engine_store", "Durable EngineStore row/byte totals.",
            labelnames=("stat",),
        )

    def render_metrics(self) -> str:
        """Refresh scrape-time gauges and render the exposition text.

        Every scrape-derived labelled gauge family is **cleared before it
        is re-populated** — a label set whose source disappeared (an
        evicted tenant, a swapped cache, a reset scoreboard) must vanish
        from the exposition, not keep reporting its last value forever.
        """
        m = self._m
        m["queue_depth"].set(self.queue.depth)
        m["uptime"].set(time.time() - self._started_at)
        m["ready"].set(1.0 if self.ready else 0.0)
        counts = self.jobs.counts()
        for state in STATES:
            m["jobs"].set(counts.get(state, 0), state=state)
        m["lane_depth"].clear()
        for lane, depth in self.queue.lane_depths().items():
            m["lane_depth"].set(depth, lane=lane)
        m["tenant_jobs"].clear()
        for (tenant, state), count in self.jobs.tenant_counts().items():
            m["tenant_jobs"].set(count, tenant=tenant, state=state)
        m["cache"].clear()
        if self.cache is not None:
            for event, value in self.cache.stats.items():
                m["cache"].set(value, event=event)
        m["backend"].clear()
        for backend, row in self.scoreboard.capacity_snapshot().items():
            for stat, value in row.items():
                if isinstance(value, (int, float)):
                    m["backend"].set(float(value), backend=backend, stat=stat)
        m["store"].clear()
        if self.store is not None:
            for stat, value in self.store.stats().items():
                m["store"].set(value, stat=stat)
        return self.metrics.render()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher; the service accepts work once this returns."""
        if self._dispatcher is not None:
            raise ReproError("service already started")
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-service-dispatcher"
        )
        self._accepting = True

    async def shutdown(self) -> None:
        """Graceful stop: reject new work, drain every accepted job.

        Idempotent.  Pending submissions are dispatched (the queue releases
        them in waves once closed), in-flight waves are awaited, and
        scoreboard observations a wave failed to write are retried into the
        durable store so the next boot starts warm.
        """
        if self._stopped:
            return
        self._accepting = False
        self._draining = True
        self.queue.close()
        if self._dispatcher is not None:
            await self._dispatcher
        if self._wave_tasks:
            await asyncio.gather(*self._wave_tasks)
        if self.store is not None:
            record_best_effort(lambda: self.store.scoreboard.record(()), "service shutdown record")
        self._draining = False
        self._stopped = True

    @property
    def ready(self) -> bool:
        """Accepting work with queue headroom (the ``/readyz`` verdict)."""
        return (
            self._accepting
            and not self._draining
            and self.queue.depth < self.config.max_queue_depth
        )

    @property
    def stopped(self) -> bool:
        return self._stopped

    def trace_status(self) -> dict:
        """Recorder health (``/healthz`` + ``/readyz``): on/off + pressure."""
        status = {"enabled": self.tracer is not None}
        if self.recorder is not None:
            status.update(self.recorder.stats())
        else:
            status.update(traces_buffered=0, dropped_total=0)
        return status

    def readiness(self) -> dict:
        """The ``/readyz`` body: verdict plus the capacity read model."""
        from repro import __version__

        return {
            "ready": self.ready,
            "version": __version__,
            "trace": self.trace_status(),
            "draining": self._draining,
            "queue_depth": self.queue.depth,
            "lane_depths": self.queue.lane_depths(),
            "max_queue_depth": self.config.max_queue_depth,
            "backends": list(self.config.backends),
            "degrade_backends": list(self.config.degrade_backends),
            "capacity": _scrub(self.scoreboard.capacity_snapshot()),
            "tenants": _scrub(self.admission.snapshot()),
        }

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        spec: Any,
        seed: int = 0,
        tenant: str = DEFAULT_TENANT,
        priority: str = "interactive",
    ) -> Job:
        """Validate, run admission, and only then register + enqueue the job.

        Raises :class:`~repro.exceptions.ReproError` subclasses the HTTP
        layer maps to 400 (bad spec/seed/tenant/priority), 429 with
        ``Retry-After`` (:class:`~repro.service.admission.AdmissionShed`),
        or 503 (draining).  Rejections of every kind happen **before a Job
        exists** — a sustained 429 flood must not churn the job book's
        retention and evict real history.  On success the job is pending
        (possibly with a degraded backend fleet, recorded on
        ``job.admission``) and its ``future`` resolves when the wave
        carrying it completes.
        """
        if not self._accepting:
            self._m["rejected"].inc(reason="draining")
            raise ReproError("service is draining; not accepting new work")
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_RANGE:
            self._m["rejected"].inc(reason="bad_seed")
            raise ReproError(f"seed must be an integer in [0, {SEED_RANGE}), got {seed!r}")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 128:
            self._m["rejected"].inc(reason="bad_tenant")
            raise ReproError("tenant must be a non-empty string (at most 128 chars)")
        if priority not in PRIORITIES:
            self._m["rejected"].inc(reason="bad_priority")
            raise ReproError(
                f"priority must be one of {list(PRIORITIES)}, got {priority!r}"
            )
        try:
            problem = problem_from_spec(spec)
        except ReproError:
            self._m["rejected"].inc(reason="bad_spec")
            raise

        admission_span = None
        if self.tracer is not None:
            admission_span = self.tracer.begin(
                "service.admission",
                parent=obs.current_context(),
                tenant=tenant,
                priority=priority,
            )
        decision = self.admission.decide(tenant, priority)
        if admission_span is not None:
            admission_span["attrs"].update(
                action=decision.action, reason=getattr(decision, "reason", None)
            )
            self.tracer.end(admission_span)
        self._m["admission"].inc(decision=decision.action, priority=priority)
        self._m["tenant_requests"].inc(tenant=tenant, decision=decision.action)
        if decision.action == "shed":
            self._m["rejected"].inc(reason=decision.reason)
            self._log.info(
                "request shed",
                extra={"fields": {"tenant": tenant, "priority": priority,
                                  "reason": decision.reason}},
            )
            raise AdmissionShed(
                f"request shed ({decision.reason}); retry after "
                f"{decision.retry_after_s}s",
                retry_after_s=decision.retry_after_s,
                reason=decision.reason,
            )

        job = self.jobs.create(
            problem, seed, dict(spec), tenant=tenant, priority=priority
        )
        job.admission = decision.as_record()
        if decision.action == "degrade":
            job.backends = decision.backends
        if self.tracer is not None:
            # The job's trace: the HTTP request's when one is open on this
            # context, else the fresh trace the admission span started.
            trace_id, span_id = obs.current_ids()
            if trace_id is None:
                trace_id = admission_span["trace_id"]
            job.trace_id = trace_id
            job._trace_ctx = obs.TraceContext(trace_id, span_id)
            if self.recorder is not None:
                self.recorder.annotate(
                    trace_id, job_id=job.id, tenant=tenant, priority=priority
                )
            # Queue wait starts here on the handler task and ends on the
            # dispatcher when the wave picks the job up — a manual span
            # because it crosses tasks.
            job._queue_span = self.tracer.begin(
                "service.queue_wait", parent=job._trace_ctx, lane=priority
            )
        try:
            self.queue.put(job, lane=priority)
        except ReproError:
            # Admission said yes but the queue disagreed (its own depth
            # backstop, or a close racing in): the job never ran, so it
            # must not linger in the book as history.
            self.jobs.discard(job.id)
            if not job.future.done():
                job.future.cancel()
            queue_span = getattr(job, "_queue_span", None)
            if queue_span is not None:
                self.tracer.end(queue_span, error="queue_refused")
            self._m["rejected"].inc(reason="queue_refused")
            raise
        self.admission.on_admit(job)
        self._m["requests"].inc()
        self._log.debug(
            "job admitted",
            extra={"fields": {"job_id": job.id, "tenant": tenant,
                              "priority": priority, "action": decision.action}},
        )
        return job

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Collect waves forever; exit once the closed queue runs dry."""
        while True:
            wave = await self.queue.collect_wave()
            if not wave:
                if self.queue.closed:
                    return
                continue
            held = self.queue.last_held
            self._m["holds"].inc(decision="held" if held else "skipped")
            await self._inflight.acquire()
            task = asyncio.create_task(self._run_wave(wave, held))
            self._wave_tasks.add(task)

            def _done(finished: asyncio.Task) -> None:
                self._wave_tasks.discard(finished)
                self._inflight.release()

            task.add_done_callback(_done)

    async def _run_wave(self, jobs: "list[Job]", held: bool) -> None:
        self._wave_counter += 1
        wave_id = self._wave_counter
        now = time.time()
        wave_spans: "dict[str, dict]" = {}
        for job in jobs:
            job.status = "running"
            job.started_at = now
            job.wave = wave_id
            self.admission.on_dispatch(job)
            if self.tracer is not None:
                queue_span = getattr(job, "_queue_span", None)
                if queue_span is not None:
                    queue_span["attrs"].update(wave=wave_id, held=held)
                    self.tracer.end(queue_span)
                    job._queue_span = None
                ctx = getattr(job, "_trace_ctx", None)
                if ctx is not None:
                    wave_spans[job.id] = self.tracer.begin(
                        "service.wave", parent=ctx, wave=wave_id, size=len(jobs)
                    )
                if self.recorder is not None and job.trace_id is not None:
                    self.recorder.annotate(job.trace_id, wave=wave_id)
        self._m["waves"].inc()
        self._m["wave_size"].observe(len(jobs))
        self._log.debug(
            "wave dispatched",
            extra={"fields": {"wave": wave_id, "size": len(jobs)}},
        )

        # Every job in the wave must reach a terminal state and resolve
        # its future, whatever throws: an exception after the engine call
        # (short results, a poisoned metrics observer, a bookkeeping bug)
        # must not strand `wait=true` clients on forever-"running" jobs.
        failure: "str | None" = None
        results: "list | None" = None
        engine_spans: list = []
        try:
            results, engine_spans = await asyncio.to_thread(self._solve_wave, jobs)
            if len(results) != len(jobs):
                raise ReproError(
                    f"wave returned {len(results)} results for {len(jobs)} jobs"
                )
        except Exception as exc:  # an engine failure fails the wave, not the service
            failure = f"{type(exc).__name__}: {exc}"
            self._log.warning(
                "wave failed",
                extra={"fields": {"wave": wave_id, "error": failure}},
            )
        try:
            if failure is None:
                for job, result in zip(jobs, results):
                    self._graft_engine_spans(job, result, engine_spans,
                                             wave_spans.get(job.id))
                    self._finish_traced(job, wave_spans, status="done", result=result)
            else:
                for job in jobs:
                    self._finish_traced(job, wave_spans, status="error", error=failure)
        except Exception as exc:  # a finish-loop bug still terminalises the rest
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            for job in jobs:
                wave_span = wave_spans.pop(job.id, None)
                if wave_span is not None:
                    self.tracer.end(wave_span, error=failure)
                if not job.finished or (job.future is not None and not job.future.done()):
                    self._settle(job, failure or "wave finish loop failed")

    def _finish_traced(self, job: Job, wave_spans: dict, **kwargs) -> None:
        """Finish one job under a ``service.settle`` span and close its wave."""
        wave_span = wave_spans.pop(job.id, None)
        if wave_span is None:
            self._finish(job, **kwargs)
            return
        settle_span = self.tracer.begin(
            "service.settle", parent=wave_span, status=kwargs.get("status")
        )
        try:
            self._finish(job, **kwargs)
        finally:
            self.tracer.end(settle_span)
            self.tracer.end(wave_span)

    def _graft_engine_spans(
        self, job: Job, result, engine_spans: list, wave_span: "dict | None"
    ) -> None:
        """Copy one request's engine spans into its own trace.

        A coalesced wave runs the engine once under a synthetic collector
        trace, so the engine spans of *every* rider interleave.  Each
        result's ``info["trace"]`` stamp names the ``engine.solve`` (or
        ``cache.lookup``) span that produced it; ``request_slice`` selects
        that request's subtree plus the shared per-call work, and the
        copies are re-homed onto the job's trace — orphaned parents (the
        collector's root lives in no job's trace) re-point at the job's
        ``service.wave`` span.
        """
        if self.recorder is None or wave_span is None or not engine_spans:
            return
        info = getattr(result, "info", None)
        stamp = info.get("trace") if isinstance(info, dict) else None
        if not isinstance(stamp, dict):
            return
        sliced = obs.request_slice(engine_spans, stamp.get("span_id"))
        kept_ids = {s["span_id"] for s in sliced}
        for span in sliced:
            copy = dict(span, attrs=dict(span["attrs"]), trace_id=job.trace_id)
            if copy.get("parent_id") not in kept_ids:
                copy["parent_id"] = wave_span["span_id"]
            self.recorder.record(copy)
        # Re-home the result's join stamp too: deduped siblings share the
        # result object, so the stamp names the last sibling's trace — the
        # span id stays valid in every sibling's trace.
        info["trace"] = {"trace_id": job.trace_id, "span_id": stamp.get("span_id")}

    def _finish(self, job: Job, status: str, result=None, error=None) -> None:
        job.status = status
        job.result = result
        job.error = error
        job.finished_at = time.time()
        self.admission.on_finish(job)
        self._m["responses"].inc(status=status)
        latency = job.latency_s
        if latency is not None:
            # Span-duration exemplars: the trace id rides the histogram so
            # a slow bucket points straight at a flight-recorder trace.
            self._m["latency"].observe(latency, exemplar=job.trace_id)
            self._m["tenant_latency"].observe(
                latency, exemplar=job.trace_id, tenant=job.tenant
            )
        if job.future is not None and not job.future.done():
            job.future.set_result(job)

    def _settle(self, job: Job, message: str) -> None:
        """Last-resort terminal state: never raises, always resolves."""
        try:
            if not job.finished:
                job.status = "error"
                job.error = job.error or message
                job.finished_at = job.finished_at or time.time()
                self.admission.on_finish(job)
                self._m["responses"].inc(status="error")
        except Exception:  # pragma: no cover - bookkeeping must not re-raise
            pass
        if job.future is not None and not job.future.done():
            job.future.set_result(job)

    def _solve_wave(self, jobs: "list[Job]") -> list:
        """One coalesced engine dispatch (worker thread; no job mutation).

        A wave may mix admission outcomes: admitted jobs run on the
        configured fleet, degraded jobs on their rewritten classical tier.
        Jobs are grouped by effective fleet and each group dispatches as
        its own ``solve_many`` batch — still one worker-thread hop per
        wave, and each request keeps an explicit seed and a one-item shard,
        so the determinism contract survives degradation.
        Degraded groups stamp the fleet rewrite into every result's
        ``info["admission"]``.

        With tracing on, the engine runs under a *synthetic* collector
        trace (one engine call serves many requests, so no single job's
        trace can own the live contextvars) and the collected spans return
        alongside the results; ``_run_wave`` grafts each request's slice
        into its own trace afterwards.  Returns ``(results, spans)``.
        """
        collector = obs.SpanCollector() if self.tracer is not None else None
        if collector is None:
            return self._dispatch_groups(jobs), []
        with obs.activate(collector):
            with obs.span("service.wave_solve", jobs=len(jobs)):
                results = self._dispatch_groups(jobs)
        return results, collector.drain()

    def _dispatch_groups(self, jobs: "list[Job]") -> list:
        groups: "dict[tuple | None, list[int]]" = {}
        for index, job in enumerate(jobs):
            groups.setdefault(job.backends, []).append(index)
        results: list = [None] * len(jobs)
        for fleet, indices in groups.items():
            group_results = self._solve_group(fleet, [jobs[i] for i in indices])
            if fleet is not None:
                for result in group_results:
                    result.info.setdefault(
                        "admission",
                        {
                            "action": "degrade",
                            "backends": list(fleet),
                            "fleet": list(self.config.backends),
                        },
                    )
            for index, result in zip(indices, group_results):
                results[index] = result
        return results

    def _solve_group(self, fleet: "tuple | None", jobs: "list[Job]") -> list:
        """One fleet's share of a wave, single-flight deduped.

        Requests naming the same ``(QUBO fingerprint, seed)`` are
        literally the same solve under the service's determinism contract,
        so only the first is dispatched and the rest share its result
        object (results are treated as immutable once returned).  The
        survivors go through ``solve_many`` with explicit seeds,
        single-item shards (routed one by one; stateful backends need
        them), and the fleet's scheduler, which records each solve once in
        the scoreboard and once in the durable store.
        """
        config = self.config
        order: "dict[tuple[str, int], int]" = {}
        assignment: list[int] = []
        problems: list = []
        seeds: list[int] = []
        for job in jobs:
            key = (job.problem.to_qubo().fingerprint(), job.seed)
            slot = order.get(key)
            if slot is None:
                slot = len(problems)
                order[key] = slot
                problems.append(job.problem)
                seeds.append(job.seed)
            assignment.append(slot)
        self._m["unique_solves"].inc(len(problems))
        self._m["deduped"].inc(len(jobs) - len(problems))

        from repro.api.facade import solve_many

        backends = tuple(config.backends) if fleet is None else tuple(fleet)
        results = solve_many(
            problems,
            backend=backends,
            scheduler=self.scheduler if fleet is None else self._degrade_scheduler,
            seeds=seeds,
            refine=config.refine,
            top_k=config.top_k,
            executor=config.executor,
            cache=self.cache,
            max_shard_size=1,
            store=self.store if self.store is not None else False,
            **{
                name: dict(opts)
                for name, opts in config.backend_opts.items()
                if name in backends
            },
        )
        return [results[slot] for slot in assignment]


def _scrub(value):
    """NaN/inf -> None so readiness JSON stays strict-JSON clean."""
    import math

    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    return value

"""Plan execution: the pack kernel, pack workers, caching, and portfolios.

This module owns the code that actually runs a compiled
:class:`~repro.engine.plan.ExecutionPlan`:

* :func:`_execute_pack` — the pack kernel, Problems -> QUBOs -> one
  ``Backend.run`` -> SolveResults per shard, shared by both executors.
  Every item, sampled or solved directly, takes one per-item path
  (:func:`_best_of`), and the kernel's spans are scoped, so stage spans
  nest under their item's ``engine.solve``;
* :func:`execute_plan` — cache keys and lookup, packing of the uncached
  items (:func:`_packs`), dispatch through the ``serial`` or ``processes``
  executor, cache fill, and per-result engine metadata.  It is the only
  code that produces engine results: everything below reaches the kernel
  through it;
* :func:`solve_batch` — compile, optionally route (adaptive scheduler),
  execute, record: the one path behind ``solve`` (a one-item plan),
  ``solve_many`` and the service's waves;
* :func:`run_portfolio` — several backends on one instance: one plan with
  one shard per contender (optionally narrowed by a scheduler), run
  through one :func:`execute_plan`, best objective wins.

A pack is the items one ``Backend.run`` serves.  A stateless backend
(:attr:`~repro.api.backends.Backend.stateful` ``False``) returns for each
job what a one-job call returns, so every uncached item naming it with the
same options, or on the same caller's instance, rides one call (one per
process worker).  A stateful backend gets one call per shard, on a fresh
instance when named.

Every backend holds the GIL while it samples, so the engine runs no
threads of its own: parallelism is the ``processes`` executor's.

Shard state decides caching too.  On a stateful backend item *k* of a
shard runs on state built by items ``0..k-1`` (embedding searched with the
leader's RNG, warm-start angles from its optimisation), so its key folds
in that history and the shard hits **all-or-nothing**: skipping a cached
prefix would hand later misses a fresh instance and change their samples.
A stateless item keys, hits and dispatches on its own.  Either way a hit
is byte-equivalent to a re-run, and since child seeds are fixed at plan
time, it never perturbs the RNG stream of neighbouring items.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import partial
from itertools import groupby, islice
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.cache import ResultCache, resolve_cache
from repro.engine.executors import get_executor
from repro.engine.plan import (
    ExecutionPlan,
    PlanItem,
    Shard,
    cache_keys,
    compile_plan,
    shard_backend,
)
from repro.engine.scheduler import (
    DEFAULT_ALPHA,
    _candidate_names,
    _validated_opts_map,
    result_observation,
)
from repro.engine.store import record_best_effort, resolve_store
from repro.exceptions import ReproError
from repro.obs import trace as obs
from repro.utils.rngtools import SEED_RANGE, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime imports are lazy
    from repro.api.backends import Backend
    from repro.api.problem import Problem
    from repro.api.result import SolveResult
    from repro.engine.scheduler import AdaptiveScheduler
    from repro.engine.store import EngineStore, SharedCacheTier


def _best_of(problem: Problem, backend: Backend, rng, model, samples, refine: bool,
             top_k: int, formulate_s: float, solve_s: float) -> SolveResult:
    """One item's result: the best evaluated of its candidates (each refined
    first when ``refine``).

    A sampler's candidates are the ``top_k`` lowest-energy of its
    ``samples``, decoded; ``solve_s`` is the item's share of the pack's
    sampling.  A direct-solve backend (``samples`` is ``None``) has one
    candidate, ``backend.solve_problem`` on the item's ``rng``, timed here
    as its ``solve_time``; it decodes nothing (``decode_time`` 0.0) and its
    ``energy`` is NaN by convention (see
    :class:`~repro.api.result.SolveResult`).  ``wall_time`` is the item's
    formulate and solve seconds plus its own decode, refine and evaluate.
    """
    from repro.api.result import SolveResult

    start = time.perf_counter()
    if samples is None:
        candidates = [backend.solve_problem(problem, rng=rng)]
        solve_s = time.perf_counter() - start
        decode_s, spent_s = 0.0, formulate_s  # seconds spent before this call
        energy, info = math.nan, {"solver": backend.name}
    else:
        candidates = [problem.decode(sample.bits) for sample in islice(samples, max(top_k, 1))]
        decode_s, spent_s = time.perf_counter() - start, formulate_s + solve_s
        energy, info = samples.best.energy, dict(samples.info)
    solution, objective = None, math.inf
    refine_s = evaluate_s = 0.0
    for candidate in candidates:
        t1 = time.perf_counter()
        if refine:
            candidate = problem.refine(candidate)
        t2 = time.perf_counter()
        value = problem.evaluate(candidate)
        refine_s += t2 - t1
        evaluate_s += time.perf_counter() - t2
        if value < objective:
            solution, objective = candidate, value
    info["timings"] = {
        "formulate_time": formulate_s,
        "solve_time": solve_s,
        "decode_time": decode_s,
        "refine_time": refine_s,
        "evaluate_time": evaluate_s,
    }
    return SolveResult(
        problem=problem.name,
        method=backend.name,
        solution=solution,
        objective=objective,
        energy=energy,
        wall_time=spent_s + time.perf_counter() - start,
        num_variables=model.num_variables,
        info=info,
    )


# -- pack execution ---------------------------------------------------------


def _packs(plan: ExecutionPlan, dispatched: "list[tuple[int, list[int]]]",
           workers: int) -> "list[list[tuple[int, list[int]]]]":
    """Group the dispatched items into packs, one ``Backend.run`` each.

    ``dispatched`` and each pack list ``(shard id, positions)`` in plan
    order.  A stateful backend's shard is a pack of its own.  A stateless
    backend's items are grouped by ``(backend name, options)``, or by
    instance (two instances never share a pack), and each group is cut into
    at most ``workers`` contiguous packs whose sizes differ by at most one.
    """
    groups: dict = {}
    packs: list = []
    for shard_id, positions in dispatched:
        shard = plan.shards[shard_id]
        if shard.stateful:
            packs.append([(shard_id, positions)])
        else:
            backend = shard.backend if isinstance(shard.backend, str) else id(shard.backend)
            key = (backend, repr(sorted(shard.backend_opts.items())))
            groups.setdefault(key, []).extend((shard_id, pos) for pos in positions)
    for group in groups.values():
        count = min(workers, len(group))
        for k in range(count):
            cut = group[k * len(group) // count:(k + 1) * len(group) // count]
            packs.append([(shard_id, [pos for _, pos in run])
                          for shard_id, run in groupby(cut, key=lambda job: job[0])])
    return packs


def _pack_payload(plan: ExecutionPlan, pack: list, executor_name: str) -> dict:
    shards = []  # each trimmed to the positions this pack runs
    for shard_id, positions in pack:
        shard = plan.shards[shard_id]
        shards.append((shard_id, replace(shard, items=[shard.items[pos] for pos in positions])))
    return {
        "shards": shards,
        "refine": plan.refine,
        "top_k": plan.top_k,
        "executor": executor_name,
        # Picklable trace context: process workers share nothing, so
        # parentage rides the payload.
        "trace": obs.current_context(),
    }


def _engine_info(result, shard_id: int, shard: Shard, pos: int, executor: str,
                 cache_time: float, cache_tier: "str | None" = None) -> None:
    """Attach ``info["engine"]`` including the wall-time split.

    One stamp for fresh results and cache hits alike (a hit's stored block
    is replaced, so it never carries the writer's batch telemetry).  The
    kernel seconds (:data:`~repro.api.result.KERNEL_TIMINGS`) come from the
    kernel's ``info["timings"]``; ``cache_time`` is the shard's
    cache-probe seconds.
    """
    from repro.api.result import KERNEL_TIMINGS

    item = shard.items[pos]
    timings = result.info.get("timings") or {}
    engine = {
        "shard": shard_id,
        "shard_pos": pos,
        "shard_size": len(shard.items),
        "signature": shard.signature,
        "executor": executor,
        "seed": item.seed if isinstance(item.seed, int) else None,
        "fingerprint": item.fingerprint[:16],
        "cache_hit": cache_tier is not None,
    }
    if cache_tier is not None:
        engine["cache_tier"] = cache_tier
    if item.label is not None:
        engine["label"] = item.label
    for key in KERNEL_TIMINGS:
        engine[key] = timings.get(key, 0.0)
    engine["cache_time"] = cache_time
    result.info["engine"] = engine


def _execute_pack(payload: dict) -> dict:
    """The pack kernel, run on one backend; module-level for pickling.

    Formulate every item of every shard in the pack; a sampling backend
    then gets **one** ``Backend.run`` over every item's ``(model, rng)``,
    and each item's ``solve_time`` is an equal share of that call.  Items
    are passed in pack order — shard by shard, each in shard order — so
    signature-keyed backend caches (embeddings, warm-start angles)
    amortise across a stateful backend's one-shard pack.  Every item then
    takes the one per-item path, :func:`_best_of`, which also runs a
    direct-solve backend (``classical``) on the item's rng.  A live
    Generator seed (an uncacheable one-item plan) is drawn in place.

    One ``engine.dispatch`` span holds formulation and the one ``run``;
    under it, one ``engine.shard`` span per shard holds that shard's
    ``engine.solve`` spans, one per item.  They are scoped spans on a
    collector of the pack's own, opened only when the payload carries a
    trace context, so a span opened inside a stage nests under its item's
    ``engine.solve`` on either executor; without one every span here is
    the shared no-op.

    Returns ``{"results": [[...], ...], "spans": [...]}`` — results per
    shard in pack order, each in shard order, and the collected spans, so
    the dispatching side can re-emit them regardless of executor.
    """
    from repro.api.backends import get_backend

    shards = payload["shards"]
    lead = shards[0][1]
    items = [item for _, shard in shards for item in shard.items]
    refine, top_k, executor = payload["refine"], payload["top_k"], payload["executor"]
    backend = lead.backend
    if isinstance(backend, str):
        backend = get_backend(backend, **lead.backend_opts)
    context = payload["trace"]
    tracer = None if context is None else obs.SpanCollector()
    root = obs.span if tracer is None else partial(tracer.span, parent=context)
    out = []
    with obs.activate(tracer), root(
        "engine.dispatch", backend=backend.name, executor=executor,
        shards=[shard_id for shard_id, _ in shards], items=len(items),
    ):
        rngs = [np.random.default_rng(item.seed) for item in items]
        models, formulate_s = [], []
        for item in items:
            t0 = time.perf_counter()
            models.append(item.problem.to_qubo())
            formulate_s.append(time.perf_counter() - t0)
        sample_sets, share = [None] * len(items), 0.0
        if not backend.solves_problem_directly:
            t0 = time.perf_counter()
            sample_sets = backend.run(list(zip(models, rngs)))
            share = (time.perf_counter() - t0) / len(items)
            if len(sample_sets) != len(items):
                raise ReproError(
                    f"backend {backend.name!r} returned {len(sample_sets)} sample sets "
                    f"for {len(items)} jobs"
                )
        k = 0
        for shard_id, shard in shards:
            results = []
            with obs.span("engine.shard", shard=shard_id, shard_size=len(shard.items),
                          signature=shard.signature, backend=backend.name, executor=executor):
                for item in shard.items:
                    with obs.span(
                        "engine.solve", shard=shard_id, index=item.index,
                        seed=item.seed if isinstance(item.seed, int) else None,
                        fingerprint=item.fingerprint[:16],
                    ) as span:
                        result = _best_of(item.problem, backend, rngs[k], models[k],
                                          sample_sets[k], refine, top_k, formulate_s[k], share)
                    if span.span_id is not None:
                        result.info["trace"] = {"trace_id": span.trace_id,
                                                "span_id": span.span_id}
                    results.append(result)
                    k += 1
            out.append(results)
    return {"results": out, "spans": [] if tracer is None else tracer.drain()}


def execute_plan(
    plan: ExecutionPlan,
    executor: str = "serial",
    cache: "ResultCache | bool | None" = None,
    tier: "SharedCacheTier | None" = None,
) -> list[SolveResult]:
    """Run a compiled plan as **one** dispatch wave; results in batch order.

    Every uncached item is handed to the executor together, whichever
    backend it names, so a scheduler-routed batch spread over several
    backends parallelises exactly as widely as a single-backend batch.
    Seeds and shard membership are fixed at compile time, so the executor
    cannot perturb any result.

    With a cache, each shard's keys are derived once, at probe time, and
    reused for the fill; hits follow the module docstring's rule.  Every
    result's ``info["engine"]`` records shard, position, structure
    signature, executor, seed, truncated fingerprint, and whether it was
    served from cache — plus, for a routed shard, the scheduler's decision
    under ``"scheduler"``.  ``tier`` (an
    :class:`~repro.engine.store.SharedCacheTier`) is the durable tier the
    cache reads through and writes to for this call only.
    """
    runner = get_executor(executor)
    cache = resolve_cache(cache)
    if not plan.cacheable:
        cache = None  # instances carry opaque state; live Generators move
    with obs.span("engine.execute", executor=runner.name) as exec_span:
        results: list = [None] * len(plan.items)
        keys: dict[int, list[str]] = {}
        probes = [0.0] * len(plan.shards)  # cache-probe seconds per shard
        dispatched: list[tuple[int, list[int]]] = []  # (shard id, positions to run)
        for shard_id, shard in enumerate(plan.shards):
            misses = list(range(len(shard.items)))
            if cache is not None:
                with obs.span(
                    "cache.lookup", shard=shard_id, items=len(shard.items)
                ) as cache_span:
                    probe_t0 = time.perf_counter()
                    keys[shard_id] = cache_keys(shard, plan.refine, plan.top_k)
                    if shard.stateful:  # stateful shards hit all-or-nothing
                        looked = cache.lookup_all(keys[shard_id], tier)
                    else:
                        looked = [cache.lookup(key, tier) for key in keys[shard_id]]
                    probes[shard_id] = time.perf_counter() - probe_t0
                    hit = [value is not None for value, _ in looked]
                    misses = [pos for pos, h in enumerate(hit) if not h]
                    served = [pos for pos, h in enumerate(hit) if h]
                    # The span's tier is the slowest any served item touched.
                    cache_span.set(hit=bool(served), tier=max(
                        (looked[pos][1] for pos in served), key=("memory", "store").index,
                        default=None))
                for pos in served:
                    result, label = looked[pos]
                    _engine_info(result, shard_id, shard, pos, runner.name,
                                 probes[shard_id], label)
                    if cache_span.span_id is not None:
                        result.info["trace"] = {
                            "trace_id": cache_span.trace_id,
                            "span_id": cache_span.span_id,
                        }
                    results[shard.items[pos].index] = result
            if misses:
                dispatched.append((shard_id, misses))

        packs = _packs(plan, dispatched, runner.workers)
        payloads = [_pack_payload(plan, pack, runner.name) for pack in packs]
        for pack, pack_out in zip(packs, runner.run(_execute_pack, payloads)):
            obs.ingest(pack_out["spans"])
            for (shard_id, positions), shard_results in zip(pack, pack_out["results"]):
                shard = plan.shards[shard_id]
                for pos, result in zip(positions, shard_results):
                    _engine_info(result, shard_id, shard, pos, runner.name, probes[shard_id])
                    results[shard.items[pos].index] = result
                    if cache is not None:
                        cache.put(keys[shard_id][pos], result, tier)

        # Routing is stamped after the cache fill: a stored entry must not
        # carry the decision of the batch that happened to write it.
        for shard in plan.shards:
            if shard.routing is not None:
                for item in shard.items:
                    results[item.index].info["engine"]["scheduler"] = dict(shard.routing)
        exec_span.set(shards_dispatched=len(dispatched), packs=len(packs))
    return results


def _record_observations(
    ops: "list[tuple]",
    scheduler: "AdaptiveScheduler | None",
    durable: "EngineStore | None",
) -> None:
    """Feed one call's observation ops to every scoreboard it touches, once.

    The scheduler's live scoreboard (when there is one) applies them; the
    call's durable store (when it named one) replays them under the
    ``store.checkpoint`` span, with the live scoreboard's alpha so stored
    and live statistics run the same arithmetic.  A failed durable write
    warns instead of raising — the results already exist — and its ops stay
    on the store handle for its next record to replay.
    """
    if scheduler is not None:
        scheduler.scoreboard.apply(ops)
    if durable is None or not ops:
        return
    alpha = scheduler.scoreboard.alpha if scheduler is not None else DEFAULT_ALPHA

    def write() -> None:
        with obs.span("store.checkpoint", observations=len(ops)):
            durable.scoreboard.record(ops, alpha=alpha)

    record_best_effort(write, "scoreboard record")


def solve_batch(
    problems,
    backend: "str | Backend | Sequence[str]" = "sa",
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = 8,
    executor: str = "serial",
    cache: "ResultCache | bool | None" = None,
    max_shard_size: "int | None" = None,
    backend_opts: "dict | None" = None,
    store=None,
    seeds=None,
    labels=None,
    scheduler: "AdaptiveScheduler | None" = None,
) -> list[SolveResult]:
    """Compile + execute in one call: the engine behind ``repro.solve`` and
    ``repro.solve_many``.

    Without a ``scheduler`` the compiled plan runs as is.  With an
    :class:`~repro.engine.scheduler.AdaptiveScheduler`, ``backend`` may be
    a sequence of registry names and ``backend_opts`` is portfolio-style
    (per-backend factory options keyed by name): the batch is compiled
    once, every shard is routed up front
    (:meth:`~repro.engine.scheduler.AdaptiveScheduler.route` rewrites each
    shard's backend in place), the plan runs as one dispatch wave, and
    when the whole batch has returned every result is fed to the
    scheduler's scoreboard.  Item seeds
    are the compiled ones regardless of routing, so two runs with equal
    scheduler state solve every item identically on any executor.

    With a durable ``store`` (a path, an
    :class:`~repro.engine.store.EngineStore`, or ``None`` + ``REPRO_STORE``),
    this call — and only this call — uses it: a scheduler's scoreboard
    hydrates from it before routing (pairs it already holds are kept),
    results flow through the store's shared cache tier (under a fresh
    memory cache when ``cache`` is off: a store is an explicit request for
    result reuse), and at the batch boundary every result is recorded into
    the durable scoreboard exactly once (see :func:`_record_observations`),
    scheduled or not.  ``store=False`` records nothing durable; the live
    scoreboard still learns.

    ``seeds`` passes explicit per-item child seeds to the planner (see
    :func:`~repro.engine.plan.compile_plan`); ``seed`` is ignored when set.
    ``labels`` tags items for telemetry (``info["engine"]["label"]``)
    without affecting sharding, seeding, or cache keys.
    """
    from repro.api.backends import Backend

    durable = resolve_store(store)
    if scheduler is not None:
        names = _candidate_names([backend] if isinstance(backend, (str, Backend)) else backend)
        opts_map, stateful = _validated_opts_map(backend_opts, names)
        backend, backend_opts = names[0], opts_map.get(names[0], {})
        if durable is not None:
            scheduler.scoreboard.hydrate(durable)
    elif not isinstance(backend, (str, Backend)):
        raise ReproError(
            "a sequence of candidate backends requires scheduler=; pass an "
            "AdaptiveScheduler or select one backend"
        )
    with obs.span("engine.plan_compile") as plan_span:
        plan = compile_plan(
            problems,
            backend,
            seed=seed,
            refine=refine,
            top_k=top_k,
            backend_opts=backend_opts,
            max_shard_size=max_shard_size,
            seeds=seeds,
            labels=labels,
        )
        plan_span.set(items=len(plan.items), shards=len(plan.shards))
    if scheduler is not None:
        scheduler.route(plan, names, opts_map, stateful)
    cache = resolve_cache(cache)
    tier = None
    if durable is not None:
        tier = durable.cache
        cache = cache if cache is not None else ResultCache()
    results = execute_plan(plan, executor=executor, cache=cache, tier=tier)
    _record_observations([result_observation(r) for r in results], scheduler, durable)
    return results


# -- portfolios --------------------------------------------------------------


def run_portfolio(
    problem: Problem,
    backends,
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = 8,
    backend_opts: "dict | None" = None,
    store=None,
    scheduler: "AdaptiveScheduler | None" = None,
) -> SolveResult:
    """Run several backends on one instance; return the best result.

    The portfolio is one plan with one shard per contender, in contender
    order, run through one :func:`execute_plan` on the ``serial`` executor
    without a cache.  The problem is formulated, signed and fingerprinted
    once; contender *i* gets child seed *i* of ``seed`` (the split
    ``compile_plan`` makes), so the portfolio is reproducible as a whole
    and each contender equals a standalone ``solve`` with its seed.  A lone
    name or instance is a one-contender portfolio; a failing contender
    raises.

    With an :class:`~repro.engine.scheduler.AdaptiveScheduler` the
    portfolio is narrowed first
    (:meth:`~repro.engine.scheduler.AdaptiveScheduler.select_contenders`):
    only the scoreboard's top ``race_top_k`` candidates for this
    instance's structure get a shard — contenders must then be registry
    names — and the winner's ``info["portfolio_meta"]["scheduler"]``
    records the ranking, the raced subset, and the exploration flag.  The
    scheduler's ``deadline_s`` shapes routing feasibility only.

    A durable ``store`` is used by this call only, as in
    :func:`solve_batch`: a scheduler's scoreboard hydrates from it before
    contenders are selected, and every contender's outcome is recorded
    into it once.  ``store=False`` records nothing durable.
    """
    from repro.api.backends import Backend

    durable = resolve_store(store)
    backends = [backends] if isinstance(backends, (str, Backend)) else list(backends)
    if not backends:
        raise ReproError("portfolio needs at least one backend")
    opts_map = dict(backend_opts or {})
    unknown = set(opts_map) - {b for b in backends if isinstance(b, str)}
    if unknown:
        raise ReproError(
            f"backend_opts for {sorted(unknown)} match no named backend in the portfolio"
        )
    if scheduler is not None and durable is not None:
        scheduler.scoreboard.hydrate(durable)
    with obs.span("engine.plan_compile") as plan_span:
        model = problem.to_qubo()
        signature = model.signature()
        routing = None
        if scheduler is not None:
            backends, routing = scheduler.select_contenders(signature, backends)
        seeds = ensure_rng(seed).integers(0, SEED_RANGE, size=len(backends))
        fingerprint = model.fingerprint()
        plan = ExecutionPlan([], [], refine, top_k)
        for index, (backend, child_seed) in enumerate(zip(backends, seeds)):
            item = PlanItem(index, problem, int(child_seed), index, fingerprint)
            opts = opts_map.get(backend) if isinstance(backend, str) else None
            plan.items.append(item)
            plan.shards.append(Shard([item], signature, *shard_backend(backend, opts)))
        plan_span.set(items=len(plan.items), shards=len(plan.shards))
    results = execute_plan(plan)
    _record_observations([result_observation(r) for r in results], scheduler, durable)
    best = min(results, key=lambda r: r.objective)
    best.info["portfolio"] = [
        {"method": r.method, "objective": r.objective, "wall_time": r.wall_time,
         "status": "completed"}
        for r in results
    ]
    best.info["portfolio_meta"] = {"contenders": len(results)}
    if scheduler is not None:
        best.info["portfolio_meta"]["scheduler"] = routing
    return best

"""Service-tier benchmark: coalesced waves vs sequential single solves.

One claim, asserted: for a burst of concurrent single-solve requests, the
service's coalescing queue dispatches **at least 4x fewer engine waves
than requests** and finishes the burst **no slower than solving each
request sequentially through the facade** — at *identical objectives*,
because explicit per-request seeds plus single-item shards make every
coalesced solve bit-identical to its direct counterpart.

The throughput edge is structural, not a scheduling coincidence: the burst
contains duplicate ``(problem, seed)`` requests (as real traffic does —
specs are content-addressable), and single-flight dedup halves the engine
work before the thread pool even starts, so the claim holds on a
single-core runner too.

A second scenario pins the admission-control claim under overload: one
best_effort tenant flooding 4x the queue depth cannot push interactive
latency past 2x its unloaded baseline — the flood is shed (429 +
``Retry-After``) or degraded to the classical tier, never timed out, and
every admitted result (degraded or not) stays bit-identical to its direct
``solve()`` counterpart.

Emits ``BENCH_<run>_service.json`` (one section per scenario, merged so
both runs land in a single CI trajectory artifact) alongside
``bench_engine.py``'s file.
"""

import asyncio
import math
import time

from trajectory import emit_bench_json

from repro.api.facade import solve
from repro.service import AdmissionShed, ServiceConfig, SolverService, problem_from_spec

#: 16 unique (instance, seed) requests, each submitted twice: 32 requests.
UNIQUE_INSTANCES = 8
SEEDS_PER_INSTANCE = 2
DUPLICATES = 2
SA_OPTS = dict(num_reads=8, num_sweeps=150)


def _burst():
    """The request burst: (spec, seed) pairs with every pair repeated."""
    requests = [
        (
            {
                "kind": "mqo",
                "num_queries": 4,
                "plans_per_query": 3,
                "sharing_density": 0.4,
                "instance_seed": instance,
            },
            seed,
        )
        for instance in range(UNIQUE_INSTANCES)
        for seed in range(SEEDS_PER_INSTANCE)
    ]
    return requests * DUPLICATES


def _p95(values):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def test_coalesced_burst_beats_sequential_at_equal_objectives(benchmark):
    requests = _burst()
    assert len(requests) >= 16

    def sequential():
        t0 = time.perf_counter()
        results = [
            solve(problem_from_spec(spec), backend="sa", seed=seed, **SA_OPTS)
            for spec, seed in requests
        ]
        return results, time.perf_counter() - t0

    async def burst_through_service():
        service = SolverService(
            ServiceConfig(
                window_s=0.5,
                max_wave=len(requests),
                backends=("sa",),
                backend_opts={"sa": dict(SA_OPTS)},
                executor="threads",
            )
        )
        await service.start()
        t0 = time.perf_counter()
        jobs = [service.submit(spec, seed=seed) for spec, seed in requests]
        await asyncio.gather(*[job.future for job in jobs])
        elapsed = time.perf_counter() - t0
        await service.shutdown()
        return service, jobs, elapsed

    def kernel():
        direct, sequential_s = sequential()
        service, jobs, service_s = asyncio.run(burst_through_service())
        return direct, sequential_s, service, jobs, service_s

    direct, sequential_s, service, jobs, service_s = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )

    # Identical results, request by request.
    for reference, job in zip(direct, jobs):
        assert job.status == "done"
        assert reference.objective == job.result.objective
        assert reference.solution == job.result.solution

    # Coalescing: >= 4x fewer waves than requests.
    waves = service._m["waves"].value()
    unique = service._m["unique_solves"].value()
    deduped = service._m["deduped"].value()
    assert waves <= len(requests) / 4, f"{waves} waves for {len(requests)} requests"
    assert unique + deduped == len(requests)
    assert deduped >= len(requests) // DUPLICATES  # single-flight dedup worked

    # Throughput: the coalesced burst must not lose to sequential solving.
    assert service_s <= sequential_s, (
        f"coalesced burst took {service_s:.3f}s vs sequential {sequential_s:.3f}s"
    )

    path = emit_bench_json(
        "coalescing_burst",
        {
            "benchmark": "service_coalescing_burst",
            "requests": len(requests),
            "unique_solves": unique,
            "deduped_requests": deduped,
            "waves": waves,
            "coalescing_ratio": len(requests) / waves,
            "sequential_s": round(sequential_s, 4),
            "service_s": round(service_s, 4),
            "speedup": round(sequential_s / service_s, 3) if service_s else None,
            "mean_objective": round(
                sum(r.objective for r in direct) / len(direct), 6
            ),
        },
        suffix="_service",
    )
    print(
        f"\n[bench_service] {len(requests)} requests -> {int(waves)} wave(s), "
        f"{int(unique)} engine solves; sequential {sequential_s:.3f}s, "
        f"coalesced {service_s:.3f}s -> {path}"
    )


# -- overload: admission control under a best_effort flood -------------------

FLOOD_FACTOR = 4          #: flood size as a multiple of max_queue_depth
OVERLOAD_DEPTH = 16       #: max_queue_depth for the overload service
OVERLOAD_WAVE = 8
INTERACTIVE_REQUESTS = 8
OVERLOAD_SA_OPTS = dict(num_reads=8, num_sweeps=150)


def _overload_config(**overrides):
    defaults = dict(
        window_s=0.05,
        max_wave=OVERLOAD_WAVE,
        max_queue_depth=OVERLOAD_DEPTH,
        backends=("sa",),
        backend_opts={"sa": dict(OVERLOAD_SA_OPTS)},
        executor="threads",
        degrade_backends=("tabu",),
        # The flood tenant may hold 25% of the queue and has *no* backend
        # budget: whatever it does get admitted runs on the classical tier.
        tenants={"flood": {"queue_share": 0.25, "backend_seconds": 0.0}},
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _interactive_spec(i):
    return {
        "kind": "mqo",
        "num_queries": 4,
        "plans_per_query": 3,
        "sharing_density": 0.4,
        "instance_seed": 40 + i,
    }


def test_overload_flood_sheds_while_interactive_stays_fast():
    flood_total = FLOOD_FACTOR * OVERLOAD_DEPTH  # 64 best_effort requests

    async def unloaded_baseline():
        """The same interactive traffic with no flood: the p95 yardstick."""
        service = SolverService(_overload_config())
        await service.start()
        jobs = []
        for i in range(INTERACTIVE_REQUESTS):
            jobs.append(service.submit(_interactive_spec(i), seed=i,
                                       tenant="dash", priority="interactive"))
            await asyncio.sleep(0.01)
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return [job.latency_s for job in jobs]

    async def overloaded():
        service = SolverService(_overload_config())
        await service.start()
        admitted_floods, sheds, interactive = [], [], []
        flood_seed = 0
        for chunk in range(INTERACTIVE_REQUESTS):
            for _ in range(flood_total // INTERACTIVE_REQUESTS):
                spec = {
                    "kind": "mqo",
                    "num_queries": 4,
                    "plans_per_query": 3,
                    "sharing_density": 0.4,
                    "instance_seed": 100 + flood_seed,
                }
                try:
                    job = service.submit(spec, seed=flood_seed, tenant="flood",
                                         priority="best_effort")
                    admitted_floods.append(job)
                except AdmissionShed as exc:
                    sheds.append(exc)
                flood_seed += 1
            # One interactive request lands mid-flood, every chunk.
            interactive.append(
                service.submit(_interactive_spec(chunk), seed=chunk,
                               tenant="dash", priority="interactive")
            )
            await asyncio.sleep(0.01)  # let waves dispatch and drain
        await asyncio.gather(
            *[job.future for job in interactive],
            *[job.future for job in admitted_floods],
        )
        await service.shutdown()
        return service, admitted_floods, sheds, interactive

    t0 = time.perf_counter()
    baseline_latencies = asyncio.run(unloaded_baseline())
    service, admitted_floods, sheds, interactive = asyncio.run(overloaded())
    elapsed = time.perf_counter() - t0

    # Every interactive request was admitted (submit() raised for none)
    # and finished; the flood never starved or timed them out.
    assert len(interactive) == INTERACTIVE_REQUESTS
    assert all(job.status == "done" for job in interactive)
    p95_baseline = _p95(baseline_latencies)
    p95_loaded = _p95([job.latency_s for job in interactive])
    # The acceptance bar: p95 under flood <= 2x unloaded p95 (a small
    # additive floor keeps sub-100ms baselines from amplifying scheduler
    # jitter into flakes).
    assert p95_loaded <= 2 * p95_baseline + 0.25, (
        f"interactive p95 {p95_loaded:.3f}s vs unloaded {p95_baseline:.3f}s"
    )

    # The flood was contained: every request either shed with a usable
    # Retry-After or ran degraded on the classical tier — none timed out.
    assert len(sheds) + len(admitted_floods) == flood_total
    assert sheds, "the flood never hit a shed decision"
    assert admitted_floods, "the flood was shed entirely; degrade path untested"
    assert all(exc.retry_after_s >= 1 for exc in sheds)
    assert all(exc.reason in ("queue_share", "queue_full") for exc in sheds)
    for job in admitted_floods:
        assert job.status == "done"  # degraded, not dropped
        assert job.admission["action"] == "degrade"
        assert job.admission["reason"] == "backend_seconds"
        assert job.result.info["admission"]["backends"] == ["tabu"]
        assert job.result.method == "tabu"

    # Determinism survives admission: interactive results match direct
    # solves on the fleet, degraded floods match direct solves on the
    # degraded backend (spot-check a handful to bound runtime).
    for job in interactive:
        direct = solve(problem_from_spec(job.spec), backend="sa",
                       seed=job.seed, **OVERLOAD_SA_OPTS)
        assert direct.objective == job.result.objective
        assert direct.solution == job.result.solution
    for job in admitted_floods[:6]:
        direct = solve(problem_from_spec(job.spec), backend="tabu", seed=job.seed)
        assert direct.objective == job.result.objective
        assert direct.solution == job.result.solution

    shed_count = len(sheds)
    degraded_count = len(admitted_floods)
    path = emit_bench_json(
        "overload",
        {
            "benchmark": "service_admission_overload",
            "flood_requests": flood_total,
            "flood_shed": shed_count,
            "flood_degraded": degraded_count,
            "interactive_requests": INTERACTIVE_REQUESTS,
            "interactive_p95_s": round(p95_loaded, 4),
            "unloaded_p95_s": round(p95_baseline, 4),
            "p95_ratio": round(p95_loaded / p95_baseline, 3) if p95_baseline else None,
            "mean_retry_after_s": round(
                sum(exc.retry_after_s for exc in sheds) / shed_count, 3
            ),
            "wall_s": round(elapsed, 4),
        },
        suffix="_service",
    )
    print(
        f"\n[bench_service] overload: {flood_total} best_effort floods -> "
        f"{shed_count} shed / {degraded_count} degraded; interactive p95 "
        f"{p95_loaded:.3f}s (unloaded {p95_baseline:.3f}s) -> {path}"
    )

"""Service-tier benchmark: coalesced waves vs sequential single solves.

One claim, asserted: for a burst of concurrent single-solve requests, the
service's coalescing queue dispatches **at least 4x fewer engine waves
than requests** and solves each unique ``(problem, seed)`` pair once — at
*identical objectives* to solving each request sequentially through the
facade, because explicit per-request seeds plus single-item shards make
every coalesced solve bit-identical to its direct counterpart.  The burst
contains duplicate requests (as real traffic does — specs are
content-addressable), so single-flight dedup halves the engine work.
Service latency and throughput are layerbench's ``service-steady``
workload.

A second scenario pins the admission-control claim under overload: one
best_effort tenant flooding 4x the queue depth never gets ahead of the
interactive traffic — no best_effort job submitted after an interactive
one rides an earlier wave — and the flood is shed (429 + ``Retry-After``)
or degraded to the classical tier, never timed out, with every admitted
result (degraded or not) bit-identical to its direct ``solve()``
counterpart.

A third scenario pins the adaptive hold, on the traffic ``service-steady``
does not have: a trickle of requests spaced ten windows apart dispatches
one wave per request without holding the window after the first (no
companion is coming), and a burst right after it still coalesces into
at least 4x fewer waves than requests, every result identical to its
direct ``solve()``.
"""

import asyncio

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


def test_coalesced_burst_beats_sequential_at_equal_objectives():
    requests = _burst()
    assert len(requests) >= 16

    async def burst_through_service():
        service = SolverService(
            ServiceConfig(
                window_s=0.5,
                max_wave=len(requests),
                backends=("sa",),
                backend_opts={"sa": dict(SA_OPTS)},
            )
        )
        await service.start()
        jobs = [service.submit(spec, seed=seed) for spec, seed in requests]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service, jobs

    direct = [
        solve(problem_from_spec(spec), backend="sa", seed=seed, **SA_OPTS)
        for spec, seed in requests
    ]
    service, jobs = asyncio.run(burst_through_service())

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
    # Each unique (instance, seed) pair is solved exactly once.
    assert unique == UNIQUE_INSTANCES * SEEDS_PER_INSTANCE


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


def test_overload_flood_sheds_while_interactive_stays_ahead():
    flood_total = FLOOD_FACTOR * OVERLOAD_DEPTH  # 64 best_effort requests

    async def overloaded():
        service = SolverService(_overload_config())
        await service.start()
        admitted_floods, sheds, interactive = [], [], []
        submitted = []  # every admitted job, in submission order
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
                    submitted.append(job)
                except AdmissionShed as exc:
                    sheds.append(exc)
                flood_seed += 1
            # One interactive request lands mid-flood, every chunk.
            job = service.submit(_interactive_spec(chunk), seed=chunk,
                                 tenant="dash", priority="interactive")
            interactive.append(job)
            submitted.append(job)
            await asyncio.sleep(0.01)  # let waves dispatch and drain
        await asyncio.gather(*[job.future for job in submitted])
        await service.shutdown()
        return admitted_floods, sheds, interactive, submitted

    admitted_floods, sheds, interactive, submitted = asyncio.run(overloaded())

    # Every interactive request was admitted (submit() raised for none)
    # and finished; the flood never starved or timed them out.
    assert len(interactive) == INTERACTIVE_REQUESTS
    assert all(job.status == "done" for job in interactive)
    # The flood never overtakes: a best_effort job submitted after an
    # interactive one rides the same wave or a later one, never an earlier.
    for pos, job in enumerate(submitted):
        if job.priority == "interactive":
            overtakers = [
                later for later in submitted[pos + 1:]
                if later.priority == "best_effort" and later.wave < job.wave
            ]
            assert not overtakers, (
                f"interactive job in wave {job.wave} overtaken by "
                f"{[later.wave for later in overtakers]}"
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


# -- adaptive hold: a trickle, then a burst ----------------------------------

TRICKLE_WINDOW = 0.02
TRICKLE_REQUESTS = 6
TRICKLE_BURST = 16


def _mqo_spec(instance):
    return {"kind": "mqo", "num_queries": 4, "plans_per_query": 3,
            "sharing_density": 0.4, "instance_seed": instance}


def test_trickle_skips_the_hold_and_a_burst_still_coalesces():
    async def trickle_then_burst():
        service = SolverService(
            ServiceConfig(
                window_s=TRICKLE_WINDOW,
                max_wave=TRICKLE_BURST,
                backends=("sa",),
                backend_opts={"sa": dict(SA_OPTS)},
            )
        )
        holds = service._m["holds"]
        await service.start()
        trickle, decisions = [], []
        for i in range(TRICKLE_REQUESTS):
            await asyncio.sleep(10 * TRICKLE_WINDOW)
            before = holds.value(decision="held")
            job = service.submit(_mqo_spec(60 + i), seed=i)
            await job.future
            trickle.append(job)
            decisions.append("held" if holds.value(decision="held") > before else "skipped")
        trickle_waves = service._m["waves"].value()
        await asyncio.sleep(10 * TRICKLE_WINDOW)
        burst = [service.submit(_mqo_spec(80 + i), seed=i) for i in range(TRICKLE_BURST)]
        await asyncio.gather(*[job.future for job in burst])
        burst_waves = service._m["waves"].value() - trickle_waves
        await service.shutdown()
        return trickle, decisions, trickle_waves, burst, burst_waves

    trickle, decisions, trickle_waves, burst, burst_waves = asyncio.run(trickle_then_burst())

    # The trickle: one wave per request, and no hold once a gap is known.
    assert trickle_waves == TRICKLE_REQUESTS
    assert len({job.wave for job in trickle}) == TRICKLE_REQUESTS
    assert decisions[1:] == ["skipped"] * (TRICKLE_REQUESTS - 1), decisions
    # The burst still coalesces.
    assert burst_waves <= len(burst) / 4, f"{burst_waves} waves for {len(burst)} requests"
    for job in trickle + burst:
        assert job.status == "done"
        direct = solve(problem_from_spec(job.spec), backend="sa", seed=job.seed, **SA_OPTS)
        assert direct.objective == job.result.objective
        assert direct.solution == job.result.solution

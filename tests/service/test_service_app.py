"""SolverService lifecycle: coalescing determinism, jobs, drain, metrics.

The acceptance claim under test: N concurrent submissions coalesce into
waves (at least 4x fewer waves than requests at N=16) while every result
stays **bit-identical** to a direct ``repro.solve`` call with the same
problem and seed — coalescing amortises dispatch, it never changes math.
Wave composition is pinned by the size trigger (``max_wave`` = the number
of pending submissions, window far in the future), not by real-time races.
"""

import asyncio
import math

import pytest

from repro.api.facade import solve
from repro.exceptions import ReproError
from repro.service import ServiceConfig, SolverService, problem_from_spec

MQO_SPEC = {
    "kind": "mqo",
    "num_queries": 3,
    "plans_per_query": 3,
    "sharing_density": 0.4,
    "instance_seed": 7,
}
FAST_SA = {"sa": {"num_reads": 4, "num_sweeps": 50}}


def make_service(**overrides) -> SolverService:
    defaults = dict(
        window_s=30.0,  # only the size trigger can dispatch
        backends=("sa",),
        backend_opts=FAST_SA,
    )
    defaults.update(overrides)
    return SolverService(ServiceConfig(**defaults))


def test_concurrent_submissions_coalesce_and_match_direct_solves():
    async def scenario():
        seeds = [s % 4 for s in range(16)]  # 16 requests over 4 distinct seeds
        service = make_service(max_wave=16)
        await service.start()
        jobs = [service.submit(MQO_SPEC, seed=s) for s in seeds]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service, jobs

    service, jobs = asyncio.run(scenario())

    # >= 4x fewer waves than requests (here: exactly one wave for all 16).
    waves = service._m["waves"].value()
    assert waves == 1
    assert len(jobs) / waves >= 4
    assert service._m["deduped"].value() == 12  # 16 requests, 4 unique solves
    assert service._m["unique_solves"].value() == 4
    assert service._m["wave_size"].count() == 1

    for job in jobs:
        assert job.status == "done"
        assert job.wave == 1
        direct = solve(
            problem_from_spec(MQO_SPEC), backend="sa", seed=job.seed,
            num_reads=4, num_sweeps=50,
        )
        assert direct.objective == job.result.objective
        assert direct.solution == job.result.solution
        assert direct.energy == job.result.energy or (
            math.isnan(direct.energy) and math.isnan(job.result.energy)
        )


def test_results_independent_of_wave_composition():
    """Seed 1 solved alone equals seed 1 solved in a crowd of strangers."""

    async def solo():
        service = make_service(max_wave=1)
        await service.start()
        job = service.submit(MQO_SPEC, seed=1)
        await job.future
        await service.shutdown()
        return job.result

    async def crowded():
        service = make_service(max_wave=4)
        await service.start()
        jobs = [
            service.submit(MQO_SPEC, seed=1),
            service.submit(MQO_SPEC, seed=9),
            service.submit({**MQO_SPEC, "instance_seed": 8}, seed=1),
            service.submit(MQO_SPEC, seed=3),
        ]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return jobs[0].result

    alone, among = asyncio.run(solo()), asyncio.run(crowded())
    assert alone.objective == among.objective
    assert alone.solution == among.solution


def test_job_lifecycle_and_unknown_id():
    async def scenario():
        service = make_service(max_wave=2)
        await service.start()
        job = service.submit(MQO_SPEC, seed=5)
        assert job.status == "pending"
        assert service.jobs.get(job.id) is job
        assert service.jobs.get("job-999999") is None
        companion = service.submit(MQO_SPEC, seed=6)  # size trigger fires
        await asyncio.gather(job.future, companion.future)
        assert job.status == "done"
        assert job.started_at is not None and job.finished_at is not None
        assert job.latency_s >= 0
        body = job.as_json_dict()
        assert body["status"] == "done"
        assert body["result"]["objective"] == pytest.approx(job.result.objective)
        await service.shutdown()

    asyncio.run(scenario())


def test_graceful_shutdown_drains_accepted_jobs():
    async def scenario():
        # Enormous window and wave: nothing would dispatch before shutdown.
        service = make_service(max_wave=64)
        await service.start()
        jobs = [service.submit(MQO_SPEC, seed=s) for s in range(3)]
        assert all(job.status == "pending" for job in jobs)
        await service.shutdown()  # must release and finish all three
        assert all(job.status == "done" for job in jobs)
        assert service.stopped
        with pytest.raises(ReproError):
            service.submit(MQO_SPEC, seed=0)
        return service

    service = asyncio.run(scenario())
    assert service._m["responses"].value(status="done") == 3
    assert service._m["rejected"].value(reason="draining") == 1


def test_submit_validation_and_backpressure():
    async def scenario():
        service = make_service(max_wave=64, max_queue_depth=2)
        await service.start()
        with pytest.raises(ReproError):
            service.submit({"kind": "nope"}, seed=0)
        with pytest.raises(ReproError):
            service.submit(MQO_SPEC, seed=-1)
        with pytest.raises(ReproError):
            service.submit(MQO_SPEC, seed="zero")
        service.submit(MQO_SPEC, seed=0)
        service.submit(MQO_SPEC, seed=1)
        with pytest.raises(ReproError):  # depth limit
            service.submit(MQO_SPEC, seed=2)
        assert service._m["rejected"].value(reason="bad_spec") == 1
        assert service._m["rejected"].value(reason="bad_seed") == 2
        assert service._m["rejected"].value(reason="queue_full") == 1
        await service.shutdown()

    asyncio.run(scenario())


def test_wave_error_fails_jobs_not_service():
    async def scenario():
        # An unknown backend option detonates inside the wave dispatch.
        service = make_service(
            max_wave=2, backend_opts={"sa": {"definitely_not_an_option": 1}}
        )
        await service.start()
        jobs = [service.submit(MQO_SPEC, seed=s) for s in (0, 1)]
        await asyncio.gather(*[job.future for job in jobs])
        assert all(job.status == "error" for job in jobs)
        assert all(job.error for job in jobs)
        # The dispatcher survived: a fresh (valid) service interaction works
        # at the HTTP layer; here we just confirm clean shutdown.
        await service.shutdown()
        return service

    service = asyncio.run(scenario())
    assert service._m["responses"].value(status="error") == 2


def test_cross_wave_cache_hits_with_single_solve_keys():
    """The second wave re-solving the same (spec, seed) hits the cache."""

    async def scenario():
        service = make_service(max_wave=2, cache=True)
        await service.start()
        first = [service.submit(MQO_SPEC, seed=s) for s in (1, 2)]
        await asyncio.gather(*[job.future for job in first])
        second = [service.submit(MQO_SPEC, seed=s) for s in (1, 2)]
        await asyncio.gather(*[job.future for job in second])
        await service.shutdown()
        return service, first, second

    service, first, second = asyncio.run(scenario())
    assert service._m["waves"].value() == 2
    assert service.cache.stats["hits"] >= 2
    for before, after in zip(first, second):
        assert before.result.objective == after.result.objective


def test_fixed_backend_wave_records_each_solve_once_in_the_store(tmp_path):
    """The durable scoreboard counts a fixed-backend wave exactly as the
    live one does: one observation per solve, not one per recording path."""
    from repro.engine import EngineStore

    async def scenario():
        service = make_service(max_wave=2, store=str(tmp_path / "engine.db"))
        await service.start()
        jobs = [service.submit(MQO_SPEC, seed=s) for s in (1, 2)]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service

    service = asyncio.run(scenario())
    live = {key: stats["count"] for key, stats in service.scoreboard.snapshot().items()}
    durable = {
        key: stats.count
        for key, stats in EngineStore(tmp_path / "engine.db").scoreboard.load().items()
    }
    assert live[("sa", None)] == 2
    assert durable == live


def test_restarted_service_boots_with_the_stored_capacity(tmp_path):
    """Service B hydrates its scoreboard from service A's store file at
    boot, so /readyz reports A's capacity before B has run a wave."""
    from repro.engine import EngineStore

    path = str(tmp_path / "engine.db")

    async def run_waves():
        service = make_service(max_wave=2, store=path)
        await service.start()
        for seeds in ((1, 2), (3, 4)):
            jobs = [service.submit(MQO_SPEC, seed=s) for s in seeds]
            await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service

    first = asyncio.run(run_waves())
    assert first._m["waves"].value() == 2
    stored = EngineStore(path).scoreboard.load()[("sa", None)].count
    assert stored == 4
    booted = make_service(max_wave=2, store=path)
    assert booted._m["waves"].value() == 0
    assert booted.readiness()["capacity"]["sa"]["count"] == stored


def test_restarted_service_serves_repeats_from_the_store_tier(tmp_path):
    """Service A's results outlive it: service B on the same store file,
    with a cold memory cache, serves the same (spec, seed) requests as
    store-tier hits equal to A's solves."""
    path = str(tmp_path / "engine.db")
    specs = [(MQO_SPEC, 1), ({**MQO_SPEC, "instance_seed": 8}, 2)]

    async def run_service():
        service = make_service(max_wave=2, store=path)
        await service.start()
        jobs = [service.submit(spec, seed=seed) for spec, seed in specs]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service, jobs

    _, first = asyncio.run(run_service())
    restarted, second = asyncio.run(run_service())
    assert not any(job.result.cache_hit for job in first)
    for before, after in zip(first, second):
        assert after.result.cache_hit
        assert after.result.engine["cache_tier"] == "store"
        assert after.result.objective == before.result.objective
        assert after.result.solution == before.result.solution
    assert 'repro_engine_cache{event="store_hits"} 2' in restarted.render_metrics()


def test_metrics_render_exposition_format():
    async def scenario():
        service = make_service(max_wave=2)
        await service.start()
        jobs = [service.submit(MQO_SPEC, seed=s) for s in (1, 1)]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service.render_metrics()

    text = asyncio.run(scenario())
    assert "# TYPE repro_service_requests_total counter" in text
    assert "repro_service_requests_total 2" in text
    assert "repro_service_waves_total 1" in text
    assert "repro_service_deduped_requests_total 1" in text
    assert 'repro_service_responses_total{status="done"} 2' in text
    assert "# TYPE repro_service_wave_size histogram" in text
    assert 'repro_service_wave_size_bucket{le="2"} 1' in text
    assert 'repro_service_wave_size_bucket{le="+Inf"} 1' in text
    assert "repro_service_request_latency_seconds_count 2" in text
    assert 'repro_engine_cache{event="misses"}' in text
    # Scoreboard capacity flows through as per-backend gauges.
    assert 'repro_backend_capacity{backend="sa",stat="count"} 1' in text
    assert text.endswith("\n")


def test_readiness_reports_capacity_snapshot():
    async def scenario():
        service = make_service(max_wave=2)
        await service.start()
        before = service.readiness()
        jobs = [service.submit(MQO_SPEC, seed=s) for s in (1, 2)]
        await asyncio.gather(*[job.future for job in jobs])
        during = service.readiness()
        await service.shutdown()
        after = service.readiness()
        return before, during, after

    before, during, after = asyncio.run(scenario())
    assert before["ready"] is True
    assert before["backends"] == ["sa"]
    assert during["capacity"]["sa"]["count"] == 2
    # readiness() must stay strict-JSON serialisable (NaN -> null).
    import json

    json.dumps(during)
    assert after["ready"] is False


# -- wave hardening: every job reaches a terminal state ----------------------


def test_short_wave_results_terminalise_every_job():
    """An engine returning too few results errors the wave, strands no one."""

    async def scenario():
        service = make_service(max_wave=2)
        await service.start()
        service._solve_wave = lambda jobs: ([object()], [])  # one result, two jobs
        jobs = [service.submit(MQO_SPEC, seed=s) for s in (0, 1)]
        await asyncio.wait_for(
            asyncio.gather(*[job.future for job in jobs]), timeout=10.0
        )
        await service.shutdown()
        return service, jobs

    service, jobs = asyncio.run(scenario())
    for job in jobs:
        assert job.status == "error"
        assert "1 results for 2 jobs" in job.error
        assert job.future.done()
    assert service._m["responses"].value(status="error") == 2


def test_poisoned_finish_loop_still_resolves_every_future():
    """A bug thrown *after* the engine call (here: a poisoned metrics
    observer) must not leave jobs forever-running or futures pending."""

    async def scenario():
        service = make_service(max_wave=3)
        await service.start()

        real_finish, calls = service._finish, []

        def poisoned(job, status, result=None, error=None):
            calls.append(job.id)
            if len(calls) == 2:  # job 1 finishes cleanly, job 2 detonates
                raise RuntimeError("observer exploded")
            real_finish(job, status, result=result, error=error)

        service._finish = poisoned
        jobs = [service.submit(MQO_SPEC, seed=s) for s in (0, 1, 2)]
        await asyncio.wait_for(
            asyncio.gather(*[job.future for job in jobs]), timeout=10.0
        )
        # The wave task must have swept everything before resolving: no
        # job is still running and no future is pending.
        assert all(job.future.done() for job in jobs)
        assert all(job.finished for job in jobs)
        # The service is still alive: an untampered follow-up wave works.
        service._finish = real_finish
        after = [service.submit(MQO_SPEC, seed=s) for s in (5, 6, 7)]
        await asyncio.gather(*[job.future for job in after])
        await service.shutdown()
        return jobs, after

    jobs, after = asyncio.run(scenario())
    assert jobs[0].status == "done"  # finished before the poison
    assert jobs[1].status == "error" and "observer exploded" in jobs[1].error
    assert jobs[2].status == "error"  # swept by the finally clause
    assert all(job.status == "done" for job in after)


# -- scrape-time gauge clearing ----------------------------------------------


def test_stale_gauge_labels_vanish_when_their_source_does():
    """Scrape-derived gauges are cleared per scrape: a label set whose
    source disappeared must not keep reporting its last value forever."""

    async def scenario():
        service = make_service(max_wave=2, cache=True)
        await service.start()
        jobs = [
            service.submit(MQO_SPEC, seed=1, tenant="ghost"),
            service.submit(MQO_SPEC, seed=2, tenant="ghost"),
        ]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return service

    service = asyncio.run(scenario())
    text = service.render_metrics()
    assert 'repro_service_tenant_jobs{state="done",tenant="ghost"} 2' in text
    assert 'repro_engine_cache{event="misses"}' in text
    assert 'repro_backend_capacity{backend="sa"' in text

    # Swap every source out from under the gauges...
    from repro.engine.scheduler import BackendScoreboard
    from repro.service.jobs import JobBook

    service.jobs = JobBook()
    service.cache = None
    service.scoreboard = BackendScoreboard()
    text = service.render_metrics()
    # ...and the stale gauge label sets are gone, not frozen at their last
    # value.  (Counters and histograms are cumulative by design and keep
    # their label sets; only scrape-derived gauges clear.)
    assert 'repro_service_tenant_jobs{state="done",tenant="ghost"}' not in text
    assert "repro_engine_cache{" not in text
    assert 'repro_backend_capacity{backend="sa"' not in text
    # Cumulative families still report the tenant's history.
    assert 'repro_service_tenant_requests_total{decision="admit",tenant="ghost"} 2' in text

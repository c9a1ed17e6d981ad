"""Admission control: the decision table, budgets, accounting, lanes.

The policy's contract, pinned three ways: unit-level (decision table over
budget states × priorities against a scripted clock/queue/scoreboard),
service-level (shed-before-register, per-tenant accounting, degrade
determinism), and book-level (eviction never touches unfinished jobs, and
a 429 flood never churns retention — the bug this PR fixes).
"""

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro.engine.scheduler import BackendScoreboard, expected_service_time
from repro.exceptions import ReproError
from repro.service import ServiceConfig, SolverService, problem_from_spec
from repro.service.admission import (
    PRIORITIES,
    AdmissionPolicy,
    AdmissionShed,
    TenantBudget,
)
from repro.service.coalesce import CoalescingQueue
from repro.service.jobs import JobBook

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


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def make_policy(max_depth=8, max_wave=4, **kwargs):
    queue = CoalescingQueue(window_s=30.0, max_wave=max_wave, max_depth=max_depth)
    board = BackendScoreboard()
    defaults = dict(queue=queue, scoreboard=board, backends=("sa",))
    defaults.update(kwargs)
    return AdmissionPolicy(**defaults), queue, board


def fake_job(tenant="t", priority="interactive", backends=None, wall=None):
    result = None if wall is None else SimpleNamespace(wall_time=wall)
    return SimpleNamespace(
        tenant=tenant, priority=priority, backends=backends, result=result,
        started_at=None, finished_at=None,
    )


def fill_queue(queue, n, lane=None):
    async def _fill():
        for item in range(n):
            queue.put(item, lane=lane)

    asyncio.run(_fill())


# -- decision table ----------------------------------------------------------


@pytest.mark.parametrize("priority", PRIORITIES)
def test_fresh_tenant_admits_every_priority(priority):
    policy, _, _ = make_policy()
    decision = policy.decide("anyone", priority)
    assert decision.action == "admit"
    assert decision.reason == "ok"
    assert decision.backends is None and decision.retry_after_s is None


@pytest.mark.parametrize("priority", PRIORITIES)
def test_max_inflight_budget_sheds_every_priority(priority):
    policy, _, _ = make_policy(tenants={"capped": {"max_inflight": 1}})
    policy.on_admit(fake_job(tenant="capped"))
    decision = policy.decide("capped", priority)
    assert decision.action == "shed"
    assert decision.reason == "max_inflight"
    assert decision.retry_after_s >= 1
    # An uncapped tenant in the same state is untouched.
    assert policy.decide("other", priority).action == "admit"


@pytest.mark.parametrize("priority", PRIORITIES)
def test_full_queue_sheds_every_priority(priority):
    policy, queue, _ = make_policy(max_depth=2)
    fill_queue(queue, 2)
    decision = policy.decide("anyone", priority)
    assert decision.action == "shed"
    assert decision.reason == "queue_full"
    assert decision.retry_after_s >= 1


def test_queue_share_budget_sheds_only_the_hog():
    policy, _, _ = make_policy(max_depth=8, tenants={"hog": {"queue_share": 0.25}})
    for _ in range(2):  # 0.25 * 8 = 2 queued slots allowed
        policy.on_admit(fake_job(tenant="hog"))
    assert policy.decide("hog", "batch").action == "shed"
    assert policy.decide("hog", "batch").reason == "queue_share"
    assert policy.decide("polite", "batch").action == "admit"
    # Dispatching frees queue share (jobs now running, not queued)...
    policy.on_dispatch(fake_job(tenant="hog"))
    assert policy.decide("hog", "batch").action == "admit"


def test_backend_seconds_budget_degrades_then_recovers():
    clock = FakeClock()
    policy, _, _ = make_policy(
        tenants={"burner": {"backend_seconds": 1.0, "window_s": 60.0}},
        degrade_backends=("tabu",),
        clock=clock,
    )
    job = fake_job(tenant="burner", wall=2.0)
    policy.on_admit(job)
    policy.on_dispatch(job)
    policy.on_finish(job)
    decision = policy.decide("burner", "interactive")
    assert decision.action == "degrade"
    assert decision.reason == "backend_seconds"
    assert decision.backends == ("tabu",)
    # The rolling window forgives: an hour later the spend has aged out.
    clock.now += 3600.0
    assert policy.decide("burner", "interactive").action == "admit"


def test_queue_pressure_degrades_best_effort_only():
    policy, queue, _ = make_policy(max_depth=8, degrade_ratio=0.5)
    fill_queue(queue, 4)  # exactly at the ratio
    assert policy.decide("t", "interactive").action == "admit"
    assert policy.decide("t", "batch").action == "admit"
    decision = policy.decide("t", "best_effort")
    assert decision.action == "degrade"
    assert decision.reason == "queue_pressure"


def test_unknown_priority_is_an_error():
    policy, _, _ = make_policy()
    with pytest.raises(ReproError):
        policy.decide("t", "urgent")


def test_budget_validation_rejects_nonsense():
    with pytest.raises(ReproError):
        TenantBudget.from_mapping({"max_inflight": 0})
    with pytest.raises(ReproError):
        TenantBudget.from_mapping({"queue_share": 1.5})
    with pytest.raises(ReproError):
        TenantBudget.from_mapping({"window_s": 0})
    with pytest.raises(ReproError):
        TenantBudget.from_mapping({"wallclock": 5})  # unknown key


# -- Retry-After / expected service time -------------------------------------


def test_retry_after_derives_from_ewma_latency():
    policy, _, board = make_policy()
    assert policy.retry_after_s() == 1  # cold board -> cold default, floor 1
    board.observe("sa", None, objective=1.0, wall_time=3.0)
    assert policy.retry_after_s() == 3
    # Backlog scales it: 9 queued at max_wave=4 is 3 dispatch waves.
    policy2, queue, board2 = make_policy(max_depth=16, max_wave=4)
    board2.observe("sa", None, objective=1.0, wall_time=3.0)
    fill_queue(queue, 9)
    assert policy2.retry_after_s() == 9

def test_expected_service_time_reads_snapshot():
    board = BackendScoreboard()
    assert expected_service_time(board.capacity_snapshot(), ("sa",), default=0.5) == 0.5
    board.observe("sa", None, objective=1.0, wall_time=2.0)
    board.observe("tabu", None, objective=1.0, wall_time=4.0)
    snapshot = board.capacity_snapshot()
    assert expected_service_time(snapshot, ("sa",)) == pytest.approx(2.0)
    assert expected_service_time(snapshot) == pytest.approx(3.0)  # all backends
    # Cache hits never feed latency; a backend seen only through hits
    # still reads as the default.
    board.observe("qaoa", None, objective=1.0, wall_time=9.0, cache_hit=True)
    assert expected_service_time(
        board.capacity_snapshot(), ("qaoa",), default=0.1
    ) == pytest.approx(0.1)


# -- shed-before-register (the eviction-churn bugfix) ------------------------


def test_shed_creates_no_job_and_preserves_finished_history():
    async def scenario():
        service = make_service(max_wave=2, max_queue_depth=2, job_retention=4)
        await service.start()
        first = [service.submit(MQO_SPEC, seed=s) for s in (0, 1)]  # one wave
        await asyncio.gather(*[job.future for job in first])
        # Fill the queue back up (no await between submits, so the
        # dispatcher cannot interleave and the depth holds at max)...
        parked = [service.submit(MQO_SPEC, seed=s) for s in (2, 3)]
        # ...so every further submit sheds with queue_full.
        sheds = []
        for seed in range(4, 11):
            with pytest.raises(AdmissionShed) as excinfo:
                service.submit(MQO_SPEC, seed=seed)
            sheds.append(excinfo.value)
        book_len = len(service.jobs)
        alive = [service.jobs.get(job.id) for job in first]
        await asyncio.gather(*[job.future for job in parked])
        await service.shutdown()
        return service, first, sheds, book_len, alive

    service, first, sheds, book_len, alive = asyncio.run(scenario())
    # No Job was ever created for a shed request: the book held exactly
    # the two finished jobs plus the two parked ones.
    assert book_len == 4
    assert all(job is not None for job in alive)  # history not churned
    assert all(shed.retry_after_s >= 1 for shed in sheds)
    assert all(shed.reason == "queue_full" for shed in sheds)
    # Sheds are rejections, not responses.
    assert service._m["responses"].value(status="done") == 4
    assert service._m["responses"].value(status="error") == 0
    assert service._m["rejected"].value(reason="queue_full") == len(sheds)
    assert service._m["admission"].value(decision="shed", priority="interactive") == len(sheds)


def test_jobbook_eviction_skips_unfinished_jobs_entirely():
    async def scenario():
        book = JobBook(retention=2)
        problem = problem_from_spec(MQO_SPEC)
        jobs = [book.create(problem, seed, MQO_SPEC) for seed in range(5)]
        # Everything is pending: over retention, but nothing is evictable.
        assert len(book) == 5
        assert all(book.get(job.id) is not None for job in jobs)
        for job in jobs[:3]:
            job.status = "done"
            job.finished_at = time.time()
        book.create(problem, 99, MQO_SPEC)  # triggers eviction
        return book, jobs

    book, jobs = asyncio.run(scenario())
    # Finished jobs went oldest-first; unfinished ones all survived.
    assert len(book) == 3
    assert all(book.get(job.id) is None for job in jobs[:3])
    assert all(book.get(job.id) is not None for job in jobs[3:])


# -- per-tenant accounting through the service -------------------------------


def test_tenant_accounting_and_job_json():
    async def scenario():
        service = make_service(max_wave=2)
        await service.start()
        jobs = [
            service.submit(MQO_SPEC, seed=1, tenant="alice", priority="interactive"),
            service.submit(MQO_SPEC, seed=2, tenant="bob", priority="batch"),
        ]
        await asyncio.gather(*[job.future for job in jobs])
        snapshot = service.admission.snapshot()
        text = service.render_metrics()
        readiness = service.readiness()
        await service.shutdown()
        return service, jobs, snapshot, text, readiness

    service, jobs, snapshot, text, readiness = asyncio.run(scenario())
    alice, bob = jobs
    assert alice.tenant == "alice" and alice.priority == "interactive"
    assert bob.tenant == "bob" and bob.priority == "batch"
    body = alice.as_json_dict()
    assert body["tenant"] == "alice"
    assert body["priority"] == "interactive"
    assert body["admission"]["action"] == "admit"
    for tenant in ("alice", "bob"):
        row = snapshot[tenant]
        assert row["admitted"] == 1 and row["finished"] == 1
        assert row["inflight"] == 0 and row["queued"] == 0
        assert row["backend_seconds_used"] >= 0
    assert 'repro_service_tenant_requests_total{decision="admit",tenant="alice"} 1' in text
    assert 'repro_service_tenant_jobs{state="done",tenant="bob"} 1' in text
    assert "repro_service_tenant_latency_seconds_count" in text
    assert 'repro_service_lane_depth{lane="interactive"} 0' in text
    assert readiness["tenants"]["alice"]["finished"] == 1
    import json

    json.dumps(readiness)  # the admission snapshot must stay strict-JSON


def test_bad_tenant_and_priority_reject_before_admission():
    async def scenario():
        service = make_service(max_wave=64)
        await service.start()
        with pytest.raises(ReproError):
            service.submit(MQO_SPEC, seed=0, tenant="")
        with pytest.raises(ReproError):
            service.submit(MQO_SPEC, seed=0, tenant=7)
        with pytest.raises(ReproError):
            service.submit(MQO_SPEC, seed=0, priority="urgent")
        assert service._m["rejected"].value(reason="bad_tenant") == 2
        assert service._m["rejected"].value(reason="bad_priority") == 1
        assert len(service.jobs) == 0
        await service.shutdown()

    asyncio.run(scenario())


# -- degradation determinism -------------------------------------------------


def test_degraded_requests_match_direct_solves_on_the_cheap_tier():
    from repro.api.facade import solve

    async def scenario():
        service = make_service(
            max_wave=2,
            degrade_backends=("tabu",),
            tenants={"burned": {"backend_seconds": 0.0}},
        )
        await service.start()
        degraded = service.submit(MQO_SPEC, seed=3, tenant="burned")
        normal = service.submit(MQO_SPEC, seed=3, tenant="fresh")
        await asyncio.gather(degraded.future, normal.future)
        await service.shutdown()
        return service, degraded, normal

    service, degraded, normal = asyncio.run(scenario())
    assert degraded.status == "done" and normal.status == "done"
    assert degraded.admission["action"] == "degrade"
    assert degraded.admission["reason"] == "backend_seconds"
    assert degraded.admission["backends"] == ["tabu"]
    # The rewrite is visible in the result telemetry...
    assert degraded.result.info["admission"]["backends"] == ["tabu"]
    assert degraded.result.method == "tabu"
    # ...and bit-identical to a direct solve on the degraded backend.
    direct = solve(problem_from_spec(MQO_SPEC), backend="tabu", seed=3)
    assert degraded.result.objective == direct.objective
    assert degraded.result.solution == direct.solution
    # The undegraded companion in the same wave ran the fleet untouched.
    assert normal.result.method == "sa"
    assert "admission" not in normal.result.info
    direct_sa = solve(
        problem_from_spec(MQO_SPEC), backend="sa", seed=3,
        num_reads=4, num_sweeps=50,
    )
    assert normal.result.objective == direct_sa.objective
    assert normal.result.solution == direct_sa.solution
    assert service._m["admission"].value(decision="degrade", priority="interactive") == 1


# -- weighted lanes: determinism regardless of composition --------------------


def test_results_independent_of_lane_composition():
    """Seed 1 interactive alone == seed 1 amid a crowd of other lanes."""

    async def solo():
        service = make_service(max_wave=1)
        await service.start()
        job = service.submit(MQO_SPEC, seed=1, tenant="probe")
        await job.future
        await service.shutdown()
        return job.result

    async def crowded_lanes():
        service = make_service(max_wave=6)
        await service.start()
        jobs = [
            service.submit(MQO_SPEC, seed=1, tenant="probe", priority="interactive"),
            service.submit(MQO_SPEC, seed=9, tenant="a", priority="best_effort"),
            service.submit({**MQO_SPEC, "instance_seed": 8}, seed=1, tenant="b",
                           priority="batch"),
            service.submit(MQO_SPEC, seed=3, tenant="c", priority="best_effort"),
            service.submit(MQO_SPEC, seed=4, tenant="d", priority="batch"),
            service.submit(MQO_SPEC, seed=1, tenant="e", priority="best_effort"),
        ]
        await asyncio.gather(*[job.future for job in jobs])
        await service.shutdown()
        return jobs

    alone = asyncio.run(solo())
    jobs = asyncio.run(crowded_lanes())
    among = jobs[0].result
    assert alone.objective == among.objective
    assert alone.solution == among.solution
    # Single-flight dedup crosses lanes: the best_effort twin of the same
    # (spec, seed) shares the identical result.
    twin = jobs[5].result
    assert twin.objective == among.objective
    assert twin.solution == among.solution


def test_weighted_drain_keeps_interactive_ahead_of_floods():
    """10 best_effort floods queued first still don't push interactive out
    of wave 1 (pure FIFO would: the first 7 floods would fill the wave)."""

    async def scenario():
        service = make_service(max_wave=7)
        await service.start()
        flood = [
            service.submit(MQO_SPEC, seed=10 + i, tenant="flood",
                           priority="best_effort")
            for i in range(10)
        ]
        dash = service.submit(MQO_SPEC, seed=1, tenant="dash",
                              priority="interactive")
        companion = service.submit(MQO_SPEC, seed=2, tenant="dash",
                                   priority="interactive")
        await asyncio.gather(dash.future, companion.future)
        await service.shutdown()  # drains the flood's second wave
        return dash, companion, flood

    dash, companion, flood = asyncio.run(scenario())
    assert dash.wave == 1 and companion.wave == 1
    assert all(job.status == "done" for job in flood)
    # The flood still made progress in wave 1 — slowed, never starved.
    flood_waves = sorted(job.wave for job in flood)
    assert flood_waves.count(1) == 5 and flood_waves.count(2) == 5

"""The execution engine beneath the solver facade.

``repro.api.facade`` is the user-facing seam; this package is the machinery
under it, split into three pieces that compose::

    compile_plan(problems, backend, seed)        # plan.py      — what to run
        -> ExecutionPlan (items, shards with their backends, seeds, cache keys)
    execute_plan(plan, executor=..., cache=...)  # runner.py    — how to run it
        -> [SolveResult]  via the serial or processes executor
        (solve_batch: compile -> route -> execute -> record, the one path
        behind solve, solve_many, and the service)
    ResultCache                                  # cache.py     — what to skip
    AdaptiveScheduler / BackendScoreboard        # scheduler.py — where to run it
        (telemetry-driven shard routing + route-then-race-top-k portfolios)
    EngineStore                                  # store.py     — what survives
        (durable SQLite tier, passed per call: scoreboard statistics + shared
        result cache)

The design invariants, relied on throughout:

* **seed stability** — per-item child seeds are split from the batch seed
  in batch order at plan time, so executor choice and cache state never
  shift any item's RNG stream; serial and parallel runs of one plan return
  identical objectives;
* **shard = structure** — items are sharded by QUBO structural signature
  (:meth:`~repro.qubo.model.QuboModel.signature`) so stateful backend
  caches (hardware embeddings, warm-start angles) amortise within a shard;
  shards are packed into ``Backend.run`` calls, and packs run in parallel
  on the ``processes`` executor;
* **content-addressed results** — cache keys hash the canonical QUBO
  fingerprint, backend, opts and seed (plus, on a stateful backend, the
  shard-prefix history), making a hit byte-equivalent to a re-run.
"""

from repro.engine.cache import ResultCache, default_cache, make_cache_key, resolve_cache
from repro.engine.decompose import (
    clamp_subqubo,
    partition_variables,
    solve_decomposed,
)
from repro.engine.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    list_executors,
)
from repro.engine.plan import ExecutionPlan, PlanItem, Shard, compile_plan
from repro.engine.runner import (
    execute_plan,
    run_portfolio,
    solve_batch,
)
from repro.engine.scheduler import (
    AdaptiveScheduler,
    BackendScoreboard,
    BackendStats,
    RoutingDecision,
    expected_service_time,
)
from repro.engine.store import (
    EngineStore,
    ScoreboardStore,
    SharedCacheTier,
    engine_store,
    resolve_store,
)

__all__ = [
    "ResultCache",
    "default_cache",
    "make_cache_key",
    "resolve_cache",
    "clamp_subqubo",
    "partition_variables",
    "solve_decomposed",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "list_executors",
    "ExecutionPlan",
    "PlanItem",
    "Shard",
    "compile_plan",
    "execute_plan",
    "solve_batch",
    "run_portfolio",
    "AdaptiveScheduler",
    "BackendScoreboard",
    "BackendStats",
    "RoutingDecision",
    "expected_service_time",
    "EngineStore",
    "ScoreboardStore",
    "SharedCacheTier",
    "engine_store",
    "resolve_store",
]

"""The unified solver API: one Problem -> QUBO -> Backend -> Result pipeline.

This package is the explicit form of the paper's Fig. 2 thesis — every
quantum data-management workload funnels through QUBO — and the layered
hybrid architecture argued for by Zajac & Störl:

* :mod:`.problem` — the declarative :class:`Problem` contract
  (``to_qubo`` / ``decode`` / ``evaluate`` / ``refine``);
* :mod:`.adapters` — the four Table I domains behind that contract;
* :mod:`.backends` — every solver engine (exact, heuristic, annealing,
  gate-model, classical baselines) behind one ``run`` signature plus the
  string registry;
* :mod:`.facade` — ``solve`` / ``solve_portfolio`` / ``solve_many``, thin
  front-ends over the execution engine in :mod:`repro.engine` (planner,
  sharded executors, content-addressed result cache);
* :mod:`.result` — the uniform :class:`SolveResult`.

The SQL front end (:mod:`repro.workload`) re-exports here too:
:func:`compile_workload` plans a SQL script into Table I instances and
:func:`run_workload` executes them as one ``solve_many`` batch.
"""

from repro.api.adapters import (
    BushyJoinAdapter,
    LeftDeepJoinAdapter,
    MQOAdapter,
    SchemaMatchingAdapter,
    TxnScheduleAdapter,
    as_problem,
    as_problems,
)
from repro.api.backends import (
    AnnealerBackend,
    Backend,
    BruteForceBackend,
    ClassicalBaselineBackend,
    QAOABackend,
    SamplerBackend,
    SimulatedAnnealingBackend,
    SimulatedQuantumAnnealingBackend,
    TabuBackend,
    VQEBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.api.facade import solve, solve_many, solve_portfolio
from repro.api.problem import Problem
from repro.api.result import SolveResult
from repro.engine import (
    AdaptiveScheduler,
    BackendScoreboard,
    EngineStore,
    ExecutionPlan,
    ResultCache,
    compile_plan,
    execute_plan,
    engine_store,
    list_executors,
    resolve_store,
)

# Imported last: repro.workload builds on repro.api.facade, so the facade
# (and the engine it fronts) must be fully initialised first.
from repro.workload import (  # noqa: E402
    WorkloadPlan,
    WorkloadReport,
    compile_workload,
    run_workload,
)

__all__ = [
    "Problem",
    "SolveResult",
    "Backend",
    "register_backend",
    "get_backend",
    "list_backends",
    "BruteForceBackend",
    "TabuBackend",
    "SimulatedAnnealingBackend",
    "SimulatedQuantumAnnealingBackend",
    "AnnealerBackend",
    "QAOABackend",
    "VQEBackend",
    "SamplerBackend",
    "ClassicalBaselineBackend",
    "MQOAdapter",
    "LeftDeepJoinAdapter",
    "BushyJoinAdapter",
    "SchemaMatchingAdapter",
    "TxnScheduleAdapter",
    "as_problem",
    "as_problems",
    "solve",
    "solve_portfolio",
    "solve_many",
    "ExecutionPlan",
    "ResultCache",
    "AdaptiveScheduler",
    "BackendScoreboard",
    "EngineStore",
    "engine_store",
    "resolve_store",
    "compile_plan",
    "execute_plan",
    "list_executors",
    "WorkloadPlan",
    "WorkloadReport",
    "compile_workload",
    "run_workload",
]

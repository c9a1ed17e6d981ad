"""Execute a compiled workload as one sharded batch and stitch plans back.

:func:`run_workload` is the SQL front door of the whole pipeline: it
compiles the script (:func:`~repro.workload.planner.compile_workload`),
pushes every instance through **one** :func:`repro.solve_many` call — so
structurally identical instances shard together, the adaptive scheduler
can route SQL-derived shards exactly like synthetic ones, and the batch is
deterministic for a fixed seed — then stitches the ``SolveResult``s back
into per-statement plans.

Provenance lives in two places:

* each instance's result gains ``info["workload"]`` — its instance index,
  kind, label, and covered statement indices (the engine additionally
  stamps the same label into ``info["engine"]["label"]``);
* the returned :class:`WorkloadReport` carries the full statement map in
  :attr:`WorkloadReport.info` under ``"workload"`` — for every statement,
  its kind, SQL text, and the instances (with shard ids) that planned it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.api.facade import solve_many
from repro.api.result import SolveResult
from repro.db.catalog import Catalog
from repro.db.plans import JoinTree
from repro.obs import trace as obs
from repro.workload.planner import WorkloadPlan, compile_workload


@dataclass
class StatementPlan:
    """The solved plan for one script statement.

    Which fields are set depends on the statement:

    * multi-table SELECT — ``join_order`` (always, leaves left-to-right)
      and ``join_tree`` (bushy encoding only);
    * any SELECT in an MQO batch — ``mqo_plan`` (the chosen candidate plan
      id) and ``mqo_join_order`` (that plan's order, ``None`` for a
      single-table scan plan);
    * DML — ``slot`` (the transaction's execution slot).
    """

    statement: int
    kind: str
    sql: str
    instances: list[int] = field(default_factory=list)
    join_order: "list[str] | None" = None
    join_tree: "JoinTree | None" = None
    mqo_plan: "str | None" = None
    mqo_join_order: "list[str] | None" = None
    slot: "int | None" = None


@dataclass
class WorkloadReport:
    """Everything :func:`run_workload` produced, stitched per statement."""

    plan: WorkloadPlan
    results: list[SolveResult]
    statement_plans: list[StatementPlan]
    info: dict = field(default_factory=dict)

    @property
    def total_objective(self) -> float:
        return sum(r.objective for r in self.results)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkloadReport({len(self.statement_plans)} statements, "
            f"{len(self.results)} instances, total={self.total_objective:.6g})"
        )


def _join_order_of(result: SolveResult) -> "tuple[list[str], JoinTree | None]":
    """Normalise the two join-ordering solution shapes to an order (+tree)."""
    solution = result.solution
    if isinstance(solution, JoinTree):
        return solution.leaves_in_order(), solution
    return list(solution), None


def _provenance(plan: WorkloadPlan, results: list[SolveResult]) -> dict:
    """The ``info["workload"]`` schema of ``docs/workload.md``."""
    instances = []
    for inst, result in zip(plan.instances, results):
        instances.append(
            {
                "instance": inst.index,
                "kind": inst.kind,
                "label": inst.label,
                "statements": list(inst.statements),
                "shard": result.engine.get("shard"),
                "signature": result.engine.get("signature"),
            }
        )
    statements = {}
    for i, statement in enumerate(plan.statements):
        statements[str(i)] = {
            "kind": statement.kind,
            "sql": statement.text,
            "instances": [
                {
                    "instance": inst.index,
                    "kind": inst.kind,
                    "label": inst.label,
                    "shard": results[inst.index].engine.get("shard"),
                }
                for inst in plan.instances_of(i)
            ],
        }
    return {"instances": instances, "statements": statements}


def run_workload(
    script: "str | WorkloadPlan",
    catalog: "Catalog | None" = None,
    *,
    backend: "str | Sequence[str]" = "sa",
    seed: "int | None" = None,
    bushy: bool = False,
    max_candidate_plans: int = 3,
    executor: str = "serial",
    scheduler=None,
    cache=None,
    store=None,
    **backend_opts,
) -> WorkloadReport:
    """Compile and solve a SQL workload end to end.

    Args:
        script: SQL text, or a pre-compiled :class:`WorkloadPlan` (then
            ``catalog``/``bushy``/``max_candidate_plans`` are ignored).
        catalog: Table statistics; required when ``script`` is text.
        backend: Backend registry name, or — with ``scheduler=`` — a
            sequence of candidate names the adaptive scheduler routes
            between per shard.
        seed: Batch seed.  The whole workload is one ``solve_many`` batch,
            so the same script + seed reproduces every plan exactly.
        bushy: Bushy join-tree encoding for the join-ordering instances.
        executor / scheduler / cache / store / backend_opts: Forwarded to
            :func:`repro.solve_many` unchanged.

    Returns:
        A :class:`WorkloadReport`: instance results (each stamped with
        ``info["workload"]``), per-statement :class:`StatementPlan`s, and
        the full provenance map under ``report.info["workload"]``.
    """
    if isinstance(script, WorkloadPlan):
        plan = script
    else:
        if catalog is None:
            raise ValueError("run_workload needs a catalog when given SQL text")
        plan = compile_workload(
            script, catalog, bushy=bushy, max_candidate_plans=max_candidate_plans
        )

    with obs.span(
        "workload.run",
        statements=len(plan.statements),
        instances=len(plan.instances),
    ):
        results = solve_many(
            plan.problems(),
            backend=backend,
            seed=seed,
            executor=executor,
            scheduler=scheduler,
            cache=cache,
            store=store,
            labels=plan.labels(),
            **backend_opts,
        )

    provenance = _provenance(plan, results)
    for inst, result in zip(plan.instances, results):
        result.info["workload"] = provenance["instances"][inst.index]

    statement_plans = []
    for i, statement in enumerate(plan.statements):
        sp = StatementPlan(
            statement=i,
            kind=statement.kind,
            sql=statement.text,
            instances=[inst.index for inst in plan.instances_of(i)],
        )
        for inst in plan.instances_of(i):
            result = results[inst.index]
            if inst.kind == "joinorder":
                sp.join_order, sp.join_tree = _join_order_of(result)
            elif inst.kind == "mqo":
                qid = f"s{i}"
                sp.mqo_plan = result.solution.get(qid)
                if sp.mqo_plan is not None:
                    sp.mqo_join_order = inst.meta["plan_orders"][qid][sp.mqo_plan]
            elif inst.kind == "txn":
                sp.slot = result.solution.get(f"t{i}")
        statement_plans.append(sp)

    return WorkloadReport(
        plan=plan,
        results=results,
        statement_plans=statement_plans,
        info={"workload": provenance},
    )

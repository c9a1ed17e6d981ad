"""Classical MQO baselines: exhaustive, greedy, and hill climbing.

These play the role of the "state-of-the-art MQO solutions" Trummer & Koch
compare their annealer against; the exhaustive solver doubles as the
ground-truth optimum for quality measurements.
"""

from __future__ import annotations

import itertools

from repro.exceptions import ReproError
from repro.mqo.problem import MQOProblem
from repro.utils.rngtools import ensure_rng


def exhaustive_mqo(problem: MQOProblem, max_combinations: int = 2_000_000) -> tuple[dict[str, str], float]:
    """Enumerate every plan combination (exact, exponential)."""
    space = 1
    for q in problem.queries:
        space *= len(problem.plans_of(q))
    if space > max_combinations:
        raise ReproError(f"search space {space} exceeds limit {max_combinations}")
    best_sel = None
    best_cost = float("inf")
    plan_lists = [problem.plans_of(q) for q in problem.queries]
    for combo in itertools.product(*plan_lists):
        selection = {p.query: p.plan for p in combo}
        cost = problem.total_cost(selection)
        if cost < best_cost:
            best_cost = cost
            best_sel = selection
    return best_sel, best_cost


def greedy_mqo(problem: MQOProblem) -> tuple[dict[str, str], float]:
    """Pick each query's cheapest plan, ignoring sharing."""
    selection = {
        q: min(problem.plans_of(q), key=lambda p: p.cost).plan for q in problem.queries
    }
    return selection, problem.total_cost(selection)


def _descend(
    problem: MQOProblem, selection: dict[str, str], max_moves: "int | None" = None
) -> tuple[dict[str, str], float]:
    """First-improvement plan-swap descent; returns (selection, total cost).

    Scans queries in sorted order and each query's plans in insertion
    order, takes the first swap that lowers :meth:`MQOProblem.total_cost`
    by more than ``1e-12``, and rescans from the start, stopping at a local
    optimum or after ``max_moves`` swaps.  A swap is scored from the
    :meth:`MQOProblem.swap_index` as ``cost(new) - cost(old) + active
    savings(old) - active savings(new)``, touching only the swapped
    query's savings.  A delta within the index's rounding slack of the
    tolerance is re-decided on two full sums, so the descent takes exactly
    the swaps full re-evaluation would.
    """
    problem.validate_selection(selection)
    queries, plans, costs, neighbours, slack = problem.swap_index()
    selection = dict(selection)
    at = [plans[i].index(selection[q]) for i, q in enumerate(queries)]
    full = None  # total_cost of ``selection`` when known
    moves = 0
    improved = True
    while improved and (max_moves is None or moves < max_moves):
        improved = False
        for i, q in enumerate(queries):
            old, row, plan_costs = at[i], neighbours[i], costs[i]
            keep = sum(amount for j, b, amount in row[old] if at[j] == b) - plan_costs[old]
            for a, cost in enumerate(plan_costs):
                if a == old:
                    continue
                delta = cost + keep - sum(amount for j, b, amount in row[a] if at[j] == b)
                new_full = None
                if not delta < -1e-12 - slack:  # not clearly improving (or NaN)
                    if delta > -1e-12 + slack:
                        continue
                    if full is None:
                        full = problem._selection_cost(selection)
                    candidate = dict(selection)
                    candidate[q] = plans[i][a]
                    new_full = problem._selection_cost(candidate)
                    if not new_full < full - 1e-12:
                        continue
                selection[q] = plans[i][a]
                at[i], full = a, new_full
                moves += 1
                improved = True
                break
            if improved:
                break
    if full is None:
        full = problem._selection_cost(selection)
    return selection, full


def local_search_from(problem: MQOProblem, selection: dict[str, str]) -> tuple[dict[str, str], float]:
    """First-improvement plan-swap descent from a given selection.

    This is the classical half of the hybrid pipeline (Sec. III-C.2 of the
    paper): the quantum sampler proposes a basin, a cheap local search
    finishes the job.  Returns the same selection and cost as re-evaluating
    :meth:`MQOProblem.total_cost` for every candidate swap.
    """
    return _descend(problem, selection)


def hill_climbing_mqo(
    problem: MQOProblem, restarts: int = 8, max_iterations: int = 200, rng=None
) -> tuple[dict[str, str], float]:
    """First-improvement hill climbing over single-query plan swaps.

    Each restart descends from a uniformly random selection for at most
    ``max_iterations`` improving swaps.
    """
    rng = ensure_rng(rng)
    best_sel = None
    best_cost = float("inf")
    for _ in range(restarts):
        selection = {
            q: problem.plans_of(q)[int(rng.integers(0, len(problem.plans_of(q))))].plan
            for q in problem.queries
        }
        selection, cost = _descend(problem, selection, max_moves=max_iterations)
        if cost < best_cost:
            best_cost = cost
            best_sel = selection
    return best_sel, best_cost

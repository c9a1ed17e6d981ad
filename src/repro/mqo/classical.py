"""Classical MQO baselines: exhaustive, greedy, and hill climbing.

These play the role of the "state-of-the-art MQO solutions" Trummer & Koch
compare their annealer against; the exhaustive solver doubles as the
ground-truth optimum for quality measurements.
"""

from __future__ import annotations

import itertools

import numpy as np

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
    optimum or after ``max_moves`` swaps.

    Each scan scores every swap at once from the
    :meth:`MQOProblem.swap_index`: one ``np.bincount`` over the savings
    whose other plan is selected gives each plan's active savings, and a
    swap's delta is ``(cost(new) - active(new)) - (cost(old) - active(old))``
    (exactly 0 for the selected plan).  A delta rounds in at most
    ``2 * degree + 3`` operations and a difference of two full sums in at
    most ``2 * (queries + savings) + 1``, each off by at most half an ulp
    of the index's ``mass``, which bounds every partial result (the
    savings around two plans of one query are disjoint); the index's
    ``slack`` covers them all.  A delta within that slack of the tolerance
    is therefore re-decided on two full sums, so the descent takes exactly
    the swaps full re-evaluation would.
    """
    problem.validate_selection(selection)
    index = problem.swap_index()
    queries, names, owner, costs = index.queries, index.names, index.owner, index.costs
    tails, heads, amounts, slack = index.tails, index.heads, index.amounts, index.slack
    selection = dict(selection)
    at = np.array([index.ids[(q, selection[q])] for q in queries], dtype=np.int64)
    chosen = np.zeros(len(names), dtype=bool)
    chosen[at] = True
    full = None  # total_cost of ``selection`` when known
    moves = 0
    while max_moves is None or moves < max_moves:
        net = costs - np.bincount(tails, weights=amounts * chosen[heads], minlength=len(names))
        delta = net - net[at][owner]
        for new in np.flatnonzero(~(delta > -1e-12 + slack)).tolist():
            i = int(owner[new])
            if new == at[i]:
                continue
            new_full = None
            if not delta[new] < -1e-12 - slack:  # not clearly improving (or NaN)
                if full is None:
                    full = problem._selection_cost(selection)
                new_full = problem._selection_cost({**selection, queries[i]: names[new]})
                if not new_full < full - 1e-12:
                    continue
            selection[queries[i]] = names[new]
            chosen[at[i]], chosen[new] = False, True
            at[i], full = new, new_full
            moves += 1
            break
        else:
            break  # a local optimum
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

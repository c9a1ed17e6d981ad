"""Synthetic MQO workload generator.

Mirrors the synthetic benchmark of Trummer & Koch [20]: ``q`` queries with
``p`` candidate plans each, and randomly chosen cross-query plan pairs that
share intermediate results (a sharing density knob controls how many).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ReproError
from repro.mqo.problem import MQOProblem
from repro.utils.rngtools import ensure_rng


def generate_mqo_problem(
    num_queries: int,
    plans_per_query: int,
    sharing_density: float = 0.3,
    cost_range: tuple[float, float] = (10.0, 50.0),
    max_saving_fraction: float = 0.8,
    rng=None,
) -> MQOProblem:
    """Generate a random MQO instance.

    The instance is defined by one walk over the random stream: a
    ``uniform(*cost_range)`` cost for each plan, queries ``q0, q1, ...`` in
    turn and each query's plans ``p0, p1, ...`` in turn; then, for each
    cross-query plan pair in :attr:`MQOProblem.all_plans` order (query
    names sorted as strings, so ``q10`` comes before ``q2``), one
    ``random()`` that shares the pair if it falls below ``sharing_density``
    and, for a shared pair, one ``uniform(0.1, max_saving_fraction)``
    fraction of the cheaper plan's cost as the pair's saving.  The stream
    is drawn in blocks no longer than the draws still certain to be used,
    so a ``Generator`` passed as ``rng`` ends exactly after the instance's
    last draw, as it would after one draw per step of the walk.

    Args:
        num_queries: Number of queries in the batch.
        plans_per_query: Candidate plans per query.
        sharing_density: Probability that a cross-query plan pair shares an
            intermediate result.
        cost_range: Uniform range of individual plan costs.
        max_saving_fraction: A sharing pair saves a uniform fraction,
            between 0.1 and this value, of the cheaper plan's cost; finite
            and at least 0.1.
        rng: Seed or generator.
    """
    if num_queries < 1 or plans_per_query < 1:
        raise ReproError("need at least one query and one plan per query")
    if not 0.0 <= sharing_density <= 1.0:
        raise ReproError("sharing_density must be in [0, 1]")
    if not 0.1 <= max_saving_fraction < math.inf:
        raise ReproError("max_saving_fraction must be finite and at least 0.1")
    rng = ensure_rng(rng)
    problem = MQOProblem()
    lo, hi = cost_range
    costs = rng.uniform(lo, hi, size=num_queries * plans_per_query).tolist()
    for k, cost in enumerate(costs):
        q, p = divmod(k, plans_per_query)
        problem.add_plan(f"q{q}", f"p{p}", cost)
    plans = problem.all_plans
    # all_plans lists each query's plans together, queries in sorted order,
    # so plans i < j belong to different queries exactly when rank[i] <
    # rank[j], and nonzero lists those pairs in all_plans order.
    rank = np.repeat(np.arange(num_queries), plans_per_query)
    first, second = np.nonzero(rank[:, None] < rank)
    shared, fractions = _walk_pairs(rng, len(first), sharing_density)
    first, second = first[shared], second[shared]
    cost = np.array([p.cost for p in plans])
    amounts = (0.1 + (max_saving_fraction - 0.1) * fractions) * np.minimum(
        cost[first], cost[second])
    keys = [p.key for p in plans]
    problem.add_savings(zip(map(keys.__getitem__, first.tolist()),
                            map(keys.__getitem__, second.tolist()), amounts.tolist()))
    return problem


def _walk_pairs(rng, num_pairs: int, density: float) -> tuple[np.ndarray, np.ndarray]:
    """The pair walk of :func:`generate_mqo_problem` over ``num_pairs`` pairs.

    Returns the indices of the shared pairs and, in the same order, the
    ``random()`` draw behind each one's saving fraction.  The walk uses one
    draw per pair plus one per shared pair, so with ``s`` pairs shared
    among the draws made so far, ``num_pairs + s`` minus those draws are
    still certain to be used: each block is one ``rng.random`` of that many.
    A draw below ``density`` shares its pair unless it is the fraction right
    after a shared pair's draw; the ``j``-th shared draw, at stream
    position ``k``, decides pair ``k - j``.
    """
    blocks, shared_at = [], []
    drawn, fraction_at = 0, -1
    while drawn < num_pairs + len(shared_at):
        block = rng.random(num_pairs + len(shared_at) - drawn)
        for k in (np.flatnonzero(block < density) + drawn).tolist():
            if k != fraction_at:
                shared_at.append(k)
                fraction_at = k + 1
        blocks.append(block)
        drawn += len(block)
    at = np.array(shared_at, dtype=np.intp)
    stream = np.concatenate(blocks) if blocks else np.empty(0)
    return at - np.arange(len(at)), stream[at + 1]

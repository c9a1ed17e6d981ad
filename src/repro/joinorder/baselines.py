"""Uniform-result wrappers over the classical join-ordering solvers.

The benchmark harness compares many methods; this module gives the classical
references the same ``JoinOrderOutcome`` shape.  The QUBO methods run
through :func:`repro.solve` with ``LeftDeepJoinAdapter`` /
``BushyJoinAdapter``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.dp import dp_optimal_bushy, dp_optimal_leftdeep, greedy_operator_ordering, random_order
from repro.db.plans import JoinTree
from repro.db.query import JoinGraph


@dataclass
class JoinOrderOutcome:
    """One solver's answer on one query."""

    method: str
    tree: JoinTree
    cost: float

    def ratio_to(self, reference_cost: float) -> float:
        """Cost ratio vs a reference optimum (1.0 = optimal)."""
        return self.cost / max(reference_cost, 1e-12)


def solve_dp_bushy(graph: JoinGraph) -> JoinOrderOutcome:
    tree, cost = dp_optimal_bushy(graph)
    return JoinOrderOutcome("dp_bushy", tree, cost)


def solve_dp_leftdeep(graph: JoinGraph) -> JoinOrderOutcome:
    tree, cost = dp_optimal_leftdeep(graph)
    return JoinOrderOutcome("dp_leftdeep", tree, cost)


def solve_greedy(graph: JoinGraph) -> JoinOrderOutcome:
    tree, cost = greedy_operator_ordering(graph)
    return JoinOrderOutcome("greedy", tree, cost)


def solve_random(graph: JoinGraph, rng=None) -> JoinOrderOutcome:
    tree, cost = random_order(graph, rng=rng)
    return JoinOrderOutcome("random", tree, cost)

"""Problem adapters for join ordering ([23]-[26]).

Two encodings, two solution shapes: the left-deep adapter works over join
*orders* (relation permutations), the bushy adapter over
:class:`~repro.db.plans.JoinTree` objects.  Both re-cost decoded plans with
the exact C_out model — the QUBO optimises a log-cost surrogate.
"""

from __future__ import annotations

import itertools
import operator

from repro.api.problem import Problem
from repro.db.cost import CostModel
from repro.db.dp import dp_optimal_bushy, dp_optimal_leftdeep
from repro.db.plans import JoinTree
from repro.db.query import JoinGraph
from repro.joinorder.bushy_qubo import BushyJoinQubo
from repro.joinorder.leftdeep_qubo import LeftDeepJoinQubo


class LeftDeepJoinAdapter(Problem):
    """Left-deep join ordering: solutions are relation orders (lists)."""

    name = "joinorder_leftdeep"

    def __init__(self, graph: JoinGraph, penalty: "float | None" = None):
        self.graph = graph
        self.builder = LeftDeepJoinQubo(graph, penalty=penalty)
        self._cost_model = CostModel(graph)

    def build_qubo(self):
        return self.builder.build()

    def decode(self, bits) -> list[str]:
        return self.builder.decode(self.to_qubo(), bits)

    def evaluate(self, solution: list[str]) -> float:
        return self._cost_model.cost_of_order(solution)

    def refine(self, solution: list[str]) -> list[str]:
        """First-improvement pairwise-swap descent on the exact C_out.

        A swap ``(i, j)`` changes only the prefixes ending at positions
        ``i..j-1``, so its cost restarts from the unchanged prefix's
        running total, adds the changed prefixes' cardinalities (masks with
        ``order[i]``'s bit traded for ``order[j]``'s) and then the
        unchanged tail's: the additions :meth:`evaluate` makes, in the same
        order.  Cardinalities are positive, so the running total never
        falls and a swap is dropped as soon as it reaches the acceptance
        bound.  The accepted moves are the ones full re-evaluation would
        take.
        """
        order = list(solution)
        model = self._cost_model
        cost = model.cost_of_order(order)
        card = model.mask_cardinality
        n = len(order)
        improved = True
        while improved:
            improved = False
            limit = cost - 1e-12
            bits = model.relation_bits(order)
            masks = list(itertools.accumulate(bits, operator.or_))
            cards = [0.0] + [card(m) for m in masks[1:]]
            totals = list(itertools.accumulate(cards))  # totals[k]: prefixes 2..k+1
            for i in range(n - 1):
                for j in range(i + 1, n):
                    trade = bits[i] | bits[j]
                    c = totals[i - 1] if i else 0.0
                    for k in range(max(i, 1), j):
                        c += card(masks[k] ^ trade)
                        if not c < limit:
                            break
                    else:
                        for k in range(j, n):
                            c += cards[k]
                            if not c < limit:
                                break
                        else:
                            order[i], order[j] = order[j], order[i]
                            cost = c
                            improved = True
                            break
                if improved:
                    break
        return order

    def is_feasible(self, solution: list[str]) -> bool:
        return sorted(solution) == self.graph.relations

    def classical_baseline(self, rng=None) -> list[str]:
        tree, _ = dp_optimal_leftdeep(self.graph, avoid_cross=False)
        return tree.leaves_in_order()


class BushyJoinAdapter(Problem):
    """Bushy join trees: solutions are :class:`JoinTree` objects."""

    name = "joinorder_bushy"

    def __init__(self, graph: JoinGraph, penalty: "float | None" = None):
        self.graph = graph
        self.builder = BushyJoinQubo(graph, penalty=penalty)

    def build_qubo(self):
        return self.builder.build()

    def decode(self, bits) -> JoinTree:
        return self.builder.decode(self.to_qubo(), bits)

    def evaluate(self, solution: JoinTree) -> float:
        return self.builder.true_cost(solution)

    def is_feasible(self, solution: JoinTree) -> bool:
        return solution.relations() == frozenset(self.graph.relations)

    def classical_baseline(self, rng=None) -> JoinTree:
        tree, _ = dp_optimal_bushy(self.graph)
        return tree

"""Cardinality estimation and the C_out cost model.

``C_out`` — the sum of the cardinalities of all intermediate join results —
is the cost function used throughout the join-ordering literature the paper
surveys ([55]-[57], [23]-[26]).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

from repro.db.plans import JoinTree, check_join_order
from repro.db.query import JoinGraph
from repro.exceptions import ReproError


class CostModel:
    """Independence-assumption cardinality estimates over a join graph."""

    def __init__(self, graph: JoinGraph):
        self.graph = graph
        self._card_cache: dict[frozenset, float] = {}

    def set_cardinality(self, relations: Iterable[str]) -> float:
        """Estimated cardinality of joining the given relation set.

        ``|S| = prod card(r) * prod_{edges inside S} sel(e)`` — every
        applicable predicate is applied once.
        """
        key = frozenset(relations)
        if not key:
            raise ReproError("cardinality of the empty set is undefined")
        if key in self._card_cache:
            return self._card_cache[key]
        card = 1.0
        rels = sorted(key)
        for r in rels:
            card *= self.graph.cardinality(r)
        for i, u in enumerate(rels):
            for v in rels[i + 1 :]:
                if self.graph.has_join(u, v):
                    card *= self.graph.selectivity(u, v)
        self._card_cache[key] = card
        return card

    def tree_cardinality(self, tree: JoinTree) -> float:
        return self.set_cardinality(tree.relations())

    def cost(self, tree: JoinTree) -> float:
        """C_out: total cardinality of every intermediate (inner) node."""
        total = 0.0
        for node in tree.inner_nodes():
            total += self.set_cardinality(node.relations())
        return total

    def log_cost(self, tree: JoinTree) -> float:
        """Sum of log10 intermediate cardinalities (the QUBO surrogate)."""
        total = 0.0
        for node in tree.inner_nodes():
            total += math.log10(max(self.set_cardinality(node.relations()), 1.0))
        return total

    def cost_of_order(self, order: Iterable[str]) -> float:
        """C_out of the left-deep tree implied by a relation order.

        Bit-identical to ``cost(leftdeep_tree_from_order(order))`` without
        building the tree; raises the same errors for an empty order or a
        repeated relation.
        """
        order = list(order)
        check_join_order(order)
        return self.prefix_cost(order)

    def prefix_cost(self, order: Sequence[str]) -> float:
        """:meth:`cost_of_order` of an order already known to be valid.

        Sums the cardinalities of the prefixes of length 2..n in turn: the
        inner nodes of the left-deep tree, in the postorder :meth:`cost`
        adds them.
        """
        total = 0.0
        prefix = frozenset(order[:1])
        for rel in order[1:]:
            prefix = prefix | {rel}
            total += self.set_cardinality(prefix)
        return total

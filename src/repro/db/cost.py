"""Cardinality estimation and the C_out cost model.

``C_out`` — the sum of the cardinalities of all intermediate join results —
is the cost function used throughout the join-ordering literature the paper
surveys ([55]-[57], [23]-[26]).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.db.plans import JoinTree, check_join_order
from repro.db.query import JoinGraph
from repro.exceptions import ReproError


class CostModel:
    """Independence-assumption cardinality estimates over a join graph.

    The graph is read once, on first use: relation ``k`` of the sorted
    relation list is bit ``k`` of a relation-set mask, and one cache keyed
    on that mask holds every cardinality computed.
    """

    def __init__(self, graph: JoinGraph):
        self.graph = graph
        self._tables = None  # built by _lookup_tables
        self._card_cache: dict[int, float] = {}

    def _lookup_tables(self):
        """``(bit of each relation, cardinalities, selectivity rows)`` in sorted order.

        Row ``k`` lists ``(m, selectivity)`` for every join of relation ``k``
        with a later relation ``m``, in ascending ``m``.
        """
        if self._tables is None:
            rels = self.graph.relations
            has_join, selectivity = self.graph.has_join, self.graph.selectivity
            self._tables = (
                {r: k for k, r in enumerate(rels)},
                [self.graph.cardinality(r) for r in rels],
                [[(m, selectivity(u, v)) for m, v in enumerate(rels) if m > k and has_join(u, v)]
                 for k, u in enumerate(rels)],
            )
        return self._tables

    def relation_bits(self, relations: Iterable[str]) -> list[int]:
        """The mask bit of each relation, in the given order."""
        bits = self._lookup_tables()[0]
        try:
            return [1 << bits[r] for r in relations]
        except KeyError as missing:
            raise ReproError(f"unknown relation {missing.args[0]!r}") from None

    def set_cardinality(self, relations: Iterable[str]) -> float:
        """Estimated cardinality of joining the given relation set.

        ``|S| = prod card(r) * prod_{edges inside S} sel(e)`` — every
        applicable predicate is applied once.
        """
        mask = 0
        for bit in self.relation_bits(set(relations)):
            mask |= bit
        if not mask:
            raise ReproError("cardinality of the empty set is undefined")
        return self.mask_cardinality(mask)

    def mask_cardinality(self, mask: int) -> float:
        """:meth:`set_cardinality` of the relation set a non-zero mask names.

        Multiplies the cardinalities, then the selectivities of the joins
        inside the set, both in sorted relation order.
        """
        card = self._card_cache.get(mask)
        if card is None:
            _, cards, rows = self._lookup_tables()
            members = [k for k in range(mask.bit_length()) if mask >> k & 1]
            card = 1.0
            for k in members:
                card *= cards[k]
            for k in members:
                for m, sel in rows[k]:
                    if mask >> m & 1:
                        card *= sel
            self._card_cache[mask] = card
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
        bits = self.relation_bits(order)
        mask = bits[0] if bits else 0
        for bit in bits[1:]:
            mask |= bit
            total += self.mask_cardinality(mask)
        return total

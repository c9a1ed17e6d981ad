"""Join trees: the plan representation for join ordering.

A :class:`JoinTree` is either a leaf (one base relation) or an inner node
joining two subtrees.  Left-deep trees (every right child is a leaf) are the
search space of Selinger-style optimizers and of the left-deep QUBO
mappings [23], [24]; general bushy trees are the space of [25], [26].
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.exceptions import ReproError


class JoinTree:
    """Immutable binary join tree."""

    __slots__ = ("left", "right", "relation", "_relations")

    def __init__(
        self,
        relation: "str | None" = None,
        left: "JoinTree | None" = None,
        right: "JoinTree | None" = None,
    ):
        if relation is not None:
            if left is not None or right is not None:
                raise ReproError("a leaf cannot have children")
            self.relation = relation
            self.left = None
            self.right = None
            self._relations = frozenset([relation])
        else:
            if left is None or right is None:
                raise ReproError("an inner node needs two children")
            overlap = left._relations & right._relations
            if overlap:
                raise ReproError(f"children share relations: {sorted(overlap)}")
            self.relation = None
            self.left = left
            self.right = right
            self._relations = left._relations | right._relations

    # -- constructors -------------------------------------------------------------

    @classmethod
    def leaf(cls, relation: str) -> "JoinTree":
        return cls(relation=relation)

    @classmethod
    def join(cls, left: "JoinTree", right: "JoinTree") -> "JoinTree":
        return cls(left=left, right=right)

    # -- structure ----------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.relation is not None

    def relations(self) -> frozenset:
        """The set of base relations under this node."""
        return self._relations

    def num_relations(self) -> int:
        return len(self._relations)

    def leaves_in_order(self) -> list[str]:
        """Base relations left-to-right."""
        if self.is_leaf:
            return [self.relation]
        return self.left.leaves_in_order() + self.right.leaves_in_order()

    def inner_nodes(self) -> Iterator["JoinTree"]:
        """Every non-leaf node (postorder)."""
        if self.is_leaf:
            return
        yield from self.left.inner_nodes()
        yield from self.right.inner_nodes()
        yield self

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def is_left_deep(self) -> bool:
        """True when every right child is a leaf."""
        if self.is_leaf:
            return True
        return self.right.is_leaf and self.left.is_left_deep()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinTree):
            return NotImplemented
        if self.is_leaf != other.is_leaf:
            return False
        if self.is_leaf:
            return self.relation == other.relation
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        if self.is_leaf:
            return hash(("leaf", self.relation))
        return hash(("join", self.left, self.right))

    def __repr__(self) -> str:
        if self.is_leaf:
            return self.relation
        return f"({self.left!r} |X| {self.right!r})"


def check_join_order(order: Sequence[str]) -> None:
    """Reject an empty order or one that names a relation twice."""
    if not order:
        raise ReproError("cannot build a join tree over no relations")
    if len(set(order)) != len(order):
        raise ReproError("duplicate relations in join order")


def leftdeep_tree_from_order(order: Sequence[str]) -> JoinTree:
    """Build the left-deep tree joining relations in the given order."""
    check_join_order(order)
    tree = JoinTree.leaf(order[0])
    for rel in order[1:]:
        tree = JoinTree.join(tree, JoinTree.leaf(rel))
    return tree


def all_leftdeep_orders(relations: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Every permutation of the relations (use only for small n)."""
    import itertools

    return itertools.permutations(relations)


def tree_from_edge_sequence(edges: Sequence[tuple[str, str]], relations: Sequence[str]) -> JoinTree:
    """Build a bushy tree by contracting join-graph edges in sequence.

    Each edge joins the two current subtrees containing its endpoints (the
    encoding used by the bushy QUBO of [25], [26]).  An edge whose endpoints
    already share a subtree is skipped (it is a redundant predicate).
    """
    forest: dict[str, JoinTree] = {r: JoinTree.leaf(r) for r in relations}
    owner: dict[str, str] = {r: r for r in relations}

    def find(r: str) -> str:
        while owner[r] != r:
            owner[r] = owner[owner[r]]
            r = owner[r]
        return r

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        joined = JoinTree.join(forest[ru], forest[rv])
        owner[rv] = ru
        forest[ru] = joined
        del forest[rv]
    roots = {find(r) for r in relations}
    if len(roots) != 1:
        raise ReproError(
            f"edge sequence leaves {len(roots)} disconnected subtrees; not a complete plan"
        )
    return forest[find(relations[0])]

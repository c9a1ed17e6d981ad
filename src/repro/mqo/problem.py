"""The multiple-query-optimization problem model (Sellis [52]).

Given a batch of queries, each with several candidate plans, choose one
plan per query minimising total cost, where pairs of plans (of different
queries) that share intermediate results yield cost *savings* when selected
together.  NP-hard; the QUBO mapping is due to Trummer & Koch [20].
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.exceptions import InfeasibleError, ReproError

PlanKey = tuple[str, str]  # (query_id, plan_id)


@dataclass(frozen=True)
class PlanChoice:
    """One candidate plan for one query."""

    query: str
    plan: str
    cost: float

    @property
    def key(self) -> PlanKey:
        return (self.query, self.plan)


class SwapIndex(NamedTuple):
    """Flat tables for scoring every single-query plan swap in one pass.

    Plans are numbered query by query (``queries`` sorted, each query's
    plans in :meth:`MQOProblem.plans_of` order): ``ids`` maps a plan key to
    its number, and ``names``, ``owner`` and ``costs`` hold each number's
    plan name, position in ``queries`` and cost.  For ``S`` savings,
    entry ``s < S`` of ``tails``, ``heads`` and ``amounts`` is saving ``s``
    in insertion order and entry ``S + s`` the same saving reversed, so one
    ``np.bincount(tails, amounts * chosen[heads])`` sums every plan's
    active savings.  ``slack`` bounds the rounding gap between a swap's
    incremental delta and the difference of two
    :meth:`MQOProblem.total_cost` sums.
    """

    queries: list[str]
    ids: dict[PlanKey, int]
    names: list[str]
    owner: np.ndarray
    costs: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    amounts: np.ndarray
    slack: float


class MQOProblem:
    """Queries, candidate plans and pairwise savings.

    :meth:`total_cost` and the plan-swap descents of
    :mod:`repro.mqo.classical` read the flat :class:`SwapIndex` tables,
    built on first use and dropped by :meth:`add_plan` and
    :meth:`add_savings` (which :meth:`add_saving` goes through).
    """

    def __init__(self):
        self._plans: dict[str, list[PlanChoice]] = {}
        self._by_key: dict[PlanKey, PlanChoice] = {}
        self._savings: dict[tuple[PlanKey, PlanKey], float] = {}
        self._swap_index: "SwapIndex | None" = None

    # -- construction -------------------------------------------------------------

    def add_plan(self, query: str, plan: str, cost: float) -> PlanChoice:
        if not cost >= 0:  # NaN fails this too
            raise ReproError("plan cost must be a non-negative number")
        choice = PlanChoice(query, plan, float(cost))
        if choice.key in self._by_key:
            raise ReproError(f"duplicate plan {plan!r} for query {query!r}")
        self._plans.setdefault(query, []).append(choice)
        self._by_key[choice.key] = choice
        self._swap_index = None
        return choice

    def add_saving(self, a: PlanKey, b: PlanKey, amount: float) -> None:
        """Record that selecting both plans saves ``amount`` cost units."""
        self.add_savings([(a, b, amount)])

    def add_savings(self, savings: Iterable[tuple[PlanKey, PlanKey, float]]) -> None:
        """Record each ``(a, b, amount)`` in turn, as :meth:`add_saving` would.

        Each item is checked before it is recorded, so a bad item raises
        with the items before it recorded, as the same :meth:`add_saving`
        calls one by one would.  Amounts of a repeated pair add up.
        """
        stored, recorded = self._by_key, self._savings
        self._swap_index = None
        for a, b, amount in savings:
            if not amount >= 0:  # NaN fails this too
                raise ReproError("savings must be non-negative numbers")
            try:
                known = a in stored and b in stored
            except TypeError:  # an unhashable name, such as a list
                known = False
            if not known:  # record the found plans' keys, not the names given
                a, b = self._plan_or_raise(a).key, self._plan_or_raise(b).key
            if a[0] == b[0]:
                raise ReproError("savings apply to plans of *different* queries")
            key = (a, b) if a < b else (b, a)
            recorded[key] = recorded.get(key, 0.0) + float(amount)

    def _plan_or_raise(self, key: PlanKey) -> PlanChoice:
        try:
            return self._by_key[(key[0], key[1])]
        except (KeyError, TypeError, IndexError):
            raise ReproError(f"unknown plan {key!r}") from None

    # -- accessors ----------------------------------------------------------------

    @property
    def queries(self) -> list[str]:
        return sorted(self._plans)

    def plans_of(self, query: str) -> list[PlanChoice]:
        if query not in self._plans:
            raise ReproError(f"unknown query {query!r}")
        return list(self._plans[query])

    @property
    def all_plans(self) -> list[PlanChoice]:
        return [p for q in self.queries for p in self._plans[q]]

    @property
    def savings(self) -> dict[tuple[PlanKey, PlanKey], float]:
        return dict(self._savings)

    @property
    def num_plans(self) -> int:
        return sum(len(v) for v in self._plans.values())

    # -- evaluation ---------------------------------------------------------------

    def validate_selection(self, selection: Mapping[str, str]) -> None:
        """Every query must have exactly one known plan selected."""
        missing = [q for q in self.queries if q not in selection]
        if missing:
            raise InfeasibleError(f"queries without a selected plan: {missing}")
        for q, plan in selection.items():
            self._plan_or_raise((q, plan))

    def total_cost(self, selection: Mapping[str, str]) -> float:
        """Total plan cost minus all savings activated by the selection."""
        self.validate_selection(selection)
        return self._selection_cost(selection)

    def _selection_cost(self, selection: Mapping[str, str]) -> float:
        """:meth:`total_cost` of an already validated selection.

        Subtracts the active savings (both plans selected) one by one, in
        insertion order.
        """
        by_key = self._by_key
        cost = sum(by_key[key].cost for key in selection.items())
        index = self.swap_index()
        chosen = np.zeros(len(index.names), dtype=bool)
        chosen[[index.ids[key] for key in selection.items()]] = True
        saved = len(index.amounts) // 2
        active = chosen[index.tails[:saved]] & chosen[index.heads[:saved]]
        for amount in index.amounts[:saved][active].tolist():
            cost -= amount
        return cost

    def swap_index(self) -> SwapIndex:
        """The :class:`SwapIndex`, built on first use after any change.

        Built whole and assigned at once, so threads refining the same
        problem at worst build it twice.
        """
        if self._swap_index is None:
            queries = self.queries
            plans = [p for q in queries for p in self._plans[q]]
            ids = {p.key: k for k, p in enumerate(plans)}
            ends = np.array([(ids[a], ids[b]) for a, b in self._savings],
                            dtype=np.int64).reshape(-1, 2)
            amounts = np.fromiter(self._savings.values(), np.float64, len(self._savings))
            tails = np.concatenate([ends[:, 0], ends[:, 1]])
            # Each of the <= 2 * (queries + savings) + 2 * degree + 4 rounded
            # operations behind a delta and a total_cost difference errs by
            # at most half an ulp of ``mass``, which bounds every partial sum
            # (see mqo.classical._descend).
            mass = sum(p.cost for p in self._by_key.values()) + sum(self._savings.values())
            degree = int(np.bincount(tails).max()) if len(tails) else 0
            terms = 2 * (len(queries) + len(self._savings)) + 2 * degree + 6
            self._swap_index = SwapIndex(
                queries=queries,
                ids=ids,
                names=[p.plan for p in plans],
                owner=np.repeat(np.arange(len(queries)), [len(self._plans[q]) for q in queries]),
                costs=np.array([p.cost for p in plans], dtype=np.float64),
                tails=tails,
                heads=np.concatenate([ends[:, 1], ends[:, 0]]),
                amounts=np.concatenate([amounts, amounts]),
                slack=terms * sys.float_info.epsilon * mass,
            )
        return self._swap_index

    def cost_bounds(self) -> tuple[float, float]:
        """(loose lower bound, upper bound) on achievable total cost."""
        lower = sum(min(p.cost for p in self._plans[q]) for q in self.queries)
        lower -= sum(self._savings.values())
        upper = sum(max(p.cost for p in self._plans[q]) for q in self.queries)
        return lower, upper

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MQOProblem({len(self._plans)} queries, {self.num_plans} plans, "
            f"{len(self._savings)} savings)"
        )

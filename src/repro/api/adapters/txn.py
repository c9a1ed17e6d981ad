"""Problem adapter for transaction slot-scheduling (Bittner & Groppe [29], [30])."""

from __future__ import annotations

from typing import Sequence

from repro.api.problem import Problem
from repro.db.transactions import Transaction
from repro.txn.classical import exhaustive_schedule, greedy_coloring_schedule
from repro.txn.qubo import (
    assignment_conflicts,
    assignment_makespan,
    decode_assignment,
    schedule_to_qubo,
)


class TxnScheduleAdapter(Problem):
    """Slot assignment under 2PL conflicts: solutions are ``{txn_id: slot}``.

    The exact objective is makespan plus a conflict penalty large enough
    that any conflict-free schedule beats any conflicting one — mirroring
    the QUBO's penalty structure but computed exactly.
    """

    name = "txn_schedule"

    def __init__(self, transactions: Sequence[Transaction], num_slots: "int | None" = None):
        self.transactions = list(transactions)
        if num_slots is None:
            # Greedy colouring bounds the slots any conflict-free schedule needs.
            num_slots = max(greedy_coloring_schedule(self.transactions).values()) + 1
        self.num_slots = num_slots
        self._conflict_penalty = sum(t.duration() for t in self.transactions) * max(num_slots, 1) + 1.0
        self._conflict_cache: "tuple[list[list[bool]], list[int]] | None" = None

    def build_qubo(self):
        return schedule_to_qubo(self.transactions, self.num_slots)

    def decode(self, bits) -> dict[str, int]:
        return decode_assignment(self.transactions, self.to_qubo(), bits, self.num_slots)

    def evaluate(self, solution: dict[str, int]) -> float:
        conflicts = assignment_conflicts(self.transactions, solution)
        return conflicts * self._conflict_penalty + assignment_makespan(self.transactions, solution)

    def refine(self, solution: dict[str, int]) -> dict[str, int]:
        """First-improvement single-transaction reslotting.

        Moving one transaction changes the objective by the penalty times
        (its conflicts in the new slot - those in the old slot) plus the
        change in the two slots' longest durations; the objective is
        integer-valued, so these deltas take exactly the moves full
        re-evaluation would.
        """
        assignment = dict(solution)
        conflicts, durations = self._conflict_table()
        penalty = self._conflict_penalty
        slot_of = [assignment[t.txn_id] for t in self.transactions]
        members: dict[int, list[int]] = {}
        for i, s in enumerate(slot_of):
            members.setdefault(s, []).append(i)
        longest = {s: max(durations[i] for i in group) for s, group in members.items()}
        improved = True
        while improved:
            improved = False
            for i, t in enumerate(self.transactions):
                old, row = slot_of[i], conflicts[i]
                rest = [k for k in members[old] if k != i]
                rest_longest = max((durations[k] for k in rest), default=0)
                keep = sum(row[k] for k in rest) * penalty + longest[old] - rest_longest
                for s in range(self.num_slots):
                    if s == old:
                        continue
                    group = members.get(s, ())
                    was = longest.get(s, 0)
                    now = max(was, durations[i])
                    if sum(row[k] for k in group) * penalty + now - was < keep - 1e-12:
                        assignment[t.txn_id] = slot_of[i] = s
                        members[old] = rest
                        longest[old] = rest_longest
                        members.setdefault(s, []).append(i)
                        longest[s] = now
                        improved = True
                        break
                if improved:
                    break
        return assignment

    def _conflict_table(self) -> tuple[list[list[bool]], list[int]]:
        """Pairwise conflict matrix and durations, built on first use.

        Built whole and assigned at once, so threads refining the same
        adapter at worst build it twice.
        """
        if self._conflict_cache is None:
            txns = self.transactions
            self._conflict_cache = (
                [[a.conflicts_with(b) for b in txns] for a in txns],
                [t.duration() for t in txns],
            )
        return self._conflict_cache

    def is_feasible(self, solution: dict[str, int]) -> bool:
        """Every transaction in a valid slot, zero conflicting co-schedules."""
        if set(solution) != {t.txn_id for t in self.transactions}:
            return False
        if any(not 0 <= s < self.num_slots for s in solution.values()):
            return False
        return assignment_conflicts(self.transactions, solution) == 0

    def classical_baseline(self, rng=None) -> dict[str, int]:
        """Exhaustive minimum makespan when tractable, else greedy colouring."""
        if self.num_slots ** len(self.transactions) <= 100_000:
            best, _, _ = exhaustive_schedule(self.transactions, self.num_slots)
            if best is not None:
                return best
        return greedy_coloring_schedule(self.transactions)

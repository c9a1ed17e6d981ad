"""Transactions, conflict serializability and two-phase locking.

This is the substrate for the Table I transaction-management row
[29]-[31]: Bittner & Groppe schedule transactions into parallel execution
slots so that conflicting transactions never overlap (avoiding 2PL
blocking); Groppe & Groppe search the schedule space with Grover.

The module provides:

* :class:`Transaction` / :class:`Schedule` — read/write models and
  interleavings;
* :func:`conflict_graph` / :func:`is_conflict_serializable` — the classic
  precedence-graph test;
* :class:`LockManager` — a strict-2PL simulator that measures blocking;
* :func:`simulate_slot_schedule` — executes a slot assignment and reports
  makespan + blocking, the objective of the QUBO mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import networkx as nx

from repro.exceptions import ReproError


@dataclass(frozen=True)
class Operation:
    """One read or write of a data item by a transaction."""

    txn: str
    kind: str  # "r" or "w"
    item: str

    def __post_init__(self):
        if self.kind not in ("r", "w"):
            raise ReproError(f"operation kind must be 'r' or 'w', got {self.kind!r}")

    def conflicts_with(self, other: "Operation") -> bool:
        """Different transactions, same item, at least one write."""
        return (
            self.txn != other.txn
            and self.item == other.item
            and ("w" in (self.kind, other.kind))
        )

    def __repr__(self) -> str:
        return f"{self.kind}{self.txn}[{self.item}]"


@dataclass
class Transaction:
    """A named sequence of read/write operations."""

    txn_id: str
    operations: list[Operation] = field(default_factory=list)

    @classmethod
    def from_string(cls, txn_id: str, spec: str) -> "Transaction":
        """Parse a compact spec like ``"r(x) w(y) r(z)"``."""
        ops = []
        for token in spec.split():
            if len(token) < 4 or token[1] != "(" or not token.endswith(")"):
                raise ReproError(f"bad operation token {token!r}")
            ops.append(Operation(txn_id, token[0], token[2:-1]))
        return cls(txn_id, ops)

    @property
    def items(self) -> set[str]:
        return {op.item for op in self.operations}

    @property
    def write_items(self) -> set[str]:
        return {op.item for op in self.operations if op.kind == "w"}

    def conflicts_with(self, other: "Transaction") -> bool:
        """Item-level conflict: shared item with at least one write."""
        if self.txn_id == other.txn_id:
            return False
        shared = self.items & other.items
        return bool(shared) and not shared.isdisjoint(self.write_items | other.write_items)

    def duration(self) -> int:
        """Execution length in ticks (one per operation, minimum 1)."""
        return max(len(self.operations), 1)


class Schedule:
    """An interleaving of operations from several transactions."""

    def __init__(self, operations: Iterable[Operation]):
        self.operations = list(operations)

    @classmethod
    def serial(cls, transactions: Sequence[Transaction], order: "Sequence[str] | None" = None) -> "Schedule":
        """The serial schedule running transactions in the given order."""
        by_id = {t.txn_id: t for t in transactions}
        order = list(order) if order is not None else [t.txn_id for t in transactions]
        ops: list[Operation] = []
        for txn_id in order:
            ops.extend(by_id[txn_id].operations)
        return cls(ops)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    @property
    def transactions(self) -> list[str]:
        seen: list[str] = []
        for op in self.operations:
            if op.txn not in seen:
                seen.append(op.txn)
        return seen


def conflict_graph(schedule: Schedule) -> nx.DiGraph:
    """Precedence graph: edge T_i -> T_j for each earlier conflicting op."""
    g = nx.DiGraph()
    g.add_nodes_from(schedule.transactions)
    ops = schedule.operations
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if a.conflicts_with(b):
                g.add_edge(a.txn, b.txn)
    return g


def is_conflict_serializable(schedule: Schedule) -> bool:
    """A schedule is conflict serializable iff its precedence graph is acyclic."""
    return nx.is_directed_acyclic_graph(conflict_graph(schedule))


class LockManager:
    """Strict two-phase locking with shared/exclusive locks.

    :meth:`run` executes transactions that were released at given start
    ticks: a transaction acquires all its locks at start (conservative 2PL,
    matching the blocking model of [29]), holds them for its duration, and
    releases at commit.  A transaction that cannot acquire its locks waits;
    waiting time is the *blocking time* the QUBO scheduler minimises.
    """

    def __init__(self, transactions: Sequence[Transaction]):
        self.transactions = {t.txn_id: t for t in transactions}

    def run(self, start_ticks: Mapping[str, int], max_ticks: int = 10_000) -> "LockingReport":
        pending = sorted(self.transactions, key=lambda t: (start_ticks[t], t))
        for t in pending:
            if start_ticks[t] < 0:
                raise ReproError("start ticks must be non-negative")
        running: dict[str, int] = {}  # txn -> remaining ticks
        finished: dict[str, int] = {}  # txn -> completion tick
        waiting: dict[str, int] = {}  # txn -> accumulated blocked ticks
        locks_shared: dict[str, set[str]] = {}
        locks_exclusive: dict[str, str] = {}
        started: dict[str, int] = {}

        def can_lock(txn: Transaction) -> bool:
            for item in txn.items:
                holder = locks_exclusive.get(item)
                if holder is not None and holder != txn.txn_id:
                    return False
            for item in txn.write_items:
                sharers = locks_shared.get(item, set())
                if sharers - {txn.txn_id}:
                    return False
            return True

        def acquire(txn: Transaction) -> None:
            for item in txn.write_items:
                locks_exclusive[item] = txn.txn_id
            for item in txn.items - txn.write_items:
                locks_shared.setdefault(item, set()).add(txn.txn_id)

        def release(txn: Transaction) -> None:
            for item, holder in list(locks_exclusive.items()):
                if holder == txn.txn_id:
                    del locks_exclusive[item]
            for item, sharers in list(locks_shared.items()):
                sharers.discard(txn.txn_id)
                if not sharers:
                    del locks_shared[item]

        tick = 0
        while len(finished) < len(self.transactions):
            if tick > max_ticks:
                raise ReproError("lock simulation exceeded max_ticks (livelock?)")
            # Finish transactions completing this tick.
            for txn_id in sorted(running):
                running[txn_id] -= 1
                if running[txn_id] == 0:
                    release(self.transactions[txn_id])
                    finished[txn_id] = tick
                    del running[txn_id]
            # Admit released transactions (deterministic order).
            for txn_id in pending:
                if txn_id in finished or txn_id in running:
                    continue
                if start_ticks[txn_id] > tick:
                    continue
                txn = self.transactions[txn_id]
                if can_lock(txn):
                    acquire(txn)
                    running[txn_id] = txn.duration()
                    started[txn_id] = tick
                else:
                    waiting[txn_id] = waiting.get(txn_id, 0) + 1
            tick += 1
        return LockingReport(
            makespan=max(finished.values()) if finished else 0,
            blocking_time=sum(waiting.values()),
            waits=dict(waiting),
            start_times=started,
            completion_times=finished,
        )


@dataclass
class LockingReport:
    """Outcome of a 2PL simulation."""

    makespan: int
    blocking_time: int
    waits: dict[str, int]
    start_times: dict[str, int]
    completion_times: dict[str, int]


def simulate_slot_schedule(
    transactions: Sequence[Transaction],
    assignment: Mapping[str, int],
    slot_length: "int | None" = None,
) -> "SlotReport":
    """Evaluate a slot assignment (the Bittner-Groppe objective).

    Transactions assigned to slot ``s`` are released at tick
    ``s * slot_length``; the 2PL simulator then reports actual makespan and
    blocking.  A conflict-free assignment (no two conflicting transactions
    in the same slot) should show zero blocking when ``slot_length`` covers
    the longest transaction.
    """
    if slot_length is None:
        slot_length = max((t.duration() for t in transactions), default=1)
    start_ticks = {t.txn_id: assignment[t.txn_id] * slot_length for t in transactions}
    report = LockManager(transactions).run(start_ticks)
    conflicts_in_slot = 0
    txns = list(transactions)
    for i, a in enumerate(txns):
        for b in txns[i + 1 :]:
            if assignment[a.txn_id] == assignment[b.txn_id] and a.conflicts_with(b):
                conflicts_in_slot += 1
    return SlotReport(
        makespan=report.makespan,
        blocking_time=report.blocking_time,
        conflicting_pairs_colocated=conflicts_in_slot,
        num_slots_used=len(set(assignment.values())),
        locking=report,
    )


@dataclass
class SlotReport:
    """Outcome of evaluating a slot assignment."""

    makespan: int
    blocking_time: int
    conflicting_pairs_colocated: int
    num_slots_used: int
    locking: LockingReport

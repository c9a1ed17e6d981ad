"""Tests for transactions, serializability and 2PL simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.transactions import (
    LockManager,
    Operation,
    Schedule,
    Transaction,
    conflict_graph,
    is_conflict_serializable,
    simulate_slot_schedule,
)
from repro.exceptions import ReproError


class TestOperations:
    def test_kind_validated(self):
        with pytest.raises(ReproError):
            Operation("T1", "x", "a")

    def test_conflict_rules(self):
        r1 = Operation("T1", "r", "x")
        w2 = Operation("T2", "w", "x")
        r2 = Operation("T2", "r", "x")
        w2y = Operation("T2", "w", "y")
        assert r1.conflicts_with(w2)
        assert not r1.conflicts_with(r2)  # read-read
        assert not r1.conflicts_with(w2y)  # different item
        assert not w2.conflicts_with(Operation("T2", "r", "x"))  # same txn

    def test_from_string(self):
        t = Transaction.from_string("T1", "r(x) w(y)")
        assert [op.kind for op in t.operations] == ["r", "w"]
        assert t.items == {"x", "y"}
        assert t.write_items == {"y"}

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ReproError):
            Transaction.from_string("T1", "rx")

    def test_transaction_conflicts(self):
        t1 = Transaction.from_string("T1", "r(x) w(x)")
        t2 = Transaction.from_string("T2", "r(x)")
        t3 = Transaction.from_string("T3", "r(y)")
        t4 = Transaction.from_string("T4", "r(z) r(x)")
        assert t1.conflicts_with(t2)  # w-r on x
        assert not t1.conflicts_with(t3)
        assert not t2.conflicts_with(t4)  # read-read only

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["T1", "T2", "T3"]),
                              st.lists(st.tuples(st.sampled_from("rw"),
                                                 st.sampled_from("xyzu")), max_size=5)),
                    min_size=2, max_size=2))
    def test_transaction_conflicts_equal_the_per_item_rule(self, specs):
        a, b = (Transaction(txn_id, [Operation(txn_id, kind, item) for kind, item in ops])
                for txn_id, ops in specs)
        shared = a.items & b.items
        per_item = a.txn_id != b.txn_id and any(
            item in a.write_items or item in b.write_items for item in shared)
        assert a.conflicts_with(b) == b.conflicts_with(a) == per_item


class TestSerializability:
    def test_serial_schedule_is_serializable(self):
        t1 = Transaction.from_string("T1", "r(x) w(x)")
        t2 = Transaction.from_string("T2", "r(x) w(x)")
        assert is_conflict_serializable(Schedule.serial([t1, t2]))

    def test_classic_nonserializable_interleaving(self):
        # T1: r(x) ... w(x); T2: r(x) w(x) in between -> lost update cycle.
        ops = [
            Operation("T1", "r", "x"),
            Operation("T2", "r", "x"),
            Operation("T2", "w", "x"),
            Operation("T1", "w", "x"),
        ]
        assert not is_conflict_serializable(Schedule(ops))

    def test_conflict_graph_edges(self):
        ops = [
            Operation("T1", "w", "x"),
            Operation("T2", "r", "x"),
        ]
        g = conflict_graph(Schedule(ops))
        assert list(g.edges) == [("T1", "T2")]

    def test_schedule_transactions_order(self):
        ops = [Operation("T2", "r", "x"), Operation("T1", "r", "y")]
        assert Schedule(ops).transactions == ["T2", "T1"]


class TestLockManager:
    def test_nonconflicting_run_in_parallel(self):
        t1 = Transaction.from_string("T1", "r(x) w(x)")
        t2 = Transaction.from_string("T2", "r(y) w(y)")
        report = LockManager([t1, t2]).run({"T1": 0, "T2": 0})
        assert report.makespan == 2
        assert report.blocking_time == 0

    def test_conflicting_block(self):
        t1 = Transaction.from_string("T1", "r(x) w(x)")
        t2 = Transaction.from_string("T2", "r(x) w(x)")
        report = LockManager([t1, t2]).run({"T1": 0, "T2": 0})
        assert report.makespan == 4  # serialised
        assert report.blocking_time == 2  # T2 waits for T1's two ticks

    def test_shared_reads_dont_block(self):
        t1 = Transaction.from_string("T1", "r(x)")
        t2 = Transaction.from_string("T2", "r(x)")
        report = LockManager([t1, t2]).run({"T1": 0, "T2": 0})
        assert report.makespan == 1
        assert report.blocking_time == 0

    def test_staggered_starts_avoid_blocking(self):
        t1 = Transaction.from_string("T1", "r(x) w(x)")
        t2 = Transaction.from_string("T2", "r(x) w(x)")
        report = LockManager([t1, t2]).run({"T1": 0, "T2": 2})
        assert report.blocking_time == 0
        assert report.makespan == 4

    def test_rejects_negative_start(self):
        t1 = Transaction.from_string("T1", "r(x)")
        with pytest.raises(ReproError):
            LockManager([t1]).run({"T1": -1})


class TestSlotSchedules:
    def _txns(self):
        return [
            Transaction.from_string("T1", "r(x) w(x)"),
            Transaction.from_string("T2", "w(x) r(y)"),
            Transaction.from_string("T3", "r(z) w(z)"),
        ]

    def test_conflict_free_assignment_no_blocking(self):
        txns = self._txns()
        report = simulate_slot_schedule(txns, {"T1": 0, "T2": 1, "T3": 0})
        assert report.blocking_time == 0
        assert report.conflicting_pairs_colocated == 0
        assert report.makespan == 4

    def test_colocated_conflict_blocks(self):
        txns = self._txns()
        report = simulate_slot_schedule(txns, {"T1": 0, "T2": 0, "T3": 0})
        assert report.conflicting_pairs_colocated == 1
        assert report.blocking_time > 0

    def test_fewer_slots_smaller_makespan_when_safe(self):
        txns = self._txns()
        packed = simulate_slot_schedule(txns, {"T1": 0, "T2": 1, "T3": 0})
        spread = simulate_slot_schedule(txns, {"T1": 0, "T2": 1, "T3": 2})
        assert packed.makespan <= spread.makespan
        assert packed.num_slots_used == 2

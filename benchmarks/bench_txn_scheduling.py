"""E11: transaction scheduling ([29]-[31]).

Shapes: the QUBO ground state is a conflict-free, minimum-makespan
schedule matching the exhaustive optimum; conflict-free schedules show
zero 2PL blocking; Grover finds valid schedules with fewer oracle calls
than the schedule space size.
"""

import numpy as np
import pytest

from repro import solve
from repro.api import TxnScheduleAdapter
from repro.db.transactions import simulate_slot_schedule
from repro.txn import (
    generate_transactions,
    grover_find_schedule,
    grover_minimum_makespan,
)
from repro.txn.classical import exhaustive_schedule
from repro.txn.qubo import assignment_conflicts, assignment_makespan


def test_e11_qubo_schedule_quality():
    def kernel():
        results = []
        for seed in range(4):
            txns = generate_transactions(5, num_items=5, rng=seed)
            # refine=False/top_k=1: decode-best parity (measure the sampler,
            # not the facade's reslotting descent).
            assignment = solve(txns, backend="sa", seed=seed, refine=False, top_k=1, num_reads=24, num_sweeps=300).solution
            report = simulate_slot_schedule(txns, assignment)
            results.append((assignment_conflicts(txns, assignment), report.blocking_time))
        return results

    results = kernel()
    for conflicts, blocking in results:
        assert conflicts == 0
        assert blocking == 0


def test_e11_qubo_makespan_optimal():
    def kernel():
        txns = generate_transactions(4, num_items=5, rng=7)
        adapter = TxnScheduleAdapter(txns)
        assignment = solve(adapter, backend="sa", seed=8, refine=False, top_k=1, num_reads=32, num_sweeps=400).solution
        _, best_makespan, _ = exhaustive_schedule(txns, adapter.num_slots)
        return assignment_makespan(txns, assignment), best_makespan, txns, assignment

    makespan, best_makespan, txns, assignment = kernel()
    assert assignment_conflicts(txns, assignment) == 0
    assert makespan == best_makespan


def test_e11_blocking_vs_conflict_density():
    """Naive co-scheduling blocks more as conflicts densify; QUBO stays at 0."""

    def kernel():
        rows = []
        for num_items in (12, 6, 3):
            txns = generate_transactions(5, num_items=num_items, rng=3)
            naive = {t.txn_id: 0 for t in txns}  # everything in slot 0
            naive_report = simulate_slot_schedule(txns, naive)
            assignment = solve(txns, backend="sa", seed=4, refine=False, top_k=1, num_reads=16, num_sweeps=250).solution
            qubo_report = simulate_slot_schedule(txns, assignment)
            rows.append((num_items, naive_report.blocking_time, qubo_report.blocking_time))
        return rows

    rows = kernel()
    naive_blocking = [r[1] for r in rows]
    assert naive_blocking[-1] >= naive_blocking[0]  # denser conflicts block more
    assert all(r[2] == 0 for r in rows)  # QUBO schedules never block


def test_e11_grover_scheduler():
    def kernel():
        txns = generate_transactions(4, num_items=6, rng=5)
        find = grover_find_schedule(txns, 4, rng=6)
        best = grover_minimum_makespan(txns, 4, rng=7)
        _, optimum, checked = exhaustive_schedule(txns, 4)
        return find, best, optimum, checked

    find, best, optimum, checked = kernel()
    assert find.found
    assert best.makespan == optimum
    assert find.oracle_calls < checked  # beats full enumeration

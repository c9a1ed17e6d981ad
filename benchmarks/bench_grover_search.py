"""E7 / E16: quantum database search and operations (Sec. III-A).

Shape to reproduce: classical ~N/2 oracle calls vs Grover ~(pi/4) sqrt(N)
with success >= 0.9; set operations and joins return exact answers with
fewer oracle calls than their classical counterparts at scale.
"""

import math

import numpy as np
import pytest

from repro.algorithms.grover import CountingOracle, GroverSearch, classical_search, optimal_iterations
from repro.qdb.join import classical_join, quantum_join
from repro.qdb.search import classical_select, quantum_select
from repro.qdb.setops import classical_intersection_calls, quantum_intersection
from repro.qdb.table import QuantumTable


def test_e7_grover_vs_classical_sweep():
    """Oracle calls across N = 2^n, n = 4..10 — the E7 table."""

    def kernel():
        rows = []
        for n in range(4, 11):
            N = 2**n
            target = N // 3
            oracle = CountingOracle([target], n)
            result = GroverSearch(oracle).run(rng=n)
            classical_calls = []
            for seed in range(10):
                c_oracle = CountingOracle([target], n)
                classical_search(c_oracle, rng=seed)
                classical_calls.append(c_oracle.calls)
            rows.append((N, result.oracle_calls, float(np.mean(classical_calls)), result.success_probability))
        return rows

    rows = kernel()
    for N, q_calls, c_calls, success in rows:
        assert success >= 0.9
        assert q_calls <= math.ceil(math.pi / 4 * math.sqrt(N))
    # Quadratic speedup shape: classical/quantum ratio grows ~sqrt(N).
    first_ratio = rows[0][2] / rows[0][1]
    last_ratio = rows[-1][2] / rows[-1][1]
    assert last_ratio > first_ratio * 2


def test_e7_multi_target_extraction():
    table = QuantumTable("t", 8, range(256))

    def kernel():
        q = quantum_select(table, lambda k: k % 51 == 0, rng=1)
        c = classical_select(QuantumTable("t", 8, range(256)), lambda k: k % 51 == 0, rng=1)
        return q, c

    q, c = kernel()
    assert q.matches == c.matches
    assert q.oracle_calls < c.oracle_calls


def test_e16_set_operations():
    a = QuantumTable("a", 7, range(0, 128, 3))
    b = QuantumTable("b", 7, range(0, 128, 7))

    result = quantum_intersection(a, b, rng=2)
    assert result.keys == frozenset(set(a.keys) & set(b.keys))
    assert result.oracle_calls > 0
    assert classical_intersection_calls(a, b) == a.cardinality


def test_e16_quantum_join():
    a = QuantumTable("a", 5, [1, 3, 9, 14, 27])
    b = QuantumTable("b", 5, [3, 9, 20, 30])

    result = quantum_join(a, b, rng=3)
    reference = classical_join(a, b)
    assert result.pairs == reference.pairs
    assert reference.oracle_calls == 20  # |A| * |B|

"""Tests for bruteforce, tabu, penalty builders and the sample set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.qubo.bruteforce import BruteForceSolver
from repro.qubo.model import QuboModel
from repro.qubo.penalty import (
    add_at_most_one,
    add_equality,
    add_exactly_one,
    add_forbid_pair,
    add_implication,
    suggest_penalty_weight,
)
from repro.qubo.sampleset import SampleSet
from repro.qubo.tabu import TabuSolver


def _random_model(seed, n=6):
    rng = np.random.default_rng(seed)
    m = QuboModel(n)
    for i in range(n):
        m.add_linear(i, float(rng.normal()))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                m.add_quadratic(i, j, float(rng.normal()))
    return m


class TestSampleSet:
    def test_sorted_by_energy(self):
        ss = SampleSet([(0,), (1,)], [2.0, -1.0])
        assert ss.best.energy == -1.0
        assert [s.energy for s in ss] == [-1.0, 2.0]

    def test_merges_duplicates(self):
        ss = SampleSet([(1, 0), (1, 0)], [1.0, 1.0], counts=[1, 2])
        assert len(ss) == 1
        assert ss.best.num_occurrences == 3

    def test_truncate(self):
        ss = SampleSet([(1, 1), (0, 0), (0, 1)], [5.0, 0.0, 1.0])
        assert [s.bits for s in ss.truncate(2)] == [(0, 0), (0, 1)]

    def test_empty_best_raises(self):
        with pytest.raises(IndexError):
            SampleSet([], []).best

    def test_decode_best(self):
        m = QuboModel()
        m.variable("a")
        m.variable("b")
        ss = SampleSet([(1, 0)], [0.0])
        assert ss.decode_best(m) == {"a": 1, "b": 0}


class TestBruteForce:
    def test_finds_optimum(self):
        m = QuboModel(2)
        m.add_linear(0, -1.0).add_linear(1, -1.0).add_quadratic(0, 1, 3.0)
        ss = BruteForceSolver().solve(m)
        assert ss.best.energy == -1.0
        assert ss.best.bits in ((0, 1), (1, 0))

    def test_keep_limits_results(self):
        ss = BruteForceSolver().solve(_random_model(0), keep=3)
        assert len(ss) == 3

    def test_variable_limit(self):
        with pytest.raises(ReproError):
            BruteForceSolver(max_variables=4).solve(QuboModel(5))

    def test_empty_model_returns_the_empty_assignment(self):
        model = QuboModel(0)
        model.offset = 1.5
        ss = BruteForceSolver().solve(model)
        assert [(s.bits, s.energy) for s in ss] == [((), 1.5)]


class TestTabu:
    def test_reaches_optimum_on_small_models(self):
        for seed in range(5):
            m = _random_model(seed)
            exact = BruteForceSolver().solve(m).best_energy()
            found = TabuSolver(num_restarts=6, max_iterations=300).solve(m, rng=seed).best_energy()
            assert found == pytest.approx(exact, abs=1e-9)

    def test_deterministic_given_seed(self):
        m = _random_model(11)
        a = TabuSolver().solve(m, rng=5).best.bits
        b = TabuSolver().solve(m, rng=5).best.bits
        assert a == b


class TestPenalties:
    def test_exactly_one_minimum(self):
        m = QuboModel(3)
        add_exactly_one(m, [0, 1, 2], 2.0)
        ss = BruteForceSolver().solve(m, keep=8)
        assert ss.best.energy == pytest.approx(0.0)
        assert sum(ss.best.bits) == 1
        # Zero-hot and two-hot both cost.
        assert m.energy([0, 0, 0]) == pytest.approx(2.0)
        assert m.energy([1, 1, 0]) == pytest.approx(2.0)
        assert m.energy([1, 1, 1]) == pytest.approx(8.0)

    def test_exactly_one_rejects_empty(self):
        with pytest.raises(ValueError):
            add_exactly_one(QuboModel(1), [], 1.0)

    def test_at_most_one(self):
        m = QuboModel(3)
        add_at_most_one(m, [0, 1, 2], 4.0)
        assert m.energy([0, 0, 0]) == 0.0
        assert m.energy([1, 0, 0]) == 0.0
        assert m.energy([1, 1, 0]) == 4.0
        assert m.energy([1, 1, 1]) == 12.0

    def test_equality(self):
        m = QuboModel(4)
        add_equality(m, [0, 1, 2, 3], target=2, weight=1.0)
        assert m.energy([1, 1, 0, 0]) == pytest.approx(0.0)
        assert m.energy([1, 0, 0, 0]) == pytest.approx(1.0)
        assert m.energy([1, 1, 1, 0]) == pytest.approx(1.0)
        assert m.energy([1, 1, 1, 1]) == pytest.approx(4.0)

    def test_implication(self):
        m = QuboModel(2)
        add_implication(m, 0, 1, 3.0)
        assert m.energy([0, 0]) == 0.0
        assert m.energy([1, 1]) == 0.0
        assert m.energy([1, 0]) == 3.0

    def test_forbid_pair(self):
        m = QuboModel(2)
        add_forbid_pair(m, 0, 1, 7.0)
        assert m.energy([1, 1]) == 7.0
        assert m.energy([1, 0]) == 0.0

    def test_suggest_penalty_weight_dominates(self):
        m = _random_model(3)
        w = suggest_penalty_weight(m)
        swing = sum(abs(v) for v in m.linear.values()) + sum(abs(v) for v in m.quadratic.values())
        assert w > swing


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_property_constrained_optimum_is_feasible(seed):
    """With the suggested weight, the optimum satisfies exactly-one."""
    rng = np.random.default_rng(seed)
    m = QuboModel(4)
    for i in range(4):
        m.add_linear(i, float(rng.normal()))
    w = suggest_penalty_weight(m)
    add_exactly_one(m, [0, 1, 2, 3], w)
    best = BruteForceSolver().solve(m).best
    assert sum(best.bits) == 1

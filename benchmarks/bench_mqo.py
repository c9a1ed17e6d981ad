"""E8: MQO on the annealer ([20]'s headline experiment, reshaped).

Shapes to reproduce: the annealer matches the exhaustive/hill-climbing
optimum on small instances, keeps beating greedy as sharing density grows,
and its QUBO grows linearly (``queries * plans`` variables) while
exhaustive enumeration explodes as ``plans^queries``.
"""

import numpy as np
import pytest

from repro import solve
from repro.mqo import (
    exhaustive_mqo,
    generate_mqo_problem,
    greedy_mqo,
    hill_climbing_mqo,
)


def test_e8_quality_matches_exhaustive():
    """Annealing solution quality == exhaustive optimum (q=4, p=3)."""

    ratios = []
    for seed in range(4):
        problem = generate_mqo_problem(4, 3, sharing_density=0.4, rng=seed)
        _, optimum = exhaustive_mqo(problem)
        result = solve(problem, backend="sa", seed=seed, num_reads=16, num_sweeps=200)
        ratios.append(result.objective / optimum)
    assert np.allclose(ratios, 1.0)


def test_e8_sharing_density_sweep():
    """More sharing -> larger greedy gap; annealer keeps the advantage."""

    def kernel():
        gaps = []
        for density in (0.0, 0.3, 0.6, 0.9):
            greedy_total = 0.0
            quantum_total = 0.0
            for seed in range(3):
                problem = generate_mqo_problem(4, 3, sharing_density=density, rng=seed + 10)
                _, greedy_cost = greedy_mqo(problem)
                result = solve(problem, backend="sa", seed=seed, num_reads=16, num_sweeps=200)
                greedy_total += greedy_cost
                quantum_total += result.objective
            gaps.append(greedy_total / quantum_total)
        return gaps

    gaps = kernel()
    assert gaps[0] == pytest.approx(1.0)  # no sharing: greedy is optimal
    assert all(g > 1.05 for g in gaps[1:])  # with sharing: the annealer wins
    assert max(gaps) > 1.3  # and the advantage becomes substantial


def test_e8_scaling_crossover():
    """The annealer's QUBO grows linearly while exhaustive explodes."""
    spaces = []
    for q, p in ((3, 3), (5, 3), (7, 3), (9, 3)):
        problem = generate_mqo_problem(q, p, sharing_density=0.3, rng=q)
        result = solve(problem, backend="sa", seed=q, num_reads=12, num_sweeps=150)
        _, hc_cost = hill_climbing_mqo(problem, restarts=10, rng=q)
        assert result.num_variables == q * p  # one binary per (query, plan)
        assert result.objective / hc_cost <= 1.02  # matches or beats hill climbing
        spaces.append(p**q)
    assert spaces[-1] / spaces[0] > 500  # exhaustive space explodes

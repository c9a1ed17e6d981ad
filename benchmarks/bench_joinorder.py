"""E9 / E12: join-ordering QUBOs and the VQC agent.

Shapes: QUBO plans decode to valid trees with small cost ratios vs DP
optima across topologies; bushy strictly beats left-deep somewhere; the
VQC learning curve improves toward ratio 1.
"""

import numpy as np
import pytest

from repro import solve
from repro.api import BushyJoinAdapter
from repro.db.dp import dp_optimal_bushy, dp_optimal_leftdeep
from repro.db.generator import chain_query, cycle_query, star_query
from repro.joinorder.baselines import solve_random
from repro.joinorder.vqc_agent import VQCJoinOrderAgent


def test_e9_leftdeep_quality_sweep():
    """Left-deep QUBO vs exact left-deep DP on three topologies."""

    def kernel():
        ratios = {}
        for name, gen in (("chain", chain_query), ("star", star_query), ("cycle", cycle_query)):
            per_topology = []
            for seed in range(3):
                graph = gen(5, rng=seed)
                _, reference = dp_optimal_leftdeep(graph, avoid_cross=False)
                # refine=False/top_k=1: decode-best parity with the published
                # pipeline shape (no classical polish in the measurement).
                outcome = solve(graph, backend="sa", seed=seed, refine=False, top_k=1, num_reads=24, num_sweeps=384)
                per_topology.append(outcome.objective / reference)
            ratios[name] = float(np.mean(per_topology))
        return ratios

    ratios = kernel()
    for name, ratio in ratios.items():
        assert ratio < 2.5, name  # log-surrogate stays near the optimum
    assert min(ratios.values()) < 1.3


def test_e9_qubo_beats_random():
    """Sanity shape: the QUBO route dominates random ordering."""

    def kernel():
        qubo_total, random_total = 0.0, 0.0
        for seed in range(4):
            graph = chain_query(6, rng=seed + 30)
            qubo_total += solve(graph, backend="sa", seed=seed, refine=False, top_k=1, num_reads=24, num_sweeps=384).objective
            random_total += solve_random(graph, rng=seed).cost
        return random_total / qubo_total

    advantage = kernel()
    assert advantage > 1.0


def test_e9_bushy_vs_leftdeep():
    """Bushy trees beat left-deep on chains somewhere (the [25] pitch)."""

    def kernel():
        strict_wins = 0
        valid = 0
        for seed in range(6):
            graph = chain_query(6, rng=seed)
            _, bushy = dp_optimal_bushy(graph)
            _, leftdeep = dp_optimal_leftdeep(graph)
            if bushy < leftdeep * 0.999:
                strict_wins += 1
            outcome = solve(BushyJoinAdapter(graph), backend="sa", seed=seed, refine=False, top_k=1, num_reads=24, num_sweeps=384)
            if outcome.solution.relations() == frozenset(graph.relations):
                valid += 1
        return strict_wins, valid

    strict_wins, valid = kernel()
    assert strict_wins >= 1
    assert valid == 6


def test_e12_vqc_learning_curve():
    """Winker et al. [27]: the quantum policy's cost ratio improves."""

    def kernel():
        graph = chain_query(4, rng=2)
        agent = VQCJoinOrderAgent(graph, num_layers=1)
        history = agent.train(episodes=60, rng=0)
        early = float(np.mean(history.ratios[:15]))
        late = history.mean_ratio(15)
        greedy_ratio = None
        order = agent.greedy_order()
        from repro.db.cost import CostModel
        from repro.db.plans import leftdeep_tree_from_order

        greedy_ratio = CostModel(graph).cost(leftdeep_tree_from_order(order)) / agent.optimal_cost
        return early, late, greedy_ratio

    early, late, greedy_ratio = kernel()
    assert late < early  # the learning curve descends
    assert greedy_ratio == pytest.approx(1.0, abs=0.5)  # near-optimal final policy

"""E1: Table I as a working-systems matrix.

Every row of the paper's Table I — (DB problem, formulation, intermediate
algorithm, machine class) — is exercised end to end on a representative
instance and must land within a small gap of its classical optimum.
"""

import pytest

from repro import solve
from repro.annealing import AnnealerDevice
from repro.api import (
    AnnealerBackend,
    BushyJoinAdapter,
    LeftDeepJoinAdapter,
    QAOABackend,
    SchemaMatchingAdapter,
    TxnScheduleAdapter,
)
from repro.db.generator import chain_query
from repro.db.dp import dp_optimal_bushy, dp_optimal_leftdeep
from repro.integration import generate_schema_pair, hungarian_matching
from repro.integration.qubo import matching_similarity_total, similarity_matrix
from repro.joinorder.vqc_agent import VQCJoinOrderAgent
from repro.mqo import exhaustive_mqo, generate_mqo_problem
from repro.txn import generate_transactions, grover_find_schedule
from repro.txn.qubo import assignment_conflicts


def test_row_mqo_annealing_trummer_koch():
    """[20]: MQO -> QUBO -> annealing-based machine."""
    problem = generate_mqo_problem(4, 3, sharing_density=0.4, rng=0)
    _, optimum = exhaustive_mqo(problem)
    backend = AnnealerBackend(device=AnnealerDevice(sampler="sa", num_reads=24, num_sweeps=256))
    result = solve(problem, backend, seed=1)
    assert result.objective == pytest.approx(optimum)


def test_row_mqo_qaoa_fankhauser():
    """[21], [22]: MQO -> QUBO -> QAOA on a gate-based machine."""
    problem = generate_mqo_problem(3, 2, sharing_density=0.5, rng=2)
    _, optimum = exhaustive_mqo(problem)
    backend = QAOABackend(num_layers=3, maxiter=120, restarts=2, shots=512)
    result = solve(problem, backend, seed=3)
    assert result.objective == pytest.approx(optimum)


def test_row_join_ordering_qaoa_schonberger():
    """[23], [24]: left-deep join ordering -> QUBO -> QAOA."""
    graph = chain_query(3, rng=4)
    _, reference = dp_optimal_leftdeep(graph, avoid_cross=False)
    result = solve(
        LeftDeepJoinAdapter(graph), backend="qaoa", seed=5, num_layers=2, maxiter=100,
        restarts=2, shots=512, refine=False, top_k=1,
    )
    assert result.objective <= reference * 2.0


def test_row_bushy_join_trees_nayak():
    """[25], [26]: bushy join trees -> QUBO -> annealing/VQE-class solver."""
    graph = chain_query(5, rng=6)
    _, reference = dp_optimal_bushy(graph)
    result = solve(
        BushyJoinAdapter(graph), backend="sa", seed=7, num_reads=24, num_sweeps=384,
        refine=False, top_k=1,
    )
    assert result.solution.relations() == frozenset(graph.relations)
    assert result.objective / reference < 10.0


def test_row_join_ordering_vqc_winker():
    """[27]: join ordering as learning with a variational quantum circuit."""
    graph = chain_query(4, rng=2)
    agent = VQCJoinOrderAgent(graph, num_layers=1)

    history = agent.train(episodes=50, rng=0)
    assert history.mean_ratio(10) < sum(history.ratios[:10]) / 10


def test_row_schema_matching_fritsch_scherzinger():
    """[28]: schema matching -> QUBO -> annealing; matches Hungarian score."""
    source, target, _ = generate_schema_pair(6, rng=8)
    adapter = SchemaMatchingAdapter(source, target)

    matching = solve(adapter, backend="sa", seed=9, refine=False, top_k=1, num_reads=24, num_sweeps=300).solution
    hungarian = hungarian_matching(source, target)
    full_sims = similarity_matrix(source, target)
    qubo_score = matching_similarity_total(matching, full_sims)
    hungarian_score = matching_similarity_total(hungarian, full_sims)
    assert qubo_score >= 0.97 * hungarian_score


def test_row_transactions_qubo_bittner_groppe():
    """[29], [30]: two-phase-locking schedules -> QUBO -> annealing."""
    txns = generate_transactions(5, num_items=5, rng=10)

    assignment = solve(TxnScheduleAdapter(txns), backend="sa", seed=11, refine=False, top_k=1, num_reads=24, num_sweeps=300).solution
    assert assignment_conflicts(txns, assignment) == 0


def test_row_transactions_grover_groppe_groppe():
    """[31]: transaction schedules via Grover search on a universal machine."""
    txns = generate_transactions(4, num_items=6, rng=12)
    result = grover_find_schedule(txns, 4, rng=13)
    assert result.found
    assert assignment_conflicts(txns, result.assignment) == 0
    assert result.oracle_calls < result.info["search_space"]

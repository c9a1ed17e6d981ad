"""E1: Table I as a working-systems matrix.

Every row of the paper's Table I — (DB problem, formulation, intermediate
algorithm, machine class) — is exercised end to end on a representative
instance and must land within a small gap of its classical optimum.
"""

import pytest

from repro import solve
from repro.annealing import AnnealerDevice
from repro.api import AnnealerBackend, QAOABackend, SchemaMatchingAdapter, TxnScheduleAdapter
from repro.db.generator import chain_query
from repro.db.dp import dp_optimal_bushy, dp_optimal_leftdeep
from repro.integration import generate_schema_pair, hungarian_matching
from repro.integration.qubo import matching_similarity_total, similarity_matrix
from repro.joinorder.baselines import solve_bushy_annealing, solve_leftdeep_qaoa
from repro.joinorder.vqc_agent import VQCJoinOrderAgent
from repro.mqo import exhaustive_mqo, generate_mqo_problem
from repro.txn import generate_transactions, grover_find_schedule
from repro.txn.qubo import assignment_conflicts


def test_row_mqo_annealing_trummer_koch(benchmark):
    """[20]: MQO -> QUBO -> annealing-based machine."""
    problem = generate_mqo_problem(4, 3, sharing_density=0.4, rng=0)
    _, optimum = exhaustive_mqo(problem)
    backend = AnnealerBackend(device=AnnealerDevice(sampler="sa", num_reads=24, num_sweeps=256))
    result = benchmark.pedantic(lambda: solve(problem, backend, seed=1), rounds=1, iterations=1)
    assert result.objective == pytest.approx(optimum)


def test_row_mqo_qaoa_fankhauser(benchmark):
    """[21], [22]: MQO -> QUBO -> QAOA on a gate-based machine."""
    problem = generate_mqo_problem(3, 2, sharing_density=0.5, rng=2)
    _, optimum = exhaustive_mqo(problem)
    backend = QAOABackend(num_layers=3, maxiter=120, restarts=2, shots=512)
    result = benchmark.pedantic(lambda: solve(problem, backend, seed=3), rounds=1, iterations=1)
    assert result.objective == pytest.approx(optimum)


def test_row_join_ordering_qaoa_schonberger(benchmark):
    """[23], [24]: left-deep join ordering -> QUBO -> QAOA."""
    graph = chain_query(3, rng=4)
    _, reference = dp_optimal_leftdeep(graph, avoid_cross=False)
    outcome = benchmark.pedantic(
        lambda: solve_leftdeep_qaoa(graph, num_layers=2, maxiter=100, rng=5), rounds=1, iterations=1
    )
    assert outcome.cost <= reference * 2.0


def test_row_bushy_join_trees_nayak(benchmark):
    """[25], [26]: bushy join trees -> QUBO -> annealing/VQE-class solver."""
    graph = chain_query(5, rng=6)
    _, reference = dp_optimal_bushy(graph)
    outcome = benchmark.pedantic(lambda: solve_bushy_annealing(graph, rng=7), rounds=1, iterations=1)
    assert outcome.tree.relations() == frozenset(graph.relations)
    assert outcome.ratio_to(reference) < 10.0


def test_row_join_ordering_vqc_winker(benchmark):
    """[27]: join ordering as learning with a variational quantum circuit."""
    graph = chain_query(4, rng=2)
    agent = VQCJoinOrderAgent(graph, num_layers=1)

    history = benchmark.pedantic(lambda: agent.train(episodes=50, rng=0), rounds=1, iterations=1)
    assert history.mean_ratio(10) < sum(history.ratios[:10]) / 10


def test_row_schema_matching_fritsch_scherzinger(benchmark):
    """[28]: schema matching -> QUBO -> annealing; matches Hungarian score."""
    source, target, _ = generate_schema_pair(6, rng=8)
    adapter = SchemaMatchingAdapter(source, target)

    def kernel():
        return solve(adapter, backend="sa", seed=9, refine=False, top_k=1, num_reads=24, num_sweeps=300).solution

    matching = benchmark.pedantic(kernel, rounds=1, iterations=1)
    hungarian = hungarian_matching(source, target)
    full_sims = similarity_matrix(source, target)
    qubo_score = matching_similarity_total(matching, full_sims)
    hungarian_score = matching_similarity_total(hungarian, full_sims)
    assert qubo_score >= 0.97 * hungarian_score


def test_row_transactions_qubo_bittner_groppe(benchmark):
    """[29], [30]: two-phase-locking schedules -> QUBO -> annealing."""
    txns = generate_transactions(5, num_items=5, rng=10)

    def kernel():
        return solve(TxnScheduleAdapter(txns), backend="sa", seed=11, refine=False, top_k=1, num_reads=24, num_sweeps=300).solution

    assignment = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert assignment_conflicts(txns, assignment) == 0


def test_row_transactions_grover_groppe_groppe(benchmark):
    """[31]: transaction schedules via Grover search on a universal machine."""
    txns = generate_transactions(4, num_items=6, rng=12)
    result = benchmark.pedantic(lambda: grover_find_schedule(txns, 4, rng=13), rounds=1, iterations=1)
    assert result.found
    assert assignment_conflicts(txns, result.assignment) == 0
    assert result.oracle_calls < result.info["search_space"]

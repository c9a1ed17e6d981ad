"""Facade plumbing: registry, seeding, portfolio, batching, dispatch."""

import numpy as np
import pytest

import repro
from repro.api import (
    Backend,
    MQOAdapter,
    SamplerBackend,
    as_problem,
    get_backend,
    list_backends,
    register_backend,
    solve,
    solve_many,
    solve_portfolio,
)
from repro.api.backends import _REGISTRY
from repro.db.generator import chain_query
from repro.exceptions import ReproError
from repro.integration import generate_schema_pair
from repro.mqo import exhaustive_mqo, generate_mqo_problem
from repro.qubo.model import QuboModel
from repro.txn import generate_transactions


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("bruteforce", "tabu", "sa", "sqa", "annealer", "qaoa", "vqe", "classical"):
            assert name in list_backends()

    def test_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown backend"):
            get_backend("no_such_engine")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_backend("sa", lambda **kw: None)

    def test_custom_backend_roundtrip(self):
        class EchoBackend(Backend):
            name = "echo_test"

            def run(self, jobs):
                from repro.qubo.bruteforce import BruteForceSolver

                return [BruteForceSolver().solve(model) for model, _ in jobs]

        register_backend("echo_test", EchoBackend)
        try:
            problem = generate_mqo_problem(2, 2, sharing_density=0.5, rng=0)
            _, opt = exhaustive_mqo(problem)
            result = solve(problem, backend="echo_test", seed=0)
            assert result.objective == pytest.approx(opt)
        finally:
            _REGISTRY.pop("echo_test", None)

    def test_backend_opts_rejected_with_instance(self):
        backend = get_backend("sa")
        with pytest.raises(ReproError, match="backend_opts"):
            solve(generate_mqo_problem(2, 2, rng=0), backend=backend, num_reads=4)


class TestSeeding:
    """Identical seeds yield identical SolveResults (the regression the
    facade's `ensure_rng` plumbing guarantees)."""

    @pytest.mark.parametrize("backend", ["sa", "tabu", "sqa", "annealer"])
    def test_int_seed_reproducible(self, backend):
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=1)
        a = solve(problem, backend=backend, seed=1234)
        b = solve(problem, backend=backend, seed=1234)
        assert a.solution == b.solution
        assert a.objective == b.objective
        assert a.energy == b.energy

    def test_generator_seed_accepted(self):
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=1)
        a = solve(problem, backend="sa", seed=np.random.default_rng(7))
        b = solve(problem, backend="sa", seed=np.random.default_rng(7))
        assert a.solution == b.solution and a.energy == b.energy

    @pytest.mark.parametrize("bad", [-1, np.int64(-5)])
    def test_negative_seed_is_a_repro_error(self, bad):
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=1)
        with pytest.raises(ReproError, match=">= 0"):
            solve(problem, backend="sa", seed=bad)

    def test_portfolio_reproducible(self):
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=2)
        a = solve_portfolio(problem, backends=("sa", "tabu"), seed=5)
        b = solve_portfolio(problem, backends=("sa", "tabu"), seed=5)
        assert a.solution == b.solution and a.method == b.method
        assert [(e["method"], e["objective"]) for e in a.info["portfolio"]] == [
            (e["method"], e["objective"]) for e in b.info["portfolio"]
        ]

    def test_solve_many_matches_seeded_singles(self):
        problems = [generate_mqo_problem(3, 2, sharing_density=0.4, rng=s) for s in range(3)]
        batch = solve_many(problems, backend="sa", seed=11)
        again = solve_many(problems, backend="sa", seed=11)
        assert [r.solution for r in batch] == [r.solution for r in again]
        assert [r.energy for r in batch] == [r.energy for r in again]


class TestPortfolioAndBatch:
    def test_portfolio_picks_minimum(self):
        problem = generate_mqo_problem(3, 2, sharing_density=0.5, rng=3)
        _, opt = exhaustive_mqo(problem)
        result = solve_portfolio(problem, backends=("bruteforce", "sa", "classical"), seed=0)
        assert result.objective == pytest.approx(opt)
        assert len(result.info["portfolio"]) == 3
        assert result.objective == min(e["objective"] for e in result.info["portfolio"])

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ReproError):
            solve_portfolio(generate_mqo_problem(2, 2, rng=0), backends=())

    def test_batch_reuses_annealer_embedding(self):
        problems = [
            MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=9))
            for _ in range(3)
        ]
        results = solve_many(problems, backend="annealer", seed=4, num_reads=8, num_sweeps=80)
        assert [r.info["embedding_cached"] for r in results] == [False, True, True]

    def test_batch_warm_starts_qaoa(self):
        problems = [
            MQOAdapter(generate_mqo_problem(2, 2, sharing_density=0.5, rng=9))
            for _ in range(2)
        ]
        results = solve_many(
            problems, backend="qaoa", seed=4, num_layers=1, maxiter=25, restarts=1
        )
        assert [r.info["warm_started"] for r in results] == [False, True]


class TestAsProblem:
    def test_dispatch_by_type(self):
        assert as_problem(generate_mqo_problem(2, 2, rng=0)).name == "mqo"
        assert as_problem(chain_query(3, rng=0)).name == "joinorder_leftdeep"
        assert as_problem(chain_query(3, rng=0), bushy=True).name == "joinorder_bushy"
        source, target, _ = generate_schema_pair(3, rng=0)
        assert as_problem((source, target)).name == "schema_matching"
        assert as_problem(generate_transactions(3, rng=0)).name == "txn_schedule"

    def test_adapter_passthrough(self):
        adapter = MQOAdapter(generate_mqo_problem(2, 2, rng=0))
        assert as_problem(adapter) is adapter
        with pytest.raises(ReproError):
            as_problem(adapter, weight=2.0)

    def test_unknown_object_rejected(self):
        with pytest.raises(ReproError, match="cannot infer"):
            as_problem(object())


class TestSamplerBackend:
    def test_rejects_non_sampler(self):
        with pytest.raises(ReproError):
            SamplerBackend(object())

    def test_classical_backend_refuses_qubo(self):
        backend = get_backend("classical")
        with pytest.raises(ReproError):
            backend.run([(QuboModel(2), 0)])

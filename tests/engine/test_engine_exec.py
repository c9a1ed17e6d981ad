"""Executors and determinism: the full executor x backend matrix, portfolios."""

import math
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro
from repro.api import MQOAdapter, SamplerBackend, backends, get_backend, register_backend
from repro.engine import ProcessExecutor, SerialExecutor, executors, get_executor, list_executors
from repro.exceptions import ReproError
from repro.mqo import generate_mqo_problem

FAST_SA = dict(num_reads=4, num_sweeps=40)

#: Every executor x every sampling-backend tier the matrix pins down.
ALL_EXECUTORS = ["serial", "processes"]
MATRIX_BACKENDS = {
    "tabu": dict(num_restarts=2, max_iterations=60),
    "sa": FAST_SA,
    "bruteforce": dict(keep=8),
}


def _mixed_batch():
    """Two structure groups (shards) so parallel executors have real work."""
    return [
        MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=r))
        for r in (1, 5, 1, 9)
    ]


class TestExecutorRegistry:
    def test_listed(self):
        assert list_executors() == ["processes", "serial"]

    def test_unknown_rejected(self):
        # 'threads' named the removed thread-pool executor.
        for name in ("gpu", 'threads'):
            with pytest.raises(ReproError, match="unknown executor"):
                get_executor(name)

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex

    def test_by_name_lookup_shares_one_instance(self):
        assert get_executor("processes") is get_executor("processes")
        assert get_executor("serial") is get_executor("serial")


def _exit_worker(_):
    os._exit(1)  # the worker process dies mid-task


class TestProcessPoolReuse:
    """A ProcessExecutor builds its pool once and reuses it across runs."""

    @pytest.fixture
    def pools(self, monkeypatch):
        built = []

        class CountingPool(executors.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
        return built

    def test_two_dispatches_build_one_pool(self, pools):
        ex = ProcessExecutor(max_workers=2)
        first = repro.solve_many(_mixed_batch(), backend="sa", seed=3, executor=ex, **FAST_SA)
        second = repro.solve_many(_mixed_batch(), backend="sa", seed=3, executor=ex, **FAST_SA)
        assert len(pools) == 1
        assert [r.objective for r in first] == [r.objective for r in second]

    def test_a_registry_change_starts_a_fresh_pool(self, pools):
        """Workers resolve backends by name, so a pool forked before a
        registration would not know the new backend."""
        ex = ProcessExecutor(max_workers=2)
        assert ex.run(abs, [-1, -2]) == [1, 2]
        register_backend("sa_again", get_backend("sa").__class__)
        try:
            results = repro.solve_many(_mixed_batch(), backend="sa_again", seed=3, executor=ex,
                                       **FAST_SA)
        finally:
            backends._REGISTRY.pop("sa_again", None)
        assert len(pools) == 2
        assert len(results) == 4

    def test_a_pool_broken_by_a_dead_worker_is_rebuilt(self, pools):
        ex = ProcessExecutor(max_workers=2)
        with pytest.raises(BrokenProcessPool):
            ex.run(_exit_worker, [0, 1])
        assert ex.run(abs, [-1, -2, 3]) == [1, 2, 3]
        assert len(pools) == 2


class TestDeterminismMatrix:
    """The engine's core contract, pinned exhaustively: for any sampling
    backend, every executor returns byte-identical objectives, solutions,
    energies, and child seeds — executor choice is wall-clock only."""

    @pytest.mark.parametrize("backend", sorted(MATRIX_BACKENDS))
    def test_all_executors_identical(self, backend):
        problems = _mixed_batch()
        opts = MATRIX_BACKENDS[backend]
        runs = {
            executor: repro.solve_many(
                problems, backend=backend, seed=11, executor=executor, **opts
            )
            for executor in ALL_EXECUTORS
        }
        reference = runs["serial"]
        for executor in ALL_EXECUTORS[1:]:
            other = runs[executor]
            assert [r.objective for r in other] == [r.objective for r in reference], executor
            assert [r.solution for r in other] == [r.solution for r in reference], executor
            assert [r.energy for r in other] == [r.energy for r in reference], executor
            assert [r.info["engine"]["seed"] for r in other] == [
                r.info["engine"]["seed"] for r in reference
            ], executor
            assert all(r.info["engine"]["executor"] == executor for r in other)

    @pytest.mark.parametrize("executor", ["processes"])
    def test_matches_serial_annealer(self, executor):
        """Stateful shard caches (embeddings) stay deterministic in parallel."""
        problems = _mixed_batch()
        opts = dict(num_reads=4, num_sweeps=40)
        serial = repro.solve_many(problems, backend="annealer", seed=3, **opts)
        other = repro.solve_many(
            problems, backend="annealer", seed=3, executor=executor, **opts
        )
        assert [r.objective for r in other] == [r.objective for r in serial]
        # Embedding reuse follows shard position, not execution order:
        # the two rng=1 problems share a shard; its leader searches, the
        # follower reuses.
        flags = {r.info["engine"]["shard_pos"]: r.info["embedding_cached"] for r in other}
        assert flags[0] is False and flags[1] is True


class TestEngineMetadata:
    def test_engine_metadata_recorded(self):
        results = repro.solve_many(
            _mixed_batch(), backend="sa", seed=11, executor="processes", **FAST_SA
        )
        for r in results:
            engine = r.info["engine"]
            assert engine["executor"] == "processes"
            assert engine["cache_hit"] is False
            assert engine["shard"] < 3 and engine["shard_size"] >= 1
            assert len(engine["fingerprint"]) == 16
            assert len(engine["signature"]) == 16  # the scoreboard routing key

    def test_direct_backend_through_engine(self):
        results = repro.solve_many(_mixed_batch(), backend="classical", seed=0)
        for r in results:
            assert math.isnan(r.energy) and not r.used_qubo
            assert r.num_variables > 0
            assert "engine" in r.info

    def test_processes_rejects_unpicklable_backend(self):
        class LocalSampler:  # local class: never picklable
            def solve(self, model, rng=None):  # pragma: no cover - never runs
                raise AssertionError

        backend = SamplerBackend(LocalSampler())
        with pytest.raises(ReproError, match="picklable"):
            repro.solve_many(_mixed_batch(), backend=backend, seed=0, executor="processes")


class TestPortfolio:
    def test_backend_opts_forwarded_per_backend(self):
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=2)
        result = repro.solve_portfolio(
            problem,
            backends=("sa", "tabu"),
            seed=5,
            backend_opts={"sa": {"num_reads": 2, "num_sweeps": 30}},
        )
        assert {e["method"] for e in result.info["portfolio"]} == {"sa", "tabu"}

    def test_unknown_backend_opts_key_rejected(self):
        problem = generate_mqo_problem(2, 2, rng=0)
        with pytest.raises(ReproError, match="no named backend"):
            repro.solve_portfolio(problem, backends=("sa",), backend_opts={"qaoa": {}})

    def test_deadline_free_portfolio_reproducible_with_opts(self):
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=2)
        kwargs = dict(
            backends=("sa", "tabu"),
            seed=7,
            backend_opts={"sa": {"num_reads": 4, "num_sweeps": 40}},
        )
        a = repro.solve_portfolio(problem, **kwargs)
        b = repro.solve_portfolio(problem, **kwargs)
        assert a.solution == b.solution and a.method == b.method
        assert [(e["method"], e["objective"], e["status"]) for e in a.info["portfolio"]] == [
            (e["method"], e["objective"], e["status"]) for e in b.info["portfolio"]
        ]

    @pytest.mark.parametrize("lone", ["sa", get_backend("tabu", num_restarts=2)])
    def test_lone_backend_is_a_one_contender_portfolio(self, lone):
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=2)
        result = repro.solve_portfolio(problem, backends=lone, seed=5)
        (entry,) = result.info["portfolio"]
        assert entry["method"] == result.method == getattr(lone, "name", lone)
        assert result.info["portfolio_meta"] == {"contenders": 1}
        single = repro.solve(problem, backend=lone, seed=result.info["engine"]["seed"])
        assert (result.objective, result.solution) == (single.objective, single.solution)

    def test_portfolio_runs_as_one_plan(self, monkeypatch):
        from repro.engine import runner

        plans = []

        def spy(plan, *args, **kwargs):
            plans.append(plan)
            return execute_plan(plan, *args, **kwargs)

        execute_plan = runner.execute_plan
        monkeypatch.setattr(runner, "execute_plan", spy)
        problem = generate_mqo_problem(3, 2, sharing_density=0.4, rng=2)
        instance = get_backend("sa", **FAST_SA)
        result = repro.solve_portfolio(problem, backends=("tabu", instance, "bruteforce"),
                                       seed=5)
        (plan,) = plans
        assert [len(shard.items) for shard in plan.shards] == [1, 1, 1]
        assert [shard.backend for shard in plan.shards] == ["tabu", instance, "bruteforce"]
        assert len({shard.signature for shard in plan.shards}) == 1
        assert all(isinstance(item.seed, int) for item in plan.items)
        assert not plan.cacheable  # one shard runs on a caller's instance
        winner = [e["method"] for e in result.info["portfolio"]].index(result.method)
        assert result.info["engine"]["shard"] == winner
        assert result.info["engine"]["seed"] == plan.items[winner].seed

    def test_failing_contender_raises(self):
        class Broken:
            def solve(self, model, rng=None):
                raise RuntimeError("contender failed")

        problem = generate_mqo_problem(2, 2, rng=0)
        with pytest.raises(RuntimeError, match="contender failed"):
            repro.solve_portfolio(problem, backends=("sa", SamplerBackend(Broken())), seed=1)

    def test_instance_contender_keeps_label(self):
        problem = generate_mqo_problem(2, 2, rng=0)
        backend = get_backend("sa", num_reads=4, num_sweeps=40)
        result = repro.solve_portfolio(problem, backends=(backend, "bruteforce"), seed=1)
        assert {e["method"] for e in result.info["portfolio"]} == {"sa", "bruteforce"}

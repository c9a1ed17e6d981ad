"""ResultCache: memory LRU over the store tier, hit semantics, RNG non-perturbation."""

import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.api import LeftDeepJoinAdapter, MQOAdapter, SchemaMatchingAdapter, TxnScheduleAdapter
from repro.api.adapters import RawQuboProblem
from repro.db.generator import chain_query
from repro.engine import EngineStore, ResultCache, default_cache, resolve_cache
from repro.exceptions import ReproError
from repro.integration.generator import generate_schema_pair
from repro.mqo import generate_mqo_problem
from repro.qubo.model import QuboModel
from repro.txn.generator import generate_transactions

FAST_SA = dict(num_reads=4, num_sweeps=40)


def _mqo(rng):
    return MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=rng))


class TestResultCacheStore:
    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        for key, value in (("a", 1), ("b", 2), ("c", 3)):
            cache.put(key, value)
        assert cache.get("a") is None  # evicted
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_get_returns_independent_copies(self):
        cache = ResultCache()
        cache.put("k", {"nested": [1, 2]})
        first = cache.get("k")
        first["nested"].append(3)
        assert cache.get("k") == {"nested": [1, 2]}

    def test_resolve_cache_spellings(self, tmp_path):
        assert resolve_cache(None) is None and resolve_cache(False) is None
        assert resolve_cache(True) is default_cache()
        cache = ResultCache()
        assert resolve_cache(cache) is cache
        # A path is not a cache: durable results are an EngineStore's.
        for path in (tmp_path / "c", str(tmp_path / "c"), ""):
            with pytest.raises(ReproError, match="store="):
                resolve_cache(path)
        assert not (tmp_path / "c").exists()
        with pytest.raises(ReproError, match="cache must be"):
            resolve_cache(123)
        with pytest.raises(ReproError, match="maxsize"):
            ResultCache(maxsize=0)


class TestDiskTierCrashSafety:
    """A damaged blob must never surface as a result."""

    def test_torn_memory_blob_is_evicted(self):
        cache = ResultCache()
        cache.put("k", 1)
        with cache._lock:
            cache._entries["k"] = cache._entries["k"][:3]  # corrupt in place
        assert cache.get("k") is None
        assert len(cache) == 0


class TestBatchCaching:
    def test_warm_rerun_hits_and_matches_cold(self):
        problems = [_mqo(r) for r in (1, 5, 1, 9)]
        cache = ResultCache()
        plain = repro.solve_many(problems, backend="sa", seed=11, **FAST_SA)
        cold = repro.solve_many(problems, backend="sa", seed=11, cache=cache, **FAST_SA)
        warm = repro.solve_many(problems, backend="sa", seed=11, cache=cache, **FAST_SA)
        assert [r.cache_hit for r in cold] == [False] * 4
        assert [r.cache_hit for r in warm] == [True] * 4
        # Caching never changes answers: plain == cold == warm.
        for runs in (cold, warm):
            assert [r.objective for r in runs] == [r.objective for r in plain]
            assert [r.solution for r in runs] == [r.solution for r in plain]

    def test_hit_does_not_perturb_neighbouring_miss(self):
        """A cached item must not shift the RNG stream (or shard state) of
        the uncached items dispatched alongside it."""
        p0, p1, p2 = _mqo(1), _mqo(5), _mqo(9)  # three distinct shards
        cache = ResultCache()
        first = repro.solve_many([p0, p1], backend="sa", seed=11, cache=cache, **FAST_SA)
        # Same batch seed, same position 0 -> p0 hits; p2 is new.
        second = repro.solve_many([p0, p2], backend="sa", seed=11, cache=cache, **FAST_SA)
        assert second[0].cache_hit and not second[1].cache_hit
        assert second[0].objective == first[0].objective
        plain = repro.solve_many([p0, p2], backend="sa", seed=11, **FAST_SA)
        assert [r.objective for r in second] == [r.objective for r in plain]

    def test_partial_shard_hit_is_shard_atomic(self):
        """Item k of a shard runs on state built by items 0..k-1, so a shard
        with any miss re-runs whole — hits inside it are discarded."""
        p = _mqo(1)
        cache = ResultCache()
        solo = repro.solve_many([p], backend="annealer", seed=7, cache=cache,
                                num_reads=4, num_sweeps=40)
        assert not solo[0].cache_hit
        # Leader's key matches the solo run, the follower is new -> whole
        # shard recomputes, and answers equal the cache-free run.
        pair = repro.solve_many([p, _mqo(1)], backend="annealer", seed=7, cache=cache,
                                num_reads=4, num_sweeps=40)
        assert [r.cache_hit for r in pair] == [False, False]
        plain = repro.solve_many([p, _mqo(1)], backend="annealer", seed=7,
                                 num_reads=4, num_sweeps=40)
        assert [r.objective for r in pair] == [r.objective for r in plain]
        # And now the pair context is fully cached.
        again = repro.solve_many([p, _mqo(1)], backend="annealer", seed=7, cache=cache,
                                 num_reads=4, num_sweeps=40)
        assert [r.cache_hit for r in again] == [True, True]

    @pytest.mark.parametrize("tier", ["memory", "store"])
    def test_discarded_partial_hit_counts_as_misses(self, tmp_path, tier):
        """A stateful shard's cached leader is not served when a follower
        misses, so it counts as a miss too: the stats (and the service's
        cache gauge built on them) report only what was served."""
        p = _mqo(1)
        store = EngineStore(tmp_path / "store.db")
        cache = ResultCache()
        opts = dict(backend="annealer", cache=cache, store=store, num_reads=4, num_sweeps=40)
        assert not repro.solve(p, seed=7, **opts).cache_hit
        if tier == "store":
            cache.clear()  # the leader's entry now lives in the store tier only
        before = cache.stats
        pair = repro.solve_many([p, _mqo(1)], seeds=[7, 8], **opts)
        assert [r.cache_hit for r in pair] == [False, False]
        after = cache.stats
        assert (after["hits"], after["store_hits"]) == (before["hits"], before["store_hits"])
        assert after["misses"] == before["misses"] + 2
        again = repro.solve_many([p, _mqo(1)], seeds=[7, 8], **opts)
        assert [r.cache_hit for r in again] == [True, True]
        assert cache.stats["hits"] == before["hits"] + 2

    def test_instance_backend_never_cached(self):
        from repro.api import get_backend

        backend = get_backend("sa", **FAST_SA)
        cache = ResultCache()
        repro.solve_many([_mqo(1)], backend=backend, seed=3, cache=cache)
        assert len(cache) == 0 and cache.stats["misses"] == 0


def _dispatch_counts(run):
    """``run()``'s results, its ``engine.execute`` ``shards_dispatched`` and
    its ``engine.solve`` span count — the counters the benchmarks read."""
    collector = obs.SpanCollector()
    with obs.activate(collector):
        results = run()
    spans = collector.drain()
    (execute,) = [s for s in spans if s["name"] == "engine.execute"]
    solves = sum(s["name"] == "engine.solve" for s in spans)
    return results, execute["attrs"]["shards_dispatched"], solves


@pytest.mark.parametrize("executor", ["serial", "processes"])
class TestDispatchCounters:
    def test_cold_dispatches_every_shard_warm_dispatches_none(self, executor):
        problems = [_mqo(r) for r in (1, 5, 1, 9)]  # three structure shards
        cache = ResultCache()

        def run():
            return repro.solve_many(problems, backend="sa", seed=11, cache=cache,
                                    executor=executor, **FAST_SA)

        cold, shards, solves = _dispatch_counts(run)
        assert (shards, solves) == (3, len(problems))
        warm, shards, solves = _dispatch_counts(run)
        assert (shards, solves) == (0, 0)
        assert all(r.cache_hit for r in warm)
        assert [r.objective for r in warm] == [r.objective for r in cold]

    def test_one_miss_dispatches_its_whole_shard(self, executor):
        """Stateful shards hit all-or-nothing: a shard with one uncached
        item re-runs whole, while a fully cached shard beside it is not
        dispatched."""
        cache = ResultCache()

        def run(problems):
            return lambda: repro.solve_many(problems, backend="annealer", seed=11,
                                            cache=cache, executor=executor, **FAST_SA)

        _dispatch_counts(run([_mqo(1), _mqo(5)]))
        # Positions 0 and 1 keep their seeds, so both items' keys are cached;
        # the new third item joins position 0's shard.
        results, shards, solves = _dispatch_counts(run([_mqo(1), _mqo(5), _mqo(1)]))
        assert [r.cache_hit for r in results] == [False, True, False]
        assert (shards, solves) == (1, 2)

    @pytest.mark.parametrize("backend, opts", [
        ("sa", FAST_SA),
        ("tabu", dict(num_restarts=2, max_iterations=40)),
        ("vqe", dict(num_layers=1, maxiter=30, restarts=1, shots=64)),
    ])
    def test_one_miss_on_a_stateless_backend_dispatches_only_itself(
        self, executor, backend, opts
    ):
        """Stateless items key and hit one by one: a new item that joins a
        cached shard is the only item dispatched, and the batch equals a
        cold run."""
        cache = ResultCache()

        def run(problems, cache):
            return lambda: repro.solve_many(problems, backend=backend, seed=11,
                                            cache=cache, executor=executor, **opts)

        _dispatch_counts(run([_mqo(1), _mqo(5)], cache))
        batch = [_mqo(1), _mqo(5), _mqo(1)]
        results, shards, solves = _dispatch_counts(run(batch, cache))
        assert [r.cache_hit for r in results] == [True, True, False]
        assert (shards, solves) == (1, 1)
        assert [r.info["engine"]["shard_pos"] for r in results] == [0, 0, 1]
        cold = run(batch, None)()
        assert [(r.objective, r.solution) for r in results] == [
            (r.objective, r.solution) for r in cold
        ]


class TestSingleSolveCaching:
    def test_int_seed_hits_on_repeat(self):
        cache = ResultCache()
        a = repro.solve(_mqo(1), backend="sa", seed=9, cache=cache, **FAST_SA)
        b = repro.solve(_mqo(1), backend="sa", seed=9, cache=cache, **FAST_SA)
        assert not a.cache_hit and b.cache_hit
        assert a.objective == b.objective and a.solution == b.solution
        plain = repro.solve(_mqo(1), backend="sa", seed=9, **FAST_SA)
        assert plain.objective == b.objective

    def test_generator_seed_skips_cache(self):
        cache = ResultCache()
        repro.solve(_mqo(1), backend="sa", seed=np.random.default_rng(3), cache=cache, **FAST_SA)
        assert len(cache) == 0

    def test_opts_partition_the_cache(self):
        cache = ResultCache()
        repro.solve(_mqo(1), backend="sa", seed=9, cache=cache, num_reads=4, num_sweeps=40)
        miss = repro.solve(_mqo(1), backend="sa", seed=9, cache=cache, num_reads=8, num_sweeps=40)
        assert not miss.cache_hit and len(cache) == 2

    def test_shard_leader_interchangeable_with_standalone_solve(self):
        """Content addressing, not object identity: a standalone solve with
        the leader's effective seed hits the batch-produced entry."""
        cache = ResultCache()
        batch = repro.solve_many([_mqo(1)], backend="sa", seed=21, cache=cache, **FAST_SA)
        leader_seed = batch[0].info["engine"]["seed"]
        hit = repro.solve(_mqo(1), backend="sa", seed=leader_seed, cache=cache, **FAST_SA)
        assert hit.cache_hit
        assert hit.objective == batch[0].objective


# -- the oracle: a cache hit equals a rerun ----------------------------------


def _raw_qubo(rng: int) -> RawQuboProblem:
    gen = np.random.default_rng(rng)
    n = int(gen.integers(2, 6))
    model = QuboModel(num_variables=n)
    for i in range(n):
        model.add_linear(i, float(gen.integers(-3, 4)))
        for j in range(i + 1, n):
            model.add_quadratic(i, j, float(gen.integers(-3, 4)))
    return RawQuboProblem(model)


def _oracle_instance(kind: str, rng: int):
    if kind == "mqo":
        return _mqo(rng)
    if kind == "txn":
        return TxnScheduleAdapter(generate_transactions(3, num_items=4, rng=rng),
                                  num_slots=2 + rng % 2)
    if kind == "join":
        return LeftDeepJoinAdapter(chain_query(3 + rng % 2, rng=rng))
    if kind == "schema":
        source, target, _ = generate_schema_pair(3 + rng % 2, rng=rng)
        return SchemaMatchingAdapter(source, target)
    return _raw_qubo(rng)


#: Per-backend options small enough for many examples.
ORACLE_BACKENDS = {"sa": FAST_SA, "tabu": dict(num_restarts=2, max_iterations=40)}


def _oracle_bytes(result) -> bytes:
    return pickle.dumps(
        (result.solution, result.objective, result.energy, result.num_variables)
    )


@settings(max_examples=8, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(["mqo", "qubo", "txn", "join", "schema"]),
                  st.integers(0, 3)),
        min_size=1, max_size=4,
    ),
    backend=st.sampled_from(sorted(ORACLE_BACKENDS)),
    seed=st.integers(0, 2**31),
)
def test_every_cache_tier_serves_what_a_rerun_computes(specs, backend, seed):
    """Cold solve, memory-tier hit, store-tier hit (a fresh cache over the
    same store file) and an uncached rerun agree byte for byte."""
    batch = [_oracle_instance(kind, rng) for kind, rng in specs]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "engine.db"
        cache = ResultCache()

        def run(cache, store):
            return repro.solve_many(batch, backend=backend, seed=seed, cache=cache,
                                    store=store, **ORACLE_BACKENDS[backend])

        runs = {
            None: run(cache, EngineStore(path)),
            "memory": run(cache, EngineStore(path)),
            "store": run(ResultCache(), EngineStore(path)),
        }
        rerun = run(False, False)
    for tier, results in runs.items():
        assert [r.info["engine"].get("cache_tier") for r in results] == [tier] * len(batch)
        assert [_oracle_bytes(r) for r in results] == [_oracle_bytes(r) for r in rerun]
    assert all(r.info["engine"].get("cache_tier") is None for r in rerun)


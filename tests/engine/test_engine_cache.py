"""ResultCache: LRU/disk tiers, hit semantics, RNG non-perturbation."""

import os
import pickle
import threading

import numpy as np
import pytest

import repro
from repro import obs
from repro.api import MQOAdapter
from repro.engine import ResultCache, default_cache, resolve_cache
from repro.exceptions import ReproError
from repro.mqo import generate_mqo_problem

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

    def test_disk_tier_shared_across_instances(self, tmp_path):
        a = ResultCache(directory=tmp_path / "store")
        a.put("k", 42)
        b = ResultCache(directory=tmp_path / "store")
        assert b.get("k") == 42  # read through from disk
        assert b.stats["hits"] == 1

    def test_clear_keeps_disk(self, tmp_path):
        cache = ResultCache(directory=tmp_path / "store")
        cache.put("k", 1)
        cache.clear()
        assert cache.stats == {"hits": 0, "misses": 0, "store_hits": 0, "entries": 0}
        assert cache.get("k") == 1  # reloaded from the disk tier

    def test_resolve_cache_spellings(self, tmp_path):
        assert resolve_cache(None) is None and resolve_cache(False) is None
        assert resolve_cache(True) is default_cache()
        cache = ResultCache()
        assert resolve_cache(cache) is cache
        disk = resolve_cache(tmp_path / "c")
        assert isinstance(disk, ResultCache) and disk.directory is not None
        with pytest.raises(ReproError, match="cache must be"):
            resolve_cache(123)
        with pytest.raises(ReproError, match="maxsize"):
            ResultCache(maxsize=0)


class TestDiskTierCrashSafety:
    """The disk tier must never serve a torn entry, and a crash mid-write
    must never make one visible."""

    def test_torn_disk_entry_is_a_miss_and_heals(self, tmp_path):
        writer = ResultCache(directory=tmp_path / "store")
        writer.put("k", {"payload": list(range(100))})
        path = writer.directory / "k.pkl"
        # Simulate a torn write (crash halfway / truncated by a full disk).
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        reader = ResultCache(directory=tmp_path / "store")  # cold memory tier
        assert reader.get("k") is None            # miss, not an exception
        assert reader.stats["misses"] == 1
        assert not path.exists()                  # damaged entry evicted
        reader.put("k", "fresh")                  # and the slot heals
        assert reader.get("k") == "fresh"

    def test_torn_memory_blob_is_evicted(self):
        cache = ResultCache()
        cache.put("k", 1)
        with cache._lock:
            cache._entries["k"] = cache._entries["k"][:3]  # corrupt in place
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_crash_mid_write_leaves_no_visible_entry(self, tmp_path, monkeypatch):
        """Kill the writer between temp-write and rename: the final path must
        not exist, and the old entry (if any) must survive untouched."""
        cache = ResultCache(directory=tmp_path / "store")
        cache.put("k", "old")

        def crash(src, dst):
            raise KeyboardInterrupt("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(KeyboardInterrupt):
            cache.put("k", "new")
        monkeypatch.undo()
        # No temp litter became the visible entry; disk still has "old".
        survivor = ResultCache(directory=tmp_path / "store")
        assert survivor.get("k") == "old"
        assert [p.name for p in (tmp_path / "store").glob("*.pkl")] == ["k.pkl"]

    def test_interrupted_write_cleans_its_temp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(directory=tmp_path / "store")

        def crash(src, dst):
            raise RuntimeError("boom")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(RuntimeError):
            cache.put("k", "value")
        monkeypatch.undo()
        assert list((tmp_path / "store").glob("*.tmp")) == []

    def test_concurrent_same_key_writers_never_tear(self, tmp_path):
        """Threads share a PID — the old pid-suffix temp naming collided and
        could publish a half-written file; mkstemp naming must not."""
        cache = ResultCache(directory=tmp_path / "store")
        payload = {"blob": bytes(50_000)}
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    cache.put("k", payload)
                    loaded = pickle.loads((cache.directory / "k.pkl").read_bytes())
                    assert loaded == payload
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert errors == []
        assert cache.get("k") == payload


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


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
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
        """Shard-atomic hits: a shard with one uncached item re-runs whole,
        while a fully cached shard beside it is not dispatched."""
        cache = ResultCache()

        def run(problems):
            return lambda: repro.solve_many(problems, backend="sa", seed=11, cache=cache,
                                            executor=executor, **FAST_SA)

        _dispatch_counts(run([_mqo(1), _mqo(5)]))
        # Positions 0 and 1 keep their seeds, so both items' keys are cached;
        # the new third item joins position 0's shard.
        results, shards, solves = _dispatch_counts(run([_mqo(1), _mqo(5), _mqo(1)]))
        assert [r.cache_hit for r in results] == [False, True, False]
        assert (shards, solves) == (1, 2)


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

"""EngineStore: durable scoreboard round-trips, shared cache tier, concurrency.

The determinism bar mirrors the engine's: a fresh scheduler hydrated from
the store must make the same routing decisions as the long-lived instance
that produced it — across serial / processes / async executors —
and two processes hammering one store file must never corrupt it.
"""

import contextlib
import math
import multiprocessing
import os
import shutil
import sqlite3
import sys
import tempfile
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import MQOAdapter
from repro.engine import (
    AdaptiveScheduler,
    BackendScoreboard,
    EngineStore,
    ResultCache,
    engine_store,
    resolve_store,
)
from repro.engine.store import STORE_ENV_VAR
from repro.exceptions import ReproError
from repro.mqo import generate_mqo_problem

FAST_SA = dict(num_reads=4, num_sweeps=40)
CANDIDATES = ("sa", "tabu", "bruteforce")
CANDIDATE_OPTS = {"sa": FAST_SA, "tabu": {"num_restarts": 2}}


def _mqo(rng):
    return MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=rng))


def _batch():
    """Four items over three structure groups (rng 1 appears twice)."""
    return [_mqo(r) for r in (1, 2, 1, 3)]


def fail_next_scoreboard_write(monkeypatch, store):
    """Make the next scoreboard transaction on ``store`` fail (disk full)."""
    real, armed = store._connection, [True]

    class Connection:
        def __init__(self, conn):
            self._conn = conn

        def __getattr__(self, name):
            return getattr(self._conn, name)

        def executemany(self, sql, rows):
            if armed[0] and "INTO scoreboard" in sql:
                armed[0] = False
                raise sqlite3.OperationalError("database or disk is full")
            return self._conn.executemany(sql, rows)

    @contextlib.contextmanager
    def connection():
        with real() as conn:
            yield Connection(conn)

    monkeypatch.setattr(store, "_connection", connection)


def aggregate_counts(stats: dict) -> dict:
    """``{backend: count}`` of the backend-global rows of a stats mapping."""
    return {b: s.count for (b, sig), s in stats.items() if sig is None}


def assert_stats_equal(a: dict, b: dict):
    """Pairwise BackendStats equality with NaN-aware float comparison."""
    assert set(a) == set(b)
    for key in a:
        da, db = a[key].as_dict(), b[key].as_dict()
        for field in da:
            va, vb = da[field], db[field]
            if isinstance(va, float) and math.isnan(va):
                assert isinstance(vb, float) and math.isnan(vb), (key, field)
            else:
                assert va == vb, (key, field)


# -- module-level workers (pickled into forked processes) --------------------


def _hammer_store(args):
    """One writer process: interleave scoreboard batches and cache upserts."""
    path, worker_id, rounds = args
    store = EngineStore(path)
    for i in range(rounds):
        store.scoreboard.record(
            [("observe", "sa", "sig-shared", float(i % 3), 0.01, False)]
        )
        store.cache.put(f"key-{worker_id}-{i}", b"x" * 64)
    return worker_id


def _cold_process_decisions(args):
    """A cold process: hydrate a fresh scheduler from the store and route."""
    path, candidates, signatures = args
    scheduler = AdaptiveScheduler(epsilon=0.0, seed=0)
    scheduler.scoreboard.hydrate(path)
    return [scheduler.choose(sig, list(candidates)).backend for sig in signatures]


@pytest.fixture
def fork_pool():
    context = multiprocessing.get_context("fork")
    pool = context.Pool(2)
    yield pool
    pool.close()
    pool.join()


# -- scoreboard facet --------------------------------------------------------


class TestScoreboardStore:
    def test_single_writer_round_trip_is_exact(self, tmp_path):
        """Replay-based recording: the stored statistics are byte-identical
        to the live scoreboard's, including NaN/inf edge fields."""
        store = EngineStore(tmp_path / "engine.db")
        board = BackendScoreboard(alpha=0.5)
        ops = [
            ("observe", "sa", "sig-a", 4.0, 0.2, False),
            ("observe", "sa", "sig-a", 2.0, 0.1, False),
            ("observe", "sa", "sig-a", 2.0, 0.0, True),  # cache hit: latency untouched
            ("observe", "tabu", None, 1.0, 0.05, False),
            ("observe", "sa", "sig-a", 1.0, 0.1, False),
        ]
        board.apply(ops)
        assert store.scoreboard.record(ops, alpha=0.5) > 0

        hydrated = BackendScoreboard(alpha=0.5)
        hydrated.hydrate(EngineStore(tmp_path / "engine.db"))
        assert_stats_equal(hydrated._stats, board._stats)

    def test_old_store_rows_with_timeouts_and_errors_still_serve(self, tmp_path):
        """Files written while the portfolio still raced carry non-zero
        ``timeouts``/``errors`` columns: such a row hydrates and ranks like
        the same history without them, and later records leave the two
        columns as stored."""
        ops = [("observe", "sa", "sig", 3.0, 0.2, False),
               ("observe", "tabu", "sig", 1.0, 0.4, False),
               ("observe", "sa", "sig", 2.0, 0.1, False)]
        fresh = EngineStore(tmp_path / "fresh.db")
        fresh.scoreboard.record(ops)
        with contextlib.closing(sqlite3.connect(fresh.path)) as conn:
            rows = conn.execute("SELECT * FROM scoreboard").fetchall()
        old_path = tmp_path / "old.db"
        EngineStore(old_path)  # the schema, unchanged since the race existed
        with contextlib.closing(sqlite3.connect(old_path)) as conn:
            # The same rows with non-zero trailing timeouts and errors columns.
            conn.executemany("INSERT INTO scoreboard VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                             [row[:7] + (4, 2) for row in rows])
            conn.commit()
        old = EngineStore(old_path)

        boards = {}
        for name, store in (("fresh", fresh), ("old", old)):
            boards[name] = AdaptiveScheduler(epsilon=0.0, seed=0)
            boards[name].scoreboard.hydrate(store)
        assert_stats_equal(boards["old"].scoreboard._stats, boards["fresh"].scoreboard._stats)
        assert boards["old"].rank("sig", ["sa", "tabu"]) == ["tabu", "sa"]
        assert boards["old"].rank("sig", ["sa", "tabu"]) == boards["fresh"].rank(
            "sig", ["sa", "tabu"])

        old.scoreboard.record([("observe", "sa", "sig", 1.0, 0.1, False),
                               ("observe", "qaoa", "sig", 5.0, 1.0, False)])
        with contextlib.closing(sqlite3.connect(old_path)) as conn:
            rows = {(b, s): (count, timeouts, errors) for b, s, count, timeouts, errors in
                    conn.execute("SELECT backend, signature, count, timeouts, errors "
                                 "FROM scoreboard")}
        assert rows[("sa", "sig")] == (3, 4, 2)
        assert rows[("sa", "")] == (3, 4, 2)
        assert rows[("tabu", "sig")] == (1, 4, 2)
        assert rows[("qaoa", "sig")] == (1, 0, 0)  # a new row writes 0 there

    def test_hydration_never_overwrites_live_stats(self, tmp_path):
        store = EngineStore(tmp_path / "engine.db")
        store.scoreboard.record([("observe", "sa", "sig", 9.0, 9.0, False)])
        board = BackendScoreboard()
        board.observe("sa", "sig", 1.0, 0.1)
        board.hydrate(store)
        assert board.stats("sa", "sig").quality == pytest.approx(1.0)  # live wins
        assert board.stats("tabu", "sig") is None

    @pytest.mark.parametrize("call", ["many", "portfolio"])
    @pytest.mark.parametrize("scheduled", [False, True], ids=["unscheduled", "scheduled"])
    def test_failed_write_is_retried_by_the_next_record(
        self, tmp_path, monkeypatch, call, scheduled
    ):
        """A failed durable write warns, loses no result and no live
        statistic, and its delta lands with the next call's on the same
        handle — on every path, scheduled or not."""
        store = EngineStore(tmp_path / "engine.db")
        scheduler = (
            AdaptiveScheduler(epsilon=0.0, seed=0, race_top_k=len(CANDIDATES))
            if scheduled else None
        )

        def run():
            if call == "many":
                backend = CANDIDATES if scheduled else "sa"
                opts = CANDIDATE_OPTS if scheduled else FAST_SA
                results = repro.solve_many(
                    _batch(), backend=backend, scheduler=scheduler, seed=11,
                    store=store, **opts,
                )
                assert len(results) == len(_batch())
                assert all(r is not None for r in results)
                return Counter(r.method for r in results)
            best = repro.solve_portfolio(
                _mqo(1), backends=CANDIDATES, seed=5, backend_opts=CANDIDATE_OPTS,
                scheduler=scheduler, store=store,
            )
            assert [e["status"] for e in best.info["portfolio"]] == ["completed"] * 3
            return Counter(e["method"] for e in best.info["portfolio"])

        fail_next_scoreboard_write(monkeypatch, store)
        with pytest.warns(RuntimeWarning, match="durable store"):
            first = run()
        assert store.scoreboard.load() == {}  # the transaction rolled back
        if scheduled:
            assert aggregate_counts(scheduler.scoreboard._stats) == dict(first)
        second = run()
        assert aggregate_counts(store.scoreboard.load()) == dict(first + second)
        if scheduled:
            assert_stats_equal(store.scoreboard.load(), scheduler.scoreboard._stats)

    def test_concurrent_failed_records_lose_nothing(self, tmp_path, monkeypatch):
        """Threads sharing one handle while every transaction fails: each
        failure retains its ops alongside the others', none lost or
        doubled, so once writes work again one drain stores every op once."""
        store = EngineStore(tmp_path / "engine.db")
        real = store._connection

        @contextlib.contextmanager
        def failing():
            with real():
                raise sqlite3.OperationalError("database is locked")
            yield  # pragma: no cover - never reached

        def writer():
            for i in range(10):
                with pytest.raises(sqlite3.OperationalError):
                    store.scoreboard.record([("observe", "sa", "sig", float(i), 0.01, False)])

        monkeypatch.setattr(store, "_connection", failing)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(store, "_connection", real)
        assert store.scoreboard.record(()) == 80
        loaded = store.scoreboard.load()
        assert loaded[("sa", "sig")].count == loaded[("sa", None)].count == 80

    def test_unknown_observation_kind_rejected(self, tmp_path):
        store = EngineStore(tmp_path / "engine.db")
        with pytest.raises(ReproError, match="observation kind"):
            store.scoreboard.record([("bogus", "sa", "sig")])

    def test_validation(self, tmp_path):
        with pytest.raises(ReproError, match="cache_budget_bytes"):
            EngineStore(tmp_path / "x.db", cache_budget_bytes=0)


# -- shared cache tier -------------------------------------------------------


class TestSharedCacheTier:
    def test_upsert_get_touch_and_contains(self, tmp_path):
        store = EngineStore(tmp_path / "engine.db")
        store.cache.put("k", b"one")
        store.cache.put("k", b"two")  # atomic overwrite
        assert store.cache.get("k") == b"two"
        assert "k" in store.cache and "missing" not in store.cache
        assert len(store.cache) == 1
        assert store.cache.get("missing") is None

    def test_lru_by_last_access_eviction_under_byte_budget(self, tmp_path):
        store = EngineStore(tmp_path / "engine.db", cache_budget_bytes=100)
        store.cache.put("a", b"a" * 40)
        store.cache.put("b", b"b" * 40)
        assert store.cache.get("a") == b"a" * 40  # touch: "b" is now stalest
        store.cache.put("c", b"c" * 40)           # 120 bytes > 100: evict LRU
        assert "b" not in store.cache             # the untouched entry went
        assert "a" in store.cache and "c" in store.cache
        assert store.cache.total_bytes() <= 100

    def test_eviction_never_drops_the_entry_just_written(self, tmp_path):
        store = EngineStore(tmp_path / "engine.db", cache_budget_bytes=10)
        store.cache.put("big", b"z" * 64)  # alone over budget: still kept
        assert store.cache.get("big") == b"z" * 64

    def test_corrupt_blob_is_a_miss_and_heals(self, tmp_path):
        """A damaged blob (truncated, or corrupted in place) must read as a
        miss, be evicted from the durable tier, and the slot heal."""
        store = EngineStore(tmp_path / "engine.db")
        cache = ResultCache()
        cache.put("k", {"payload": list(range(100))}, store.cache)
        with store._connection() as conn:  # corrupt the blob in place
            blob = conn.execute("SELECT blob FROM results WHERE key='k'").fetchone()[0]
            conn.execute("UPDATE results SET blob=? WHERE key='k'", (blob[: len(blob) // 2],))
        reader, tier = ResultCache(), EngineStore(tmp_path / "engine.db").cache
        assert reader.get("k", tier) is None
        assert "k" not in store.cache  # evicted from the durable tier
        reader.put("k", "fresh", tier)
        assert reader.get("k", tier) == "fresh"

    def test_result_cache_reads_through_and_promotes(self, tmp_path):
        ResultCache().put("k", 42, EngineStore(tmp_path / "engine.db").cache)
        reader, tier = ResultCache(), EngineStore(tmp_path / "engine.db").cache
        assert reader.get("k", tier) == 42
        assert reader.stats["store_hits"] == 1
        # Promoted into memory: a second get does not need the store.
        tier.evict("k")
        assert reader.get("k") == 42
        assert reader.stats == {"hits": 2, "misses": 0, "store_hits": 1, "entries": 1}


# -- resolution & facade wiring ----------------------------------------------


class TestResolution:
    def test_resolve_store_spellings(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        store = EngineStore(tmp_path / "engine.db")
        assert resolve_store(store) is store
        by_path = resolve_store(tmp_path / "engine.db")
        assert isinstance(by_path, EngineStore)
        assert resolve_store(str(tmp_path / "engine.db")) is by_path  # memoised
        assert engine_store(tmp_path / "engine.db") is by_path
        with pytest.raises(ReproError, match="store must be"):
            resolve_store(123)

    def test_repro_store_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env.db"))
        resolved = resolve_store(None)
        assert isinstance(resolved, EngineStore)
        assert resolved.path == (tmp_path / "env.db").resolve()
        assert resolve_store(False) is None  # explicit off beats the env
        # The facade path picks the env store up with no store= argument.
        result = repro.solve(_mqo(1), backend="sa", seed=9, **FAST_SA)
        assert resolved.scoreboard.load()[("sa", None)].count == 1
        again = repro.solve(_mqo(1), backend="sa", seed=9, **FAST_SA)
        assert again.cache_hit and again.objective == result.objective

    def test_solve_with_store_never_leaks_into_later_calls(self, tmp_path):
        """A store= call must not leave the process-global cache writing to
        that store after the call returns."""
        store = EngineStore(tmp_path / "engine.db")
        repro.solve(_mqo(1), backend="sa", seed=9, cache=True, store=store, **FAST_SA)
        entries_after_store_call = len(store.cache)
        repro.solve(_mqo(2), backend="sa", seed=9, cache=True, **FAST_SA)  # no store
        assert len(store.cache) == entries_after_store_call


class TestFacadeIntegration:
    def test_solve_many_records_and_shares_across_sessions(self, tmp_path):
        problems = _batch()
        cold = repro.solve_many(
            problems, backend="sa", seed=11, store=EngineStore(tmp_path / "engine.db"),
            **FAST_SA,
        )
        assert all(not r.cache_hit for r in cold)
        # A "new session": fresh store handle, fresh (per-call) caches.
        session2 = EngineStore(tmp_path / "engine.db")
        warm = repro.solve_many(problems, backend="sa", seed=11, store=session2, **FAST_SA)
        assert all(r.cache_hit for r in warm)
        assert [r.objective for r in warm] == [r.objective for r in cold]
        # Both batches recorded at their boundaries: 8 observations total.
        stats = session2.scoreboard.load()[("sa", None)]
        assert stats.count == 2 * len(problems)
        assert stats.cache_hits == len(problems)
        summary = session2.stats()
        assert summary["cache_entries"] == len(problems)
        assert 0 < summary["cache_bytes"] <= summary["cache_budget_bytes"]
        assert summary["scoreboard_pairs"] == len(session2.scoreboard.load())

    def test_portfolio_records_contenders(self, tmp_path):
        store = EngineStore(tmp_path / "engine.db")
        repro.solve_portfolio(
            _mqo(1), backends=CANDIDATES, seed=5, backend_opts=CANDIDATE_OPTS, store=store
        )
        loaded = store.scoreboard.load()
        for name in CANDIDATES:
            assert loaded[(name, None)].count == 1

    def test_scheduled_portfolio_hydrates_and_flushes(self, tmp_path):
        store = EngineStore(tmp_path / "engine.db")
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3, race_top_k=len(CANDIDATES))
        repro.solve_portfolio(
            _mqo(1), backends=CANDIDATES, seed=5, backend_opts=CANDIDATE_OPTS,
            scheduler=scheduler, store=store,
        )
        fresh = AdaptiveScheduler(epsilon=0.0, seed=3)
        fresh.scoreboard.hydrate(store)
        assert_stats_equal(fresh.scoreboard._stats, scheduler.scoreboard._stats)

    def test_scheduled_portfolio_records_each_contender_once(self, tmp_path, monkeypatch):
        """With REPRO_STORE set, the scheduled path records each contender
        into the env store once (a double-count would break the exact
        round-trip)."""
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env.db"))
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3, race_top_k=len(CANDIDATES))
        repro.solve_portfolio(
            _mqo(1), backends=CANDIDATES, seed=5, backend_opts=CANDIDATE_OPTS,
            scheduler=scheduler,
        )
        loaded = resolve_store(None).scoreboard.load()
        for name in CANDIDATES:
            assert loaded[(name, None)].count == 1, name

    def test_store_false_keeps_a_bound_scheduler_off_the_record(self, tmp_path):
        """store=False is 'off for this call' even after an earlier call
        recorded the scheduler's observations into a store."""
        store = EngineStore(tmp_path / "engine.db")
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0)
        repro.solve_many(
            _batch(), backend=CANDIDATES, scheduler=scheduler, seed=11, store=store,
            **CANDIDATE_OPTS,
        )
        recorded = store.scoreboard.load()
        off = repro.solve_many(
            _batch(), backend=CANDIDATES, scheduler=scheduler, seed=11, store=False,
            **CANDIDATE_OPTS,
        )
        assert all(r is not None for r in off)
        assert_stats_equal(store.scoreboard.load(), recorded)  # nothing flushed
        # ... and the unrecorded delta does not resurface on the next record.
        repro.solve_many(
            _batch(), backend=CANDIDATES, scheduler=scheduler, seed=11, store=store,
            **CANDIDATE_OPTS,
        )
        total = sum(s.count for (b, sig), s in store.scoreboard.load().items() if sig is None)
        assert total == 2 * len(_batch())


# -- oracle: each solve is recorded once -------------------------------------


ORACLE_CALL = st.tuples(
    st.sampled_from(["solve", "many", "portfolio"]),
    st.booleans(),  # scheduled
    st.booleans(),  # store on
)


@settings(max_examples=8, deadline=None)
@given(calls=st.lists(ORACLE_CALL, min_size=1, max_size=4), instance=st.integers(1, 3))
def test_each_solve_is_recorded_once(calls, instance):
    """Whatever mix of entry points, scheduling and ``store=`` a caller uses,
    the durable scoreboard counts exactly the solves made with the store on,
    and a scheduler driven only through that store round-trips exactly.
    A scheduled ``solve`` is a one-item scheduled ``solve_many`` (``solve``
    takes no scheduler)."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(STORE_ENV_VAR, None)
        path = os.path.join(tmp, "engine.db")
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0)
        expected = Counter()
        for kind, scheduled, store_on in calls:
            store = path if store_on else False
            if kind == "portfolio":
                best = repro.solve_portfolio(
                    _mqo(instance), backends=("sa", "tabu"), seed=5,
                    backend_opts=CANDIDATE_OPTS, store=store,
                    scheduler=scheduler if scheduled else None,
                )
                solved = [entry["method"] for entry in best.info["portfolio"]]
            elif kind == "solve" and not scheduled:
                solved = [
                    repro.solve(_mqo(instance), backend="sa", seed=5, store=store,
                                **FAST_SA).method
                ]
            else:
                problems = [_mqo(instance)] * (1 if kind == "solve" else 2)
                results = repro.solve_many(
                    problems, backend=("sa", "tabu") if scheduled else "sa", seed=5,
                    store=store, scheduler=scheduler if scheduled else None,
                    **(CANDIDATE_OPTS if scheduled else FAST_SA),
                )
                solved = [r.method for r in results]
            if store_on:
                expected.update(solved)
        stored = EngineStore(path).scoreboard.load()
        assert aggregate_counts(stored) == dict(expected)
        if all(scheduled and store_on for _, scheduled, store_on in calls):
            hydrated = BackendScoreboard()
            hydrated.hydrate(path)
            assert_stats_equal(hydrated._stats, scheduler.scoreboard._stats)


# -- the determinism bar -----------------------------------------------------


class TestHydratedRoutingDeterminism:
    def _warm(self, path):
        """Measure every candidate (portfolio per structure), then route a
        batch — all durable."""
        store = EngineStore(path)
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0, race_top_k=len(CANDIDATES))
        for rng in (1, 2, 3):
            repro.solve_portfolio(
                _mqo(rng), backends=CANDIDATES, seed=5, backend_opts=CANDIDATE_OPTS,
                scheduler=scheduler, store=store,
            )
        repro.solve_many(
            _batch(), backend=CANDIDATES, scheduler=scheduler, seed=11, store=store,
            **CANDIDATE_OPTS,
        )
        return store, scheduler

    def test_fresh_scheduler_routes_like_long_lived_across_executors(self, tmp_path):
        store, long_lived = self._warm(tmp_path / "engine.db")
        store.checkpoint()  # fold the WAL so the file can be copied
        copies = {}
        for executor in ("serial", "processes"):
            copy = tmp_path / f"engine-{executor}.db"
            shutil.copy(store.path, copy)
            copies[executor] = copy

        def fingerprint(results):
            return [
                (r.method, r.objective, r.engine["scheduler"]["mode"]) for r in results
            ]

        reference = fingerprint(
            repro.solve_many(
                _batch(), backend=CANDIDATES, scheduler=long_lived, seed=11,
                store=store, **CANDIDATE_OPTS,
            )
        )
        assert all(mode == "exploit" for _, _, mode in reference)  # warm from step one
        for executor, copy in copies.items():
            fresh = AdaptiveScheduler(epsilon=0.0, seed=0)
            routed = repro.solve_many(
                _batch(), backend=CANDIDATES, scheduler=fresh, seed=11,
                executor=executor, store=EngineStore(copy), **CANDIDATE_OPTS,
            )
            assert fingerprint(routed) == reference, executor

    def test_cold_process_routes_like_the_writer(self, tmp_path, fork_pool):
        store, long_lived = self._warm(tmp_path / "engine.db")
        plan = repro.compile_plan(_batch(), CANDIDATES[0])
        signatures = [shard.signature for shard in plan.shards]
        parent = [
            long_lived.choose(sig, list(CANDIDATES)).backend for sig in signatures
        ]
        child = fork_pool.map(
            _cold_process_decisions, [(str(store.path), CANDIDATES, signatures)]
        )[0]
        assert child == parent

    def test_warm_batch_hits_the_shared_tier(self, tmp_path):
        store, _ = self._warm(tmp_path / "engine.db")
        cache = ResultCache()
        fresh = AdaptiveScheduler(epsilon=0.0, seed=0)
        warm = repro.solve_many(
            _batch(), backend=CANDIDATES, scheduler=fresh, seed=11, store=store,
            cache=cache, **CANDIDATE_OPTS,
        )
        assert all(r.cache_hit for r in warm)
        assert all(r.engine["cache_tier"] == "store" for r in warm)
        # A cold memory cache: every hit is read through from SQLite.
        assert cache.stats["hits"] == len(_batch())
        assert cache.stats["store_hits"] == len(_batch())


class TestConcurrentWriters:
    def test_two_processes_never_corrupt_the_store(self, tmp_path, fork_pool):
        """Concurrent scoreboard batches and cache upserts against one file:
        SQLite serialises them; counts merge by observation count."""
        path = str(tmp_path / "engine.db")
        EngineStore(path)  # schema exists before the writers race
        rounds = 25
        assert sorted(
            fork_pool.map(_hammer_store, [(path, 0, rounds), (path, 1, rounds)])
        ) == [0, 1]
        store = EngineStore(path)
        assert store.integrity_ok()
        loaded = store.scoreboard.load()
        assert loaded[("sa", "sig-shared")].count == 2 * rounds
        assert loaded[("sa", None)].count == 2 * rounds
        assert len(store.cache) == 2 * rounds
        for worker in (0, 1):
            for i in range(rounds):
                assert store.cache.get(f"key-{worker}-{i}") == b"x" * 64

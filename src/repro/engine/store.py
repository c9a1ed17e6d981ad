"""Durable engine knowledge: a SQLite-backed store for routing + results.

The engine learns two expensive things while it runs: *where* to route work
(the :class:`~repro.engine.scheduler.BackendScoreboard`'s per-``(backend,
structure-signature)`` quality/latency statistics) and *what* it has already
solved (the content-addressed :class:`~repro.engine.cache.ResultCache`
entries).  Both die with the process, so every new session relearns routing
from cold and re-solves work a sibling process finished minutes ago.  This
module makes that knowledge durable:

* :class:`EngineStore` — one SQLite file (WAL mode, safe for concurrent
  processes) holding both facets; every operation opens a short-lived
  connection and runs in one transaction, so readers never see a torn
  write and a crash mid-batch loses at most that batch's delta.
* :class:`ScoreboardStore` — replays observation ops into stored
  scoreboard statistics and loads them back.  Writers hand over the ops
  (built by :mod:`repro.engine.scheduler`, not their merged stats) and the
  store applies them to the stored rows with the same EWMA arithmetic the
  in-memory scoreboard uses.  A single writer therefore round-trips
  **exactly** — a fresh scoreboard hydrated from the store carries the
  byte-identical statistics of the long-lived instance that produced it —
  while concurrent writers merge by observation count: every process's
  observations land, counts and tallies add, and the EWMA fields converge
  to the interleaved history.  A failed write keeps its ops on the
  handle for the next write to replay.
* :class:`SharedCacheTier` — a cross-process result tier that slots under
  :class:`~repro.engine.cache.ResultCache` with the same
  ``(fingerprint, backend, opts, seed, stateful shard-prefix)`` keying, read
  through per key on a memory miss.  Upserts are atomic (one ``INSERT OR
  REPLACE`` per entry) and eviction is LRU-by-last-access under a byte
  budget.

Both facets are passed per call: an engine call with ``store=`` hydrates
routing from the store, reads and writes results through its cache tier,
and records its own observations once; nothing stays attached afterwards.

``resolve_store`` accepts the same spelling family as ``resolve_cache``:
``None`` consults the ``REPRO_STORE`` environment variable, ``False``
disables the store even when the variable is set, a path opens (and
memoises) a store there, and a ready :class:`EngineStore` passes through.
"""

from __future__ import annotations

import contextlib
import math
import os
import sqlite3
import threading
import warnings
from pathlib import Path
from typing import Iterable

from repro.engine.scheduler import DEFAULT_ALPHA, BackendStats, apply_observation
from repro.exceptions import ReproError

#: Default byte budget for the shared cache tier (LRU-by-last-access).
DEFAULT_CACHE_BUDGET = 256 * 1024 * 1024

#: Environment variable consulted by ``resolve_store(None)``.
STORE_ENV_VAR = "REPRO_STORE"

#: ``signature`` column value for the backend-global aggregate row
#: (SQLite primary keys cannot contain NULL).
_GLOBAL_SIG = ""

#: The scoreboard columns the engine reads and writes.  ``timeouts`` and
#: ``errors`` stay in the schema so files written before the portfolio
#: deadline race was removed still open; new rows hold 0 there and updates
#: leave them as stored.
_LIVE_COLUMNS = ("count", "quality", "latency", "best_objective", "cache_hits")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS scoreboard (
    backend        TEXT    NOT NULL,
    signature      TEXT    NOT NULL,
    count          INTEGER NOT NULL,
    quality        REAL,
    latency        REAL,
    best_objective REAL,
    cache_hits     INTEGER NOT NULL,
    timeouts       INTEGER NOT NULL,
    errors         INTEGER NOT NULL,
    PRIMARY KEY (backend, signature)
);
CREATE TABLE IF NOT EXISTS results (
    key        TEXT    PRIMARY KEY,
    blob       BLOB    NOT NULL,
    nbytes     INTEGER NOT NULL,
    access_seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS results_by_access ON results(access_seq);
"""


def _to_column(value: float) -> "float | None":
    """NaN/±inf have no SQLite literal; store them as NULL."""
    return None if (value is None or math.isnan(value) or math.isinf(value)) else float(value)


def record_best_effort(action, description: str) -> None:
    """Run a durable-telemetry write, downgrading failure to a warning.

    Every caller sits *after* a batch's results exist.  Losing a
    scoreboard delta is recoverable (the routing knowledge is simply
    relearned); destroying an entire computed batch because a telemetry
    record hit a full disk or a lock timeout is not — so the write is
    attempted, and failure warns instead of raising.
    """
    try:
        action()
    except Exception as exc:
        warnings.warn(
            f"durable store {description} failed (results are unaffected): {exc!r}",
            RuntimeWarning,
            stacklevel=3,
        )


class EngineStore:
    """One durable SQLite file holding scoreboard stats and cached results.

    Every operation opens a short-lived connection (WAL journal, busy
    timeout) and commits one transaction, so any number of processes can
    share the file: SQLite serialises the writers and readers always see a
    complete snapshot.  The two facets are exposed as :attr:`scoreboard`
    (a :class:`ScoreboardStore`) and :attr:`cache` (a
    :class:`SharedCacheTier`).

    Args:
        path: The database file; parent directories are created.
        cache_budget_bytes: LRU eviction threshold for the result tier.
    """

    def __init__(
        self, path: "str | os.PathLike", cache_budget_bytes: int = DEFAULT_CACHE_BUDGET
    ):
        if cache_budget_bytes < 1:
            raise ReproError("EngineStore cache_budget_bytes must be >= 1")
        self.path = Path(path)
        self.cache_budget_bytes = int(cache_budget_bytes)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connection() as conn:
            conn.executescript(_SCHEMA)
        self.scoreboard = ScoreboardStore(self)
        self.cache = SharedCacheTier(self)

    @contextlib.contextmanager
    def _connection(self):
        """A short-lived connection wrapping one committed transaction."""
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
            yield conn
            conn.commit()
        except BaseException:
            conn.rollback()
            raise
        finally:
            conn.close()

    def checkpoint(self) -> None:
        """Fold the WAL back into the main file (e.g. before copying it)."""
        with self._connection() as conn:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def integrity_ok(self) -> bool:
        """Run SQLite's integrity check (used by the concurrency tests)."""
        with self._connection() as conn:
            row = conn.execute("PRAGMA integrity_check").fetchone()
        return row is not None and row[0] == "ok"

    def stats(self) -> dict:
        """Row counts and result-tier byte totals (telemetry/benchmarks)."""
        with self._connection() as conn:
            pairs = conn.execute("SELECT COUNT(*) FROM scoreboard").fetchone()[0]
            entries, nbytes = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM results"
            ).fetchone()
        return {
            "scoreboard_pairs": pairs,
            "cache_entries": entries,
            "cache_bytes": nbytes,
            "cache_budget_bytes": self.cache_budget_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EngineStore({str(self.path)!r})"


# -- scoreboard facet --------------------------------------------------------


class ScoreboardStore:
    """Durable ``(backend, structure-signature)`` statistics.

    The write API is *observation replay*: callers hand over the raw
    observations and the store applies them to
    the stored rows inside one transaction, using
    :meth:`~repro.engine.scheduler.BackendStats.observe` — the same
    arithmetic, in the same order, the in-memory scoreboard ran.  Replay is
    what makes the round-trip exact for a single writer and a well-defined
    count-weighted interleave for concurrent ones; writing *merged*
    statistics instead would double-count every observation already stored.

    Observation tuples (see :meth:`record`) are
    ``("observe", backend, signature, objective, wall_time, cache_hit)``.

    ``signature=None`` targets only the backend-global aggregate; a real
    signature updates both the exact pair and the aggregate, mirroring
    ``BackendScoreboard.observe``.
    """

    def __init__(self, store: EngineStore):
        self._store = store
        self._lock = threading.Lock()
        #: ``(op, alpha)`` pairs whose transaction failed; the next
        #: :meth:`record` on this handle replays them first.
        self._retained: "list[tuple[tuple, float]]" = []

    # -- writing ---------------------------------------------------------------

    def record(self, observations: Iterable[tuple], alpha: float = DEFAULT_ALPHA) -> int:
        """Replay ``observations`` into the stored rows; returns the count.

        One transaction: concurrent recorders serialise on the SQLite write
        lock, so two processes recording at once interleave whole batches
        and every observation lands exactly once.  A failed transaction
        (disk full, lock timeout) raises, but its observations stay on this
        handle and the next ``record`` replays them ahead of its own, each
        with the alpha it was recorded under — so a transient failure
        delays a delta instead of losing it.  ``record(())`` only retries
        what is retained.  A malformed op raises without being retained.
        """
        with self._lock:
            pending = self._retained + [(op, alpha) for op in observations]
            self._retained = []
        if not pending:
            return 0
        try:
            self._replay(pending)
        except sqlite3.Error:
            with self._lock:
                self._retained = pending + self._retained
            raise
        return len(pending)

    def _replay(self, pending: "list[tuple[tuple, float]]") -> None:
        with self._store._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            loaded: "dict[tuple[str, str], BackendStats]" = {}

            def stats_for(backend: str, signature: "str | None") -> BackendStats:
                column = _GLOBAL_SIG if signature is None else signature
                found = loaded.get((backend, column))
                if found is None:
                    row = conn.execute(
                        f"SELECT {', '.join(_LIVE_COLUMNS)} FROM scoreboard "
                        "WHERE backend=? AND signature=?",
                        (backend, column),
                    ).fetchone()
                    found = _row_to_stats(row) if row is not None else BackendStats()
                    loaded[(backend, column)] = found
                return found

            for op, alpha in pending:
                apply_observation(stats_for, op, alpha)

            conn.executemany(
                f"INSERT INTO scoreboard (backend, signature, {', '.join(_LIVE_COLUMNS)}, "
                "timeouts, errors) VALUES (?, ?, ?, ?, ?, ?, ?, 0, 0) "
                "ON CONFLICT (backend, signature) DO UPDATE SET "
                + ", ".join(f"{c}=excluded.{c}" for c in _LIVE_COLUMNS),
                [
                    (
                        backend,
                        column,
                        stats.count,
                        _to_column(stats.quality),
                        _to_column(stats.latency),
                        _to_column(stats.best_objective),
                        stats.cache_hits,
                    )
                    for (backend, column), stats in loaded.items()
                ],
            )

    # -- reading ---------------------------------------------------------------

    def load(self) -> "dict[tuple[str, str | None], BackendStats]":
        """Every stored pair as live :class:`BackendStats` (hydration feed)."""
        with self._store._connection() as conn:
            rows = conn.execute(
                f"SELECT backend, signature, {', '.join(_LIVE_COLUMNS)} FROM scoreboard"
            ).fetchall()
        return {
            (row[0], None if row[1] == _GLOBAL_SIG else row[1]): _row_to_stats(row[2:])
            for row in rows
        }

    def snapshot(self) -> dict:
        """``{(backend, signature): stats-dict}`` copy for telemetry/tests."""
        return {key: stats.as_dict() for key, stats in self.load().items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScoreboardStore({str(self._store.path)!r})"


def _row_to_stats(row) -> "BackendStats":
    count, quality, latency, best, cache_hits = row
    return BackendStats(
        count=count,
        quality=math.nan if quality is None else quality,
        latency=math.nan if latency is None else latency,
        best_objective=math.inf if best is None else best,
        cache_hits=cache_hits,
    )


# -- shared cache facet ------------------------------------------------------


class SharedCacheTier:
    """Cross-process content-addressed result blobs under a byte budget.

    Slots beneath :class:`~repro.engine.cache.ResultCache`, passed per call
    as its ``tier=`` argument: the cache consults this tier after its memory
    LRU misses, and writes every ``put`` through.  Keys are the cache's own
    ``(fingerprint, backend, opts, seed, stateful shard-prefix)`` digests, so an
    entry written by any process is a sound hit for every other.

    * **atomic upserts** — one ``INSERT OR REPLACE`` per entry inside a
      transaction; a crash never leaves a torn blob (SQLite rolls back).
    * **LRU-by-last-access** — every ``get``/``put`` stamps a monotonically
      increasing access sequence; when the tier exceeds the store's byte
      budget the stalest entries are deleted first (never the one just
      written, so a single oversized entry cannot thrash the tier empty).
    """

    def __init__(self, store: EngineStore):
        self._store = store

    def get(self, key: str) -> "bytes | None":
        """The stored blob (touching its LRU stamp), or ``None`` on a miss.

        A miss is a pure read — it never takes the SQLite write lock, so
        concurrent processes' lookups stay WAL-parallel; only a hit pays
        one single-statement write transaction to stamp the LRU sequence.
        """
        with self._store._connection() as conn:
            row = conn.execute("SELECT blob FROM results WHERE key=?", (key,)).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE results SET access_seq="
                "(SELECT COALESCE(MAX(access_seq), 0) + 1 FROM results) WHERE key=?",
                (key,),
            )
            return row[0]

    def put(self, key: str, blob: bytes) -> None:
        """Atomically upsert one entry, then evict LRU past the byte budget."""
        with self._store._connection() as conn:
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "INSERT OR REPLACE INTO results (key, blob, nbytes, access_seq) "
                "VALUES (?, ?, ?, ?)",
                (key, blob, len(blob), self._next_seq(conn)),
            )
            self._evict_over_budget(conn, keep=key)

    def evict(self, key: str) -> None:
        """Drop one entry (e.g. a blob that failed to unpickle)."""
        with self._store._connection() as conn:
            conn.execute("DELETE FROM results WHERE key=?", (key,))

    def __contains__(self, key: str) -> bool:
        with self._store._connection() as conn:
            row = conn.execute("SELECT 1 FROM results WHERE key=?", (key,)).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._store._connection() as conn:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def total_bytes(self) -> int:
        with self._store._connection() as conn:
            return conn.execute("SELECT COALESCE(SUM(nbytes), 0) FROM results").fetchone()[0]

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _next_seq(conn) -> int:
        return conn.execute("SELECT COALESCE(MAX(access_seq), 0) + 1 FROM results").fetchone()[0]

    def _evict_over_budget(self, conn, keep: str) -> None:
        budget = self._store.cache_budget_bytes
        total = conn.execute("SELECT COALESCE(SUM(nbytes), 0) FROM results").fetchone()[0]
        if total <= budget:
            return
        victims = conn.execute(
            "SELECT key, nbytes FROM results WHERE key != ? ORDER BY access_seq, key",
            (keep,),
        ).fetchall()
        for key, nbytes in victims:
            if total <= budget:
                break
            conn.execute("DELETE FROM results WHERE key=?", (key,))
            total -= nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedCacheTier({str(self._store.path)!r})"


# -- resolution --------------------------------------------------------------


#: Memoised stores per resolved path, so ``store="path"`` / ``REPRO_STORE``
#: reuse one instance (and its schema check) across calls.
_OPEN_STORES: "dict[Path, EngineStore]" = {}
_OPEN_LOCK = threading.Lock()


def engine_store(path: "str | os.PathLike") -> EngineStore:
    """The memoised :class:`EngineStore` for ``path`` (created on first use)."""
    resolved = Path(path).expanduser().resolve()
    with _OPEN_LOCK:
        found = _OPEN_STORES.get(resolved)
        if found is None:
            found = EngineStore(resolved)
            _OPEN_STORES[resolved] = found
        return found


def resolve_store(spec) -> "EngineStore | None":
    """Normalise every accepted ``store=`` spelling to a store (or ``None``).

    ``None`` consults the ``REPRO_STORE`` environment variable (unset means
    no store), ``False`` disables the store even when the variable is set,
    a path string / ``PathLike`` opens the memoised store there, and a
    ready :class:`EngineStore` passes through.
    """
    if spec is False:
        return None
    if spec is None:
        env = os.environ.get(STORE_ENV_VAR, "").strip()
        if not env:
            return None
        spec = env
    if isinstance(spec, EngineStore):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        return engine_store(spec)
    raise ReproError(
        f"store must be None/False, a path, or an EngineStore; got {type(spec).__name__}"
    )

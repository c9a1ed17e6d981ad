"""Content-addressed result caching for the execution engine.

A :class:`ResultCache` memoises finished :class:`~repro.api.result.SolveResult`
objects keyed on ``(QUBO fingerprint, backend, opts, seed)``.  Because the
fingerprint is a canonical content hash (see
:meth:`repro.qubo.model.QuboModel.fingerprint`) and the seed pins the RNG
stream, a hit is byte-equivalent to re-running the solve — which is what
lets the engine skip dispatch entirely on repeated workloads.

The cache itself is one in-memory LRU of pickled blobs (pickling on
``put`` / unpickling on ``get`` gives every caller an independent copy, so
mutating a returned result can never corrupt the cache).  Results shared
across processes and sessions live in one durable tier below it: an
:class:`~repro.engine.store.EngineStore`'s SQLite
:class:`~repro.engine.store.SharedCacheTier`, passed per call as
``tier=`` and never attached to the cache, so a shared cache (e.g. the
process-global ``cache=True``) cannot keep writing to a store a caller
stopped passing.

Cache hits must not perturb the RNG stream of neighbouring batch items.
The engine guarantees this structurally: per-item child seeds are derived
from the batch seed *before* any cache lookup, so skipping a solve never
shifts what the other items draw.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.engine.store import SharedCacheTier


def make_cache_key(fingerprint: str, backend_key: str, opts_key: str, seed: int) -> str:
    """Flatten the ``(fingerprint, backend, opts, seed)`` tuple into one hex key."""
    blob = "\x1f".join((fingerprint, backend_key, opts_key, str(int(seed))))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """In-memory LRU result store over an optional per-call durable tier.

    Args:
        maxsize: In-memory entry cap; least-recently-used entries are
            evicted first.  The durable tier has its own byte budget.
    """

    def __init__(self, maxsize: int = 1024):
        if maxsize < 1:
            raise ReproError("ResultCache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    # -- core protocol ---------------------------------------------------------

    def get(self, key: str, tier: "SharedCacheTier | None" = None):
        """Return a fresh copy of the cached result, or ``None`` on a miss."""
        return self.lookup(key, tier)[0]

    def lookup(
        self, key: str, tier: "SharedCacheTier | None" = None
    ) -> "tuple[object | None, str | None]":
        """Like :meth:`get`, but also report which tier served the hit.

        Reads memory, then ``tier`` (a
        :class:`~repro.engine.store.SharedCacheTier`); a tier hit is
        promoted into memory.  Returns ``(value, label)`` with ``label`` one
        of ``"memory"``, ``"store"``, or ``None`` on a miss — the feed for
        ``cache.lookup`` trace spans and tiered cache telemetry.

        A blob that fails to unpickle (truncated by a full disk or corrupted
        externally) is treated as a miss and evicted from memory and the
        tier — a damaged entry must never surface as a result, and dropping
        it lets the next ``put`` heal the cache.
        """
        return self._count([key], [self._read(key, tier)])[0]

    def lookup_all(
        self, keys: "list[str]", tier: "SharedCacheTier | None" = None
    ) -> "list[tuple[object | None, str | None]]":
        """All-or-nothing :meth:`lookup` of a stateful shard's keys.

        Stops reading at the first miss; then every key is a miss, in the
        returned pairs and in :attr:`stats`, and no tier hit is promoted, so
        a partial hit the caller must discard never counts as served.
        """
        found = []
        for key in keys:
            found.append(self._read(key, tier))
            if found[-1][1] is None:
                found = [(None, None, None)] * len(keys)
                break
        return self._count(keys, found)

    def _read(self, key: str, tier: "SharedCacheTier | None"):
        """``(value, label, blob)`` for ``key``, uncounted; ``label`` is ``None`` on a miss."""
        label = None
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                label = "memory"
        if blob is None and tier is not None:
            blob = tier.get(key)
            if blob is not None:
                label = "store"
        if blob is None:
            return None, None, None
        try:
            return pickle.loads(blob), label, blob
        except Exception:
            with self._lock:
                self._entries.pop(key, None)
            if tier is not None:
                tier.evict(key)
            return None, None, None

    def _count(self, keys, found) -> "list[tuple[object | None, str | None]]":
        """Count the reads of :meth:`_read` and promote their tier hits into memory."""
        with self._lock:
            for key, (_, label, blob) in zip(keys, found):
                if label is None:
                    self.misses += 1
                    continue
                self.hits += 1
                if label == "store":
                    self.store_hits += 1
                    self._store_memory(key, blob)
        return [(value, label) for value, label, _ in found]

    def put(self, key: str, result, tier: "SharedCacheTier | None" = None) -> None:
        """Store ``result`` under ``key`` (overwrites an existing entry),
        writing through to ``tier`` when given."""
        blob = pickle.dumps(result)
        with self._lock:
            self._store_memory(key, blob)
        if tier is not None:
            tier.put(key, blob)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry and reset hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.store_hits = 0

    @property
    def stats(self) -> dict:
        """``{"hits", "misses", "store_hits", "entries"}`` snapshot.

        ``store_hits`` counts the subset of ``hits`` served by the durable
        shared tier — the cross-process reuse the benchmarks report.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "store_hits": self.store_hits,
                "entries": len(self._entries),
            }

    # -- internals -------------------------------------------------------------

    def _store_memory(self, key: str, blob: bytes) -> None:
        self._entries[key] = blob
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({len(self)} entries, hits={self.hits}, misses={self.misses})"


#: Process-wide cache used when callers pass ``cache=True``.
_DEFAULT_CACHE: "ResultCache | None" = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The lazily created process-global cache behind ``cache=True``."""
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = ResultCache()
        return _DEFAULT_CACHE


def resolve_cache(spec) -> "ResultCache | None":
    """Normalise every accepted ``cache=`` spelling to a cache (or ``None``).

    ``None`` / ``False`` disable caching, ``True`` selects the process-global
    default, and a ready :class:`ResultCache` passes through.  A path is an
    error: durable results live in an
    :class:`~repro.engine.store.EngineStore`, spelled ``store=<path>``.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return default_cache()
    if isinstance(spec, ResultCache):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        raise ReproError(
            f"cache={str(spec)!r}: a path is not a cache spelling; durable results "
            "live in an EngineStore, pass store=<path> (with cache=True or False)"
        )
    raise ReproError(
        f"cache must be None/False, True, or a ResultCache; got {type(spec).__name__}"
    )

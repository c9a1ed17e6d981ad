"""Telemetry-driven adaptive shard scheduling.

The engine's executors answer *how* shards run; this module answers *where*.
A :class:`BackendScoreboard` keeps online per-``(backend, QUBO-structure)``
statistics — observed objective quality, wall latency, cache-hit rate — fed
by the ``info["engine"]`` telemetry every engine result already carries
(one ``"observe"`` op per result, :func:`result_observation`).  An
:class:`AdaptiveScheduler` turns those stats into routing decisions for the
engine's one execution path:

* :meth:`AdaptiveScheduler.route` — the step ``solve_many(...,
  scheduler=...)`` adds between plan compile and dispatch: each shard of a
  batch is routed to the backend with the best expected
  quality-under-deadline for its structure, epsilon-greedy so colder
  backends keep getting sampled;
* :meth:`AdaptiveScheduler.select_contenders` — the step
  ``solve_portfolio(..., scheduler=...)`` adds before its plan is built:
  instead of running *every* backend, the scoreboard ranks them and only
  the top-k get a shard.

Routing happens **before** dispatch and the scoreboard updates **after**
the whole batch returns, so a scheduled batch stays deterministic for a
fixed ``(scheduler seed, scoreboard history)`` across the serial and
processes executors — exactly the engine's existing contract.
Mid-batch adaptation would tie routing to completion order and silently
break it, which is why the batch boundary is the observation boundary.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.engine.plan import ExecutionPlan
from repro.exceptions import ReproError
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime imports are lazy
    from pathlib import Path

    from repro.api.result import SolveResult

#: EWMA smoothing of scoreboard statistics: the default of both the live
#: :class:`BackendScoreboard` and direct durable-store recording, so the two
#: produce the same arithmetic.
DEFAULT_ALPHA = 0.25

#: Relative quality gap within which routing treats two backends as tied
#: and prefers the lower latency.
QUALITY_TOL = 1e-9


def expected_service_time(
    snapshot: "dict[str, dict]",
    backends: "Sequence[str] | None" = None,
    default: float = 0.25,
) -> float:
    """Expected wall seconds for one real solve, from a capacity snapshot.

    The admission-control read of :meth:`BackendScoreboard.
    capacity_snapshot`: averages the finite EWMA ``latency`` rows of the
    named ``backends`` (every backend in the snapshot when ``None``),
    falling back to ``default`` while the scoreboard is cold or the named
    backends have never completed a real solve.  This is the signal a
    ``Retry-After`` or a queue-drain estimate needs — cache hits never
    update EWMA latency, so the figure stays an honest per-solve cost.
    """
    names = snapshot.keys() if backends is None else backends
    latencies = []
    for name in names:
        row = snapshot.get(name)
        if row is None:
            continue
        latency = row.get("latency")
        if isinstance(latency, (int, float)) and math.isfinite(latency) and latency >= 0:
            latencies.append(float(latency))
    if not latencies:
        return float(default)
    return sum(latencies) / len(latencies)


@dataclass
class BackendStats:
    """Online statistics for one ``(backend, structure)`` pair.

    ``quality`` and ``latency`` are exponential moving averages so the
    scoreboard tracks drift (a congested hardware queue, a warmed cache)
    instead of averaging over stale history.  Latency is only updated by
    real solves — a cache hit keeps the *original* wall time and would
    otherwise double-count it.
    """

    count: int = 0
    quality: float = math.nan    #: EWMA of observed domain objectives (lower = better)
    latency: float = math.nan    #: EWMA of wall seconds per real (uncached) solve
    best_objective: float = math.inf
    cache_hits: int = 0

    def observe(self, objective: float, wall_time: float, alpha: float,
                cache_hit: bool = False) -> None:
        self.count += 1
        if cache_hit:
            self.cache_hits += 1
        if not math.isnan(objective):
            self.quality = objective if math.isnan(self.quality) else (
                (1.0 - alpha) * self.quality + alpha * objective
            )
            self.best_objective = min(self.best_objective, objective)
        if not cache_hit and not math.isnan(wall_time):
            self.latency = wall_time if math.isnan(self.latency) else (
                (1.0 - alpha) * self.latency + alpha * wall_time
            )

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "quality": self.quality,
            "latency": self.latency,
            "best_objective": self.best_objective,
            "cache_hit_rate": self.cache_hit_rate,
        }


def apply_observation(
    stats_for: "Callable[[str, str | None], BackendStats]", op: tuple, alpha: float
) -> None:
    """Apply one observation op to its exact pair and the backend aggregate.

    The single source of the op semantics, shared by the live
    :class:`BackendScoreboard` and the durable
    :class:`~repro.engine.store.ScoreboardStore` replay, so the two cannot
    drift apart.  ``stats_for(backend, signature)`` returns the mutable
    stats row to update (``signature=None`` is the aggregate).  The one op
    is ``("observe", backend, signature, objective, wall_time, cache_hit)``:
    quality + latency (:meth:`BackendStats.observe`).
    """
    kind, backend, signature = op[0], op[1], op[2]
    if kind != "observe":
        raise ReproError(f"unknown scoreboard observation kind: {kind!r}")
    for target in {signature, None}:
        stats_for(backend, target).observe(op[3], op[4], alpha, cache_hit=op[5])


def result_observation(result: "SolveResult") -> tuple:
    """The ``"observe"`` op of one engine-executed result (its ``info["engine"]``)."""
    engine = result.info.get("engine", {})
    return (
        "observe",
        result.method,
        engine.get("signature"),
        result.objective,
        result.wall_time,
        bool(engine.get("cache_hit", False)),
    )


class BackendScoreboard:
    """Per-``(backend, structure-signature)`` stats from engine telemetry.

    Keys are backend registry names crossed with the 16-hex structure keys
    the planner stamps into ``info["engine"]["signature"]`` (see
    :meth:`~repro.qubo.model.QuboModel.signature`).  Every observation also
    updates a backend-global aggregate (signature ``None``) so routing has
    a fallback for structures the exact pair has never seen.

    The scoreboard is in-memory only.  :meth:`hydrate` merges in the
    statistics a durable :class:`~repro.engine.store.EngineStore` holds;
    writing them back is the caller's job — the engine records each call's
    observation ops into the store that call names, replaying the same
    EWMA arithmetic in the same order, so for a single writer the stored
    statistics are byte-identical to the live ones and a freshly hydrated
    scoreboard routes exactly like the instance that produced them.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha <= 1.0:
            raise ReproError("scoreboard alpha must be in (0, 1]")
        self.alpha = alpha
        self._stats: "dict[tuple[str, str | None], BackendStats]" = {}
        self._lock = threading.Lock()
        self._hydrated: "set[Path]" = set()

    def hydrate(self, store) -> None:
        """Merge in a durable store's statistics the scoreboard lacks.

        ``store`` is any ``store=`` spelling.  Hydration never overwrites a
        pair already observed in memory (live statistics are fresher than
        the store they were hydrated from), and each store file is read
        once per scoreboard, so a long-lived caller pays one table read.
        """
        from repro.engine.store import resolve_store

        resolved = resolve_store(store)
        if resolved is None:
            return
        path = resolved.path.resolve()
        with self._lock:
            if path in self._hydrated:
                return
            for key, stats in resolved.scoreboard.load().items():
                self._stats.setdefault(key, stats)
            self._hydrated.add(path)

    # -- feeding ---------------------------------------------------------------

    def apply(self, ops: Iterable[tuple]) -> None:
        """Apply observation ops (see :func:`apply_observation`) in order."""
        def stats_for(backend: str, signature: "str | None") -> BackendStats:
            return self._stats.setdefault((backend, signature), BackendStats())

        with self._lock:
            for op in ops:
                apply_observation(stats_for, op, self.alpha)

    def observe(self, backend: str, signature: "str | None", objective: float,
                wall_time: float, cache_hit: bool = False) -> None:
        """Record one solve outcome (the low-level feed)."""
        self.apply([("observe", backend, signature, objective, wall_time, cache_hit)])

    # -- reading ---------------------------------------------------------------

    def stats(self, backend: str, signature: "str | None") -> "BackendStats | None":
        """Exact-pair stats, falling back to the backend-global aggregate."""
        with self._lock:
            found = self._stats.get((backend, signature))
            if found is None and signature is not None:
                found = self._stats.get((backend, None))
            return found

    def seen(self, backend: str) -> bool:
        """Whether this backend has been observed at all (any structure)."""
        with self._lock:
            return (backend, None) in self._stats

    def snapshot(self) -> dict:
        """``{(backend, signature): stats-dict}`` copy for telemetry/tests."""
        with self._lock:
            return {key: stats.as_dict() for key, stats in self._stats.items()}

    def capacity_snapshot(self) -> "dict[str, dict]":
        """Per-backend capacity summary: the admission-control read model.

        One row per backend, from the backend-global aggregate (signature
        ``None``) plus a count of distinct structures observed::

            {"sa": {"count": 37, "quality": ..., "latency": ...,
                    "best_objective": ..., "cache_hit_rate": 0.4,
                    "structures": 5}, ...}

        ``latency`` is the EWMA wall seconds per real (uncached) solve —
        the expected-service-time signal a capacity model or readiness
        probe needs.  Values are plain floats/ints (NaN where never observed),
        safe to serialise after NaN-scrubbing.  This is the queryable
        seam the service's ``/metrics`` and ``/readyz`` endpoints read,
        and the one the ROADMAP's admission-control item builds on.
        """
        with self._lock:
            rows: dict[str, dict] = {}
            structures: dict[str, int] = {}
            for (backend, signature), stats in self._stats.items():
                if signature is None:
                    rows[backend] = stats.as_dict()
                else:
                    structures[backend] = structures.get(backend, 0) + 1
            for backend, row in rows.items():
                row["structures"] = structures.get(backend, 0)
            return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            pairs = len(self._stats)
        return f"BackendScoreboard({pairs} (backend, structure) pairs, alpha={self.alpha})"


@dataclass
class RoutingDecision:
    """Why a shard went where it went (stamped into result telemetry)."""

    backend: str
    mode: str                      #: "cold" | "explore" | "exploit"
    signature: "str | None"
    candidates: list = field(default_factory=list)


class AdaptiveScheduler:
    """Epsilon-greedy, deadline-aware backend router over a scoreboard.

    Exploitation ranks candidates by expected quality for the shard's
    structure — candidates whose expected latency exceeds ``deadline_s``
    are demoted behind every deadline-feasible one (but never dropped: if
    *all* candidates blow the deadline the fastest is still picked, so no
    shard is ever starved).  Quality ties within :data:`QUALITY_TOL`
    (relative) break toward lower latency.  Exploration has two triggers: a backend
    the scoreboard has never seen anywhere is sampled first ("cold"), and
    an ``epsilon`` draw routes uniformly at random so the scoreboard keeps
    re-measuring backends that looked bad early ("explore").

    The scheduler owns a seeded RNG, so for a fixed seed and observation
    history its routing is deterministic — which keeps scheduled batches
    reproducible across executors.

    Routing knowledge is made durable per call, not here: a scheduled
    ``solve_many`` / ``solve_portfolio`` with ``store=`` hydrates the
    scoreboard from that store before routing — so a fresh scheduler
    starts warm and, for the same stored history, routes exactly like the
    long-lived instance that wrote it — and records the call's
    observations into it afterwards.
    """

    def __init__(
        self,
        scoreboard: "BackendScoreboard | None" = None,
        epsilon: float = 0.1,
        seed: int = 0,
        deadline_s: "float | None" = None,
        race_top_k: int = 2,
        alpha: float = DEFAULT_ALPHA,
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ReproError("epsilon must be in [0, 1]")
        if race_top_k < 1:
            raise ReproError("race_top_k must be >= 1")
        self.scoreboard = scoreboard if scoreboard is not None else BackendScoreboard(alpha=alpha)
        self.epsilon = epsilon
        self.deadline_s = deadline_s
        self.race_top_k = race_top_k
        self._rng = np.random.default_rng(seed)

    # -- routing ---------------------------------------------------------------

    def rank(self, signature: "str | None", candidates: Sequence[str]) -> list[str]:
        """Candidates best-first for this structure (pure exploitation view).

        Never-seen backends lead (optimism under uncertainty: they must be
        measured before they can be beaten), then deadline-feasible ones by
        quality (latency breaks near-ties), then deadline-breakers by
        latency.
        """
        names = _candidate_names(candidates)
        cold = [n for n in names if not self.scoreboard.seen(n)]
        scored = []
        for name in names:
            if name in cold:
                continue
            stats = self.scoreboard.stats(name, signature)
            quality = stats.quality if stats is not None else math.inf
            latency = stats.latency if stats is not None else math.nan
            if math.isnan(latency):
                # Quality-only observations (e.g. a warm cache: hits carry
                # no latency signal) — fall back to the backend-global
                # aggregate rather than assuming "instantaneous".
                fallback = self.scoreboard.stats(name, None)
                if fallback is not None:
                    latency = fallback.latency
            if math.isnan(quality):
                quality = math.inf
            if math.isnan(latency):
                # Still unknown: pessimistic. Never deadline-feasible on
                # faith, and last in any quality-tie latency tiebreak.
                latency = math.inf
            feasible = self.deadline_s is None or latency <= self.deadline_s
            scored.append((name, feasible, quality, latency))
        ordered = []
        for feasible_group in (True, False):
            group = [s for s in scored if s[1] is feasible_group]
            if not group:
                continue
            best_quality = min(s[2] for s in group)
            tol = QUALITY_TOL * (1.0 + abs(best_quality))
            tied = sorted((s for s in group if s[2] <= best_quality + tol),
                          key=lambda s: (s[3], s[0]))
            rest = sorted((s for s in group if s[2] > best_quality + tol),
                          key=lambda s: (s[2], s[3], s[0]))
            ordered.extend(s[0] for s in tied + rest)
        return cold + ordered

    def choose(self, signature: "str | None", candidates: Sequence[str]) -> RoutingDecision:
        """Pick one backend for a shard of this structure (epsilon-greedy)."""
        names = _candidate_names(candidates)
        cold = [n for n in names if not self.scoreboard.seen(n)]
        if cold:
            pick = cold[int(self._rng.integers(len(cold)))]
            return RoutingDecision(pick, "cold", signature, names)
        if self.epsilon > 0.0 and self._rng.random() < self.epsilon:
            pick = names[int(self._rng.integers(len(names)))]
            return RoutingDecision(pick, "explore", signature, names)
        return RoutingDecision(self.rank(signature, names)[0], "exploit", signature, names)

    def route(self, plan: ExecutionPlan, names: Sequence[str], opts_map: dict,
              stateful: dict) -> None:
        """Route every shard of a compiled plan up front (one decision each).

        Each shard's ``backend``/``backend_opts``/``stateful`` are
        rewritten in place and its ``routing`` records the decision
        (stamped into ``info["engine"]["scheduler"]`` at execution).  The
        plan still runs as *one* dispatch wave, so a cold or exploring
        batch spread over several backends parallelises as widely as a
        single-backend batch would.  Items keep their compiled seeds, so routing never perturbs
        a result.  ``opts_map`` holds per-backend factory options and
        ``stateful`` each backend's :attr:`~repro.api.backends.Backend.stateful`,
        both keyed by name (see :func:`_validated_opts_map`).
        """
        for shard_id, shard in enumerate(plan.shards):
            with obs.span(
                "scheduler.route", shard=shard_id, signature=shard.signature
            ) as route_span:
                decision = self.choose(shard.signature, names)
                route_span.set(backend=decision.backend, mode=decision.mode)
            shard.backend = decision.backend
            shard.backend_opts = dict(opts_map.get(decision.backend, {}))
            shard.stateful = stateful[decision.backend]
            shard.routing = {
                "backend": decision.backend,
                "mode": decision.mode,
                "candidates": list(names),
            }

    def select_contenders(
        self, signature: "str | None", candidates: Sequence[str]
    ) -> "tuple[list[str], dict]":
        """Narrow a portfolio to the scoreboard's top ``race_top_k`` backends.

        Only the raced names get a shard in the portfolio's plan.  An
        epsilon draw swaps the last raced slot for a random unraced
        candidate so the scoreboard keeps sampling backends that looked bad
        early.  Returns the raced names and the routing record the winner
        carries in ``info["portfolio_meta"]["scheduler"]``.
        """
        ranked = self.rank(signature, candidates)
        k = min(self.race_top_k, len(ranked))
        raced = list(ranked[:k])
        explored = False
        leftover = ranked[k:]
        if leftover and self.epsilon > 0.0 and self._rng.random() < self.epsilon:
            raced[-1] = leftover[int(self._rng.integers(len(leftover)))]
            explored = True
        return raced, {
            "signature": signature,
            "ranked": ranked,
            "raced": raced,
            "explored": explored,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveScheduler(epsilon={self.epsilon}, deadline_s={self.deadline_s}, "
            f"race_top_k={self.race_top_k}, {self.scoreboard!r})"
        )


def _candidate_names(candidates: Sequence) -> list[str]:
    names = []
    for c in candidates:
        if not isinstance(c, str):
            raise ReproError(
                "adaptive scheduling routes by registry name; pass backend names, "
                f"not {type(c).__name__} instances (the scoreboard keys on names)"
            )
        if c not in names:
            names.append(c)
    if not names:
        raise ReproError("adaptive scheduling needs at least one candidate backend")
    return names


def _validated_opts_map(
    backend_opts: "dict | None", names: Sequence[str]
) -> "tuple[dict, dict]":
    """Portfolio-style per-backend opts, checked against the candidate list,
    and each candidate's :attr:`~repro.api.backends.Backend.stateful`."""
    from repro.api.backends import get_backend

    opts_map = dict(backend_opts or {})
    unknown = set(opts_map) - set(names)
    if unknown:
        raise ReproError(
            f"backend_opts for {sorted(unknown)} match no candidate backend"
        )
    # Build every candidate once so a bad option fails up front, whichever
    # backends the scheduler's RNG later routes to.
    stateful = {name: get_backend(name, **opts_map.get(name, {})).stateful for name in names}
    return opts_map, stateful


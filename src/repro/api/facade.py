"""The top-level solver facade: Problem -> QUBO -> Backend -> SolveResult.

One call drives the whole Fig. 2 pipeline for any Table I workload on any
registered engine::

    from repro import solve
    result = solve(problem, backend="annealer", seed=7)

These entry points are thin front-ends over one engine path in
:mod:`repro.engine`: the planner compiles work into structure-keyed shards
(``solve`` is a one-item plan), the ``serial`` or ``processes`` executor
runs them as ``Backend.run`` packs, and a content-addressed
:class:`~repro.engine.cache.ResultCache` skips repeat work.
``solve_portfolio`` runs several backends on one instance as one plan and
keeps the best answer; ``solve_many`` runs
a batch sharded by QUBO structure so embedding / warm-start caches amortise
within each shard, with every uncached item of a stateless backend sharing
one sampling call.  Both accept a
``scheduler=`` :class:`~repro.engine.scheduler.AdaptiveScheduler`, which
routes work by observed per-structure quality/latency telemetry instead of
running every backend or fixing one.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.api.adapters import as_problem
from repro.api.backends import Backend, get_backend
from repro.api.problem import Problem
from repro.api.result import SolveResult
from repro.engine.runner import run_portfolio, solve_batch
from repro.engine.scheduler import AdaptiveScheduler
from repro.exceptions import ReproError
from repro.obs import trace as obs
from repro.utils.rngtools import SEED_RANGE, ensure_rng

#: How many of the lowest-energy samples are decoded (and refined) per
#: solve.  Post-processing several reads — not just the single best — is
#: how the published annealing pipelines extract value from sample
#: diversity.
DEFAULT_TOP_K = 8


def _as_backend(backend: "str | Backend", **backend_opts) -> Backend:
    if isinstance(backend, Backend):
        if backend_opts:
            raise ReproError("backend_opts only apply when selecting a backend by name")
        return backend
    return get_backend(backend, **backend_opts)


def solve(
    problem: "Problem | Any",
    backend: "str | Backend" = "sa",
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = DEFAULT_TOP_K,
    cache: "Any | None" = None,
    store: "Any | None" = None,
    decompose: "bool | int | None" = None,
    **backend_opts,
) -> SolveResult:
    """Solve one problem end to end on one backend.

    The solve runs as a one-item engine plan on the same path as
    :func:`solve_many`, so the result carries the same ``info["engine"]``
    block batch items carry (shard 0 of 1 on the ``serial`` executor).

    Args:
        problem: A :class:`Problem` adapter, or a raw domain object
            (``MQOProblem``, ``JoinGraph``, schema pair, transaction list)
            that :func:`~repro.api.adapters.as_problem` can wrap.
        backend: Registry name (see :func:`~repro.api.backends.list_backends`)
            or a ready :class:`Backend` instance.
        seed: Int seed ``>= 0``, ``numpy`` Generator, or ``None`` for fresh entropy.
            Identical seeds yield identical results when the backend is
            selected by name (a fresh instance per call); a reused
            stateful ``Backend`` instance deliberately carries its
            embedding/warm-start caches across calls, which shifts the
            RNG stream of later solves.
        refine: Apply the problem's classical polish to each decoded sample
            (the hybrid loop of Sec. III-C.2).
        top_k: Decode this many lowest-energy samples, keep the best.
        cache: ``None``/``False`` (off), ``True`` (process-global
            :class:`~repro.engine.cache.ResultCache`), or a
            ``ResultCache``; a path is an error (durable results are
            ``store=<path>``).  Only consulted when the backend is selected
            by name *and* ``seed`` is an integer (otherwise the result is
            not content-addressable); hits are byte-equivalent to a re-run
            and are flagged in ``info["engine"]["cache_hit"]``.
        store: ``None`` (consult the ``REPRO_STORE`` environment variable),
            ``False`` (off), a path, or an
            :class:`~repro.engine.store.EngineStore` — the durable SQLite
            tier of ``docs/engine.md``.  For this call, ``cache`` reads and
            writes through to the store's cross-process result tier (a
            fresh cache stands in if ``cache`` is off), and the solve's
            outcome is recorded into the durable scoreboard so routing
            knowledge survives restarts.
        decompose: Large-instance handling (``docs/engine.md``,
            "Decomposition").  ``None``/``False``: off.  ``True``: if the
            problem's QUBO exceeds the backend's declared
            :attr:`~repro.api.backends.Backend.capacity`, split it with the
            qbsolv-style decomposer in :mod:`repro.engine.decompose`, solve
            the blocks as one engine batch, and stitch (a backend without a
            capacity is assumed unbounded — no decomposition).  An ``int``
            sets the capacity threshold explicitly, regardless of the
            backend's own.  Inactive when the instance already fits; the
            stitched path reports provenance in ``info["decompose"]``.
        **backend_opts: Forwarded to the backend factory (e.g.
            ``num_reads=32`` for ``"sa"``, ``num_layers=3`` for ``"qaoa"``).
    """
    coerced = as_problem(problem)
    with obs.span("facade.solve", backend=getattr(backend, "name", backend),
                  problem=coerced.name):
        if decompose:
            resolved = _as_backend(backend, **backend_opts)
            capacity = resolved.capacity if decompose is True else int(decompose)
            if capacity is not None and coerced.to_qubo().num_variables > capacity:
                from repro.engine.decompose import solve_decomposed

                return solve_decomposed(
                    coerced,
                    resolved,
                    capacity,
                    backend_name=backend if isinstance(backend, str) else None,
                    backend_opts=backend_opts,
                    seed=seed,
                    refine=refine,
                    top_k=top_k,
                    cache=cache,
                    store=store,
                )
        # A one-item plan: an in-range int seed keeps it content-addressable
        # (see compile_plan's seeds=); anything else becomes a
        # Generator the item draws from in place, which is never cached.
        if isinstance(seed, (int, np.integer)) and seed < 0:
            raise ReproError(f"seed must be an integer >= 0, a Generator or None, got {seed}")
        if isinstance(seed, (int, np.integer)) and seed < SEED_RANGE:
            item_seed = int(seed)
        else:
            item_seed = ensure_rng(seed)
        return solve_batch(
            [coerced],
            backend,
            refine=refine,
            top_k=top_k,
            cache=cache,
            backend_opts=backend_opts,
            store=store,
            seeds=[item_seed],
        )[0]


def solve_portfolio(
    problem: "Problem | Any",
    backends: "str | Backend | Sequence[str | Backend]" = ("sa", "tabu"),
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = DEFAULT_TOP_K,
    backend_opts: "Mapping[str, dict] | None" = None,
    scheduler: "AdaptiveScheduler | None" = None,
    store: "Any | None" = None,
) -> SolveResult:
    """Run several backends on one instance; return the best result.

    The contenders run as one engine plan, one shard each, in order.  Each
    gets an independent child seed split from ``seed``, so the portfolio is
    reproducible as a whole and each contender equals a standalone
    :func:`solve` with its seed.  The winner's result carries an
    ``info["portfolio"]`` breakdown of every contender and an
    ``info["portfolio_meta"]`` summary.

    Args:
        backends: Registry names and/or :class:`Backend` instances; a lone
            name or instance is a one-contender portfolio.
        backend_opts: Per-backend factory options keyed by registry name,
            e.g. ``{"sa": {"num_reads": 64}, "qaoa": {"num_layers": 3}}``.
            Keys must name a string contender (instances configure
            themselves).
        scheduler: An :class:`~repro.engine.scheduler.AdaptiveScheduler`.
            When set, run-everything becomes route-then-race-top-k: the
            scheduler's scoreboard ranks the candidates for this instance's
            QUBO structure and only the top ``scheduler.race_top_k`` run
            (epsilon-greedy swap-ins keep colder backends measured).  All
            raced outcomes feed the scoreboard; contenders must then be
            registry names.
        store: Durable store spelling (see :func:`solve`).  Every
            contender's outcome is recorded into the durable scoreboard;
            with a scheduler, its scoreboard is additionally hydrated from
            the store so ranking starts warm.
    """
    backends = [backends] if isinstance(backends, (str, Backend)) else list(backends)
    with obs.span(
        "facade.solve_portfolio",
        contenders=len(backends),
        scheduled=scheduler is not None,
    ):
        return run_portfolio(
            as_problem(problem),
            backends,
            seed=seed,
            refine=refine,
            top_k=top_k,
            backend_opts=backend_opts,
            store=store,
            scheduler=scheduler,
        )


def solve_many(
    problems: Iterable["Problem | Any"],
    backend: "str | Backend | Sequence[str]" = "sa",
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = DEFAULT_TOP_K,
    executor: str = "serial",
    cache: "Any | None" = None,
    max_shard_size: "int | None" = None,
    scheduler: "AdaptiveScheduler | None" = None,
    store: "Any | None" = None,
    seeds: "Sequence[int] | None" = None,
    labels: "Sequence[str | None] | None" = None,
    **backend_opts,
) -> list[SolveResult]:
    """Solve a batch of problems, sharded by QUBO structure.

    The planner groups structurally identical QUBOs into shards.  A
    stateful backend gets one instance and one ``Backend.run`` per shard —
    the annealer backend reuses hardware embeddings and the QAOA backend
    warm-starts its angles within a shard, so same-shaped instances pay the
    expensive setup once — while every uncached item of a stateless
    backend rides one ``run``.  Each problem gets an independent child RNG
    split from ``seed`` *in batch order*, making the batch reproducible as
    a whole and its objectives identical on both executors.  With its child
    seed (or ``seeds=``), a stateless backend's item equals a standalone
    ``solve`` bit for bit, cache key included; a stateful backend's
    non-first item also depends on the shard state its predecessors built.

    Args:
        executor: ``"serial"`` (default; one pack after another in this
            process), ``"processes"`` (true parallelism for the CPU-bound
            simulator backends; packs must pickle, so select the backend
            by name), or an :class:`~repro.engine.executors.Executor`
            instance, e.g. ``ProcessExecutor(max_workers=4)``.  A
            caller-supplied ``Backend`` *instance* keeps the determinism
            guarantee only while its state is keyed by QUBO signature
            (true of the built-ins) — and under ``"processes"`` the
            workers operate on pickled copies, so the caller's instance
            does not accumulate caches across the batch.
        cache: Same spellings as :func:`solve`.  A stateless backend's
            items hit one by one; a stateful backend's shard hits only when
            every item does, as later items depend on state earlier ones
            built.  Hits never perturb the RNG stream of neighbouring items.
        max_shard_size: Split signature groups larger than this into
            several shards (on a stateful backend, more packs to run in
            parallel; setup amortises per split).
        scheduler: An :class:`~repro.engine.scheduler.AdaptiveScheduler`.
            When set, ``backend`` may be a *sequence* of registry names and
            every shard is routed to the candidate with the best expected
            quality-under-deadline for its QUBO structure (epsilon-greedy,
            scoreboard-driven; see ``docs/engine.md``).  Routing happens
            before dispatch and the scoreboard updates after the batch, so
            scheduled batches keep the cross-executor determinism contract
            for a fixed scheduler state.  In scheduled mode
            ``**backend_opts`` is portfolio-style — per-backend factory
            dicts keyed by name, e.g. ``sa={"num_reads": 64}``.
        store: Durable store spelling (see :func:`solve`).  Results flow
            through the store's cross-process cache tier, read per key on
            a memory miss, and the batch's telemetry is recorded into the
            durable scoreboard at the batch boundary (see the "Durable
            store" section of ``docs/engine.md``).
        seeds: Explicit per-item child seeds (see
            :func:`~repro.engine.plan.compile_plan`), overriding the batch
            split from ``seed`` — with ``max_shard_size=1``, the contract
            the service tier's request coalescing relies on
            (``docs/service.md``).
        labels: Optional per-item tags (one per problem, ``None`` entries
            allowed), surfaced verbatim in ``info["engine"]["label"]`` on
            both the miss and cache-hit paths.  Pure telemetry: labels
            never influence sharding, seeds, routing, or cache keys, so a
            labelled batch is bit-identical to the same batch unlabelled.
            The SQL workload runner (``docs/workload.md``) uses them to tie
            each result back to its compiled instance.
        **backend_opts: Forwarded to the backend factory, once per shard
            (unscheduled mode), or per-backend option dicts keyed by
            registry name (scheduled mode).
    """
    executor_label = executor if isinstance(executor, str) else getattr(executor, "name", "custom")
    with obs.span(
        "facade.solve_many", executor=executor_label, scheduled=scheduler is not None
    ):
        return solve_batch(
            problems,
            backend,
            seed=seed,
            refine=refine,
            top_k=top_k,
            executor=executor,
            cache=cache,
            max_shard_size=max_shard_size,
            backend_opts=backend_opts,
            store=store,
            seeds=seeds,
            labels=labels,
            scheduler=scheduler,
        )

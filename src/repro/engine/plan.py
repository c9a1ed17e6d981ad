"""Plan compilation: problems -> canonical QUBOs -> fingerprints -> shards.

The planner turns a batch into an :class:`ExecutionPlan` that any executor
can run:

1. every problem is coerced through :func:`~repro.api.adapters.as_problems`
   and formulated once (``to_qubo`` caches the model on the adapter);
2. each item gets a deterministic child seed split from the batch seed *in
   batch order* — seed assignment never depends on sharding, executor
   choice, or cache state, which is what makes serial and parallel runs of
   the same plan return identical objectives;
3. items are grouped into **shards** by structural signature
   (:meth:`~repro.qubo.model.QuboModel.signature`), the unit of telemetry.
   The runner packs items into ``Backend.run`` calls — all uncached items
   of a stateless backend share one, each shard of a stateful backend gets
   its own instance so embedding / warm-start caches amortise within it —
   and executors run packs, not shards, in parallel;
4. :func:`cache_keys` derives keys when a cache is in play, after routing,
   over ``(QUBO fingerprint, backend, opts, seed)``.  A stateful shard's
   item *k* also hashes its **shard-prefix history**: its samples depend
   on the state items ``0..k-1`` built (embedding searched with the
   leader's RNG, warm-start angles from its optimisation).  A stateless
   item ignores its shard-mates, so in any position it keys like a
   standalone ``solve`` (a one-item plan) of the same fingerprint/opts/seed.

Backend instances passed by the caller are shared and stateful by design;
their state is not content-addressable, so a plan with any instance-backed
shard disables caching rather than risk wrong hits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.engine.cache import make_cache_key
from repro.exceptions import ReproError
from repro.utils.rngtools import SEED_RANGE, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime imports are lazy
    from repro.api.backends import Backend
    from repro.api.problem import Problem


def _opts_key(backend_opts: dict, refine: bool, top_k: int) -> str:
    """Canonical string of everything besides model/seed that shapes a result."""
    return repr((sorted(backend_opts.items()), bool(refine), int(top_k)))


@dataclass
class PlanItem:
    """One batch entry: a problem plus everything needed to solve it."""

    index: int            #: position in the original batch
    problem: Problem
    seed: "int | np.random.Generator"  #: child seed (a live Generator is drawn in place)
    shard: int            #: shard id (items of one shard share a backend instance)
    fingerprint: str      #: canonical content hash of the item's QUBO
    label: "str | None" = None       #: caller tag, surfaced in telemetry only


@dataclass
class Shard:
    """Items of one structure that run in order on one backend.

    ``backend`` is a registry name, built fresh with ``backend_opts`` by
    each dispatch, or a caller's :class:`~repro.api.backends.Backend`
    instance (``backend_opts`` then ``{}``).  ``stateful`` is that
    backend's :attr:`~repro.api.backends.Backend.stateful`, read off the
    instance the planner (or the scheduler) already built.  The adaptive
    scheduler rewrites all three in place and records why in ``routing``.
    """

    items: list[PlanItem]  #: in shard order (position 0 is the shard leader)
    signature: str         #: 16-hex structure key (scoreboard / store index)
    backend: "str | Backend"
    backend_opts: dict
    stateful: bool         #: whether the backend needs a pack of its own
    routing: "dict | None" = None  #: the scheduler's decision; None unless routed


@dataclass
class ExecutionPlan:
    """A compiled batch: items in batch order, grouped into shards."""

    items: list[PlanItem]
    shards: list[Shard]
    refine: bool
    top_k: int

    @property
    def cacheable(self) -> bool:
        # An instance's state and a live Generator's position cannot be
        # content-addressed.
        return all(isinstance(shard.backend, str) for shard in self.shards) and all(
            isinstance(item.seed, int) for item in self.items
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backends = sorted({str(getattr(s.backend, "name", s.backend)) for s in self.shards})
        return (
            f"ExecutionPlan({len(self.items)} items, {len(self.shards)} shards, "
            f"backend={backends!r})"
        )


def shard_backend(backend: "str | Backend",
                  backend_opts: "dict | None" = None) -> "tuple[str | Backend, dict, bool]":
    """A shard's ``(backend, backend_opts, stateful)`` fields.

    A registry name is built once and dropped, so a bad name or bad options
    fail here, at compile time, rather than inside a worker.
    """
    from repro.api.backends import Backend, get_backend

    backend_opts = dict(backend_opts or {})
    if isinstance(backend, Backend):
        if backend_opts:
            raise ReproError("backend_opts only apply when selecting a backend by name")
        return backend, {}, backend.stateful
    return str(backend), backend_opts, get_backend(str(backend), **backend_opts).stateful


def _explicit_seed(index: int, seed) -> "int | np.random.Generator":
    """One ``seeds=`` entry, validated: a Generator, or an int in range."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        if 0 <= seed < SEED_RANGE:
            return int(seed)
    raise ReproError(f"seeds[{index}] must be an int in [0, {SEED_RANGE}) or a Generator, "
                     f"got {seed!r}")


def compile_plan(
    problems: Iterable["Problem | Any"],
    backend: "str | Backend" = "sa",
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = 8,
    backend_opts: "dict | None" = None,
    max_shard_size: "int | None" = None,
    seeds: "Sequence[int | np.random.Generator] | None" = None,
    labels: "Sequence[str | None] | None" = None,
) -> ExecutionPlan:
    """Compile a batch into an :class:`ExecutionPlan`.

    Args:
        problems: Adapters or raw domain objects (see
            :func:`~repro.api.adapters.as_problems`).
        backend: Registry name (fresh instance per shard, cacheable) or a
            shared :class:`Backend` instance (stateful, not cacheable).
        seed: Batch seed; children are split per item in batch order.
        refine: Forwarded to the solve kernel.
        top_k: Forwarded to the solve kernel.
        backend_opts: Factory options for a by-name backend.
        max_shard_size: Split signature groups larger than this into
            several shards (more parallelism, embedding paid once per
            split); ``None`` keeps one shard per signature.
        seeds: Explicit per-item child seeds, overriding the batch split.
            One ``int`` in ``[0, 2**63 - 1)`` per problem, used verbatim,
            or a live ``numpy`` Generator, which the item draws from in
            place (the plan is then not cacheable).  This is the seam a
            caller that aggregates *independently seeded* requests (the
            service tier's coalescing queue) needs: a stateless item, or
            any item with ``max_shard_size=1``, equals — result and cache
            key — a standalone ``solve`` with the same
            fingerprint/opts/seed, no matter which batch it rode in.
        labels: Optional per-item tags (one entry per problem, ``None``
            entries allowed).  Labels ride along purely as telemetry —
            they surface in ``info["engine"]["label"]`` but never enter
            fingerprints, sharding, seeds, or cache keys, so labelled and
            unlabelled runs of the same batch are bit-identical.  The SQL
            workload compiler uses them to stamp each result with its
            instance label (``docs/workload.md``).
    """
    # Lazy imports: repro.api.facade imports this package at module load,
    # so engine modules must not import repro.api back at module level.
    from repro.api.adapters import as_problems

    backend, backend_opts, stateful = shard_backend(backend, backend_opts)
    if max_shard_size is not None and not isinstance(backend, str):
        # Splitting one signature group across shards is only sound when
        # each shard gets a fresh instance: split shards sharing a live
        # instance would reuse (or race on) each other's signature-keyed
        # caches depending on scheduling.
        raise ReproError(
            "max_shard_size requires selecting the backend by name; shards "
            "sharing a live Backend instance cannot split a signature group "
            "deterministically"
        )
    if max_shard_size is not None and max_shard_size < 1:
        raise ReproError("max_shard_size must be >= 1")

    coerced = as_problems(problems)
    if seeds is not None:
        child_seeds = [_explicit_seed(i, s) for i, s in enumerate(seeds)]
        if len(child_seeds) != len(coerced):
            raise ReproError(
                f"seeds= must provide one seed per problem: got {len(child_seeds)} "
                f"seeds for {len(coerced)} problems"
            )
    else:
        base = ensure_rng(seed)
        child_seeds = [int(s) for s in base.integers(0, SEED_RANGE, size=len(coerced))]
    if labels is not None:
        item_labels = list(labels)
        if len(item_labels) != len(coerced):
            raise ReproError(
                f"labels= must provide one label per problem: got {len(item_labels)} "
                f"labels for {len(coerced)} problems"
            )
    else:
        item_labels = [None] * len(coerced)

    # Group by structural signature in first-seen order; optionally split
    # oversized groups so wide batches expose more parallelism.
    open_shard: dict = {}
    shards: list[Shard] = []
    items: list[PlanItem] = []
    for index, (problem, child_seed) in enumerate(zip(coerced, child_seeds)):
        model = problem.to_qubo()
        signature = model.signature()
        shard_id = open_shard.get(signature)
        if shard_id is None or (
            max_shard_size is not None and len(shards[shard_id].items) >= max_shard_size
        ):
            shard_id = len(shards)
            open_shard[signature] = shard_id
            shards.append(Shard([], signature, backend, backend_opts, stateful))
        item = PlanItem(
            index=index,
            problem=problem,
            seed=child_seed,
            shard=shard_id,
            fingerprint=model.fingerprint(),
            label=item_labels[index],
        )
        shards[shard_id].items.append(item)
        items.append(item)

    return ExecutionPlan(items=items, shards=shards, refine=refine, top_k=top_k)


def cache_keys(shard: Shard, refine: bool, top_k: int) -> list[str]:
    """A by-name shard's item keys, in shard order; only a stateful shard
    folds each item's shard-prefix history in."""
    opts_key = _opts_key(shard.backend_opts, refine, top_k)
    history = hashlib.sha256()
    keys = []
    for item in shard.items:
        keys.append(make_cache_key(
            item.fingerprint, shard.backend, opts_key + "|" + history.hexdigest(), item.seed
        ))
        if shard.stateful:
            history.update(item.fingerprint.encode("ascii"))
            history.update(str(item.seed).encode("ascii"))
    return keys

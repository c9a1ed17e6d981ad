"""Engine benchmarks: sharded dispatch, cache reuse, adaptive scheduling.

Seven claims, each asserted:

1. on a wide batch (32 instances, 8 structure groups), sharded-parallel
   ``solve_many`` beats the serial path wall-clock — with **identical
   objectives**, since executor choice only changes scheduling (on a
   single-core runner the timing claim is vacuous, so it is asserted only
   when the machine can actually parallelise; equality is asserted always);
2. a warm-cache rerun of the same batch is >= 5x faster than the cold run,
   again with identical objectives;
3. structure-sharding itself pays even serially: one embedding search per
   shard instead of one per instance on the annealer backend;
4. adaptive routing beats race-everything on total wall time for a
   32-instance mixed-structure batch, at equal-or-better mean objective —
   the scoreboard pays for itself after one warmup portfolio per structure;
5. durable engine knowledge pays across restarts: after a cold run against
   an ``EngineStore``, a fresh "process" (new scheduler, new caches)
   hydrated from the store routes by scoreboard from its very first shard
   (no cold-sampling), hits the shared cross-process cache, and beats the
   cold run's wall time at equal objectives;
6. the array-native ``QuboModel`` bulk API makes cold formulation (build +
   fingerprint, nothing cached) of a 32-instance batch >= 5x faster than
   the seed's dict-per-term path, at byte-identical fingerprints;
7. the qbsolv-style decomposer matches or beats a direct tabu solve on a
   clustered instance 4x over the imposed capacity.

Claims 5-7 each merge a section into the ``BENCH_<run>.json`` metrics file
(wall times, objectives, speedups, hit-rates) which the
``bench-trajectory`` CI job uploads as the engine-performance trajectory
artifact.
"""

import os
import statistics
import time

import numpy as np
from trajectory import emit_bench_json

from repro import obs
from repro import (
    AdaptiveScheduler,
    EngineStore,
    ResultCache,
    solve,
    solve_many,
    solve_portfolio,
)
from repro.api import MQOAdapter, as_problem
from repro.mqo import generate_mqo_problem
from repro.mqo.qubo import mqo_to_qubo
from repro.qubo.model import QuboModel

#: 32 instances in 8 structure groups of 4 — wide enough that the process
#: pool has real shards to spread while embedding reuse still amortises.
BATCH_STRUCTURES = 8
BATCH_COPIES = 4
SA_OPTS = dict(num_reads=16, num_sweeps=300)


def _wide_batch():
    return [
        MQOAdapter(generate_mqo_problem(4, 3, sharing_density=0.4, rng=structure))
        for structure in range(BATCH_STRUCTURES)
        for _ in range(BATCH_COPIES)
    ]


def _objectives(results):
    return [r.objective for r in results]


def test_sharded_parallel_matches_and_beats_serial(benchmark):
    """>= 32-instance batch: processes executor vs the serial reference."""
    problems = _wide_batch()
    assert len(problems) >= 32

    def kernel():
        t0 = time.perf_counter()
        serial = solve_many(problems, backend="sa", seed=11, **SA_OPTS)
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = solve_many(
            problems, backend="sa", seed=11, executor="processes", **SA_OPTS
        )
        parallel_s = time.perf_counter() - t0
        return serial, serial_s, parallel, parallel_s

    serial, serial_s, parallel, parallel_s = benchmark.pedantic(kernel, rounds=1, iterations=1)
    # The determinism contract holds regardless of scheduling.
    assert _objectives(parallel) == _objectives(serial)
    assert [r.solution for r in parallel] == [r.solution for r in serial]
    print(f"\nserial: {serial_s:.2f}s  sharded-parallel: {parallel_s:.2f}s "
          f"({os.cpu_count()} cores, {max(r.info['engine']['shard'] for r in serial) + 1} shards)")
    if (os.cpu_count() or 1) >= 2:
        assert parallel_s < serial_s, (
            f"sharded-parallel ({parallel_s:.2f}s) should beat serial ({serial_s:.2f}s) "
            f"on {os.cpu_count()} cores"
        )
    else:
        # Single core: parallel dispatch cannot win; just bound the overhead.
        assert parallel_s < serial_s * 2.5 + 1.0


def test_warm_cache_rerun_at_least_5x_faster(benchmark):
    """Cold fills the content-addressed cache; warm is served from it."""
    problems = _wide_batch()
    cache = ResultCache(maxsize=4096)

    def kernel():
        t0 = time.perf_counter()
        cold = solve_many(problems, backend="sa", seed=11, cache=cache, **SA_OPTS)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = solve_many(problems, backend="sa", seed=11, cache=cache, **SA_OPTS)
        warm_s = time.perf_counter() - t0
        return cold, cold_s, warm, warm_s

    cold, cold_s, warm, warm_s = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert all(not r.cache_hit for r in cold)
    assert all(r.cache_hit for r in warm)
    assert _objectives(warm) == _objectives(cold)
    print(f"\ncold: {cold_s:.3f}s  warm: {warm_s:.3f}s  ({cold_s / warm_s:.0f}x)")
    assert warm_s * 5.0 <= cold_s, f"warm rerun {warm_s:.3f}s vs cold {cold_s:.3f}s"


def test_structure_sharding_amortises_embedding_search(benchmark):
    """Serial engine vs per-instance fresh backends on the annealer: the
    shard shares one instance, so the Chimera embedding search runs once
    per structure group instead of once per instance."""
    # Larger QUBOs make the embedding search the dominant per-instance cost;
    # light sampling keeps the shared part small.
    problems = [
        MQOAdapter(generate_mqo_problem(5, 3, sharing_density=0.5, rng=structure))
        for structure in range(4)
        for _ in range(4)
    ]
    # refine=False / top_k=1 on both paths so decode cost (identical in
    # both) does not dilute the embedding-search difference being measured.
    opts = dict(num_reads=4, num_sweeps=60, refine=False, top_k=1)

    def kernel():
        t0 = time.perf_counter()
        naive = [solve(p, backend="annealer", seed=7, **opts) for p in problems]
        naive_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        sharded = solve_many(problems, backend="annealer", seed=7, **opts)
        sharded_s = time.perf_counter() - t0
        return naive, naive_s, sharded, sharded_s

    naive, naive_s, sharded, sharded_s = benchmark.pedantic(kernel, rounds=1, iterations=1)
    searches = sum(not r.info["embedding_cached"] for r in sharded)
    assert searches == 4  # one per structure group, not one per instance
    assert sum(not r.info["embedding_cached"] for r in naive) == len(problems)
    print(f"\nper-instance: {naive_s:.2f}s  sharded serial: {sharded_s:.2f}s")
    assert sharded_s < naive_s


def test_adaptive_routing_beats_race_everything(benchmark):
    """Route-by-scoreboard vs race-every-backend on a 32-instance batch.

    Instances are small enough that every contender reaches the optimum, so
    racing buys no quality — only wall clock.  The adaptive path pays one
    full portfolio per structure group (8 warmup races feeding the
    scoreboard), then routes all 32 shards' items to the cheapest
    equal-quality backend; race-everything pays every backend on all 32.
    """
    candidates = ("sa", "tabu", "bruteforce")
    opts = {"sa": dict(num_reads=8, num_sweeps=100), "tabu": dict(num_restarts=4)}
    problems = _wide_batch()
    representatives = [
        MQOAdapter(generate_mqo_problem(4, 3, sharing_density=0.4, rng=structure))
        for structure in range(BATCH_STRUCTURES)
    ]

    def kernel():
        t0 = time.perf_counter()
        race = [
            solve_portfolio(p, backends=candidates, seed=11, backend_opts=opts)
            for p in problems
        ]
        race_s = time.perf_counter() - t0
        # Adaptive: warmup portfolios (one per structure, racing everyone to
        # seed the scoreboard) + the routed batch. Both phases are timed.
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0, race_top_k=len(candidates))
        t0 = time.perf_counter()
        for representative in representatives:
            solve_portfolio(
                representative, backends=candidates, seed=11, backend_opts=opts,
                scheduler=scheduler,
            )
        routed = solve_many(
            problems, backend=candidates, scheduler=scheduler, seed=11, **opts
        )
        adaptive_s = time.perf_counter() - t0
        return race, race_s, routed, adaptive_s

    race, race_s, routed, adaptive_s = benchmark.pedantic(kernel, rounds=1, iterations=1)
    mean_race = statistics.mean(r.objective for r in race)
    mean_routed = statistics.mean(r.objective for r in routed)
    chosen = {r.scheduled_backend for r in routed}
    print(f"\nrace-everything: {race_s:.2f}s  adaptive (incl. warmup): {adaptive_s:.2f}s  "
          f"routed-to={sorted(chosen)}  mean objective {mean_race:.4f} -> {mean_routed:.4f}")
    assert mean_routed <= mean_race + 1e-9, (
        f"adaptive routing lost quality: {mean_routed} vs {mean_race}"
    )
    assert adaptive_s < race_s, (
        f"adaptive ({adaptive_s:.2f}s) should beat race-everything ({race_s:.2f}s)"
    )


def test_store_restart_warm_routing_beats_cold(benchmark, tmp_path):
    """Claim 5: durable knowledge survives a restart and pays immediately.

    The cold phase is a fresh deployment: it must *learn* (one warmup
    portfolio per structure feeding the durable scoreboard) and *solve*
    (the routed 32-instance batch, filling the shared cache tier).  Then
    every piece of process state is dropped — scheduler, scoreboard,
    caches — and only the store file survives.  The warm phase re-runs the
    batch from that file alone: the hydrated scheduler must route by
    scoreboard from its very first shard (``mode == "exploit"``, never
    ``"cold"``), the shared tier must produce cache hits, and the restart
    must beat the cold run's wall time at equal-or-better mean objective.
    """
    candidates = ("sa", "tabu", "bruteforce")
    opts = {"sa": dict(num_reads=8, num_sweeps=100), "tabu": dict(num_restarts=4)}
    problems = _wide_batch()
    representatives = [
        MQOAdapter(generate_mqo_problem(4, 3, sharing_density=0.4, rng=structure))
        for structure in range(BATCH_STRUCTURES)
    ]
    store_path = tmp_path / "engine.db"

    def kernel():
        # -- cold: learn + solve, everything flowing into the store --------
        store = EngineStore(store_path)
        scheduler = AdaptiveScheduler(
            epsilon=0.0, seed=0, race_top_k=len(candidates), store=store
        )
        cold_cache = ResultCache(store=store)
        t0 = time.perf_counter()
        for representative in representatives:
            solve_portfolio(
                representative, backends=candidates, seed=11, backend_opts=opts,
                scheduler=scheduler,
            )
        cold = solve_many(
            problems, backend=candidates, scheduler=scheduler, seed=11,
            cache=cold_cache, store=store, **opts,
        )
        cold_s = time.perf_counter() - t0

        # -- restart: drop every piece of process state ---------------------
        del store, scheduler, cold_cache

        # -- warm: a new process hydrates from the file alone ---------------
        store2 = EngineStore(store_path)
        fresh = AdaptiveScheduler(epsilon=0.0, seed=0, store=store2)
        warm_cache = ResultCache(store=store2)
        t0 = time.perf_counter()
        warm = solve_many(
            problems, backend=candidates, scheduler=fresh, seed=11,
            cache=warm_cache, store=store2, **opts,
        )
        warm_s = time.perf_counter() - t0
        return cold, cold_s, warm, warm_s, warm_cache, store2

    cold, cold_s, warm, warm_s, warm_cache, store2 = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )

    modes = [r.engine["scheduler"]["mode"] for r in warm]
    hits = sum(r.cache_hit for r in warm)
    warm_hit_rate = hits / len(warm)
    mean_cold = statistics.mean(r.objective for r in cold)
    mean_warm = statistics.mean(r.objective for r in warm)

    # Emit the trajectory point *before* asserting: a regressed run is
    # exactly the data point the trajectory exists to record, so the
    # artifact must exist even when the assertions below fail the job.
    path = emit_bench_json("store_restart", {
        "benchmark": "store_restart",
        "seed": 11,
        "batch_size": len(problems),
        "candidates": list(candidates),
        "cold": {
            "wall_s": cold_s,
            "mean_objective": mean_cold,
            "cache_hit_rate": 0.0,
        },
        "warm_store": {
            "wall_s": warm_s,
            "mean_objective": mean_warm,
            "cache_hit_rate": warm_hit_rate,
            "routing_modes": sorted(set(modes)),
        },
        "speedup": cold_s / warm_s if warm_s > 0 else None,
        "store": store2.stats(),
    })
    print(
        f"\ncold (learn+solve): {cold_s:.2f}s  warm-store restart: {warm_s:.2f}s "
        f"({cold_s / warm_s:.1f}x)  hit-rate {warm_hit_rate:.2f}  -> {path}"
    )

    # Scoreboard-driven routing from the very first shard: nothing is cold.
    assert all(mode == "exploit" for mode in modes), modes
    # The shared cross-process tier produced hits.
    assert hits > 0, "warm-store run produced no shared-cache hits"
    assert mean_warm <= mean_cold + 1e-9, (
        f"warm-store routing lost quality: {mean_warm} vs {mean_cold}"
    )
    assert warm_s <= cold_s, (
        f"warm-store restart ({warm_s:.2f}s) should beat the cold run ({cold_s:.2f}s)"
    )


# -- observability: the zero-overhead-when-disabled gate ---------------------


def test_tracing_noop_overhead_within_2_percent(benchmark):
    """With no tracer installed every ``obs.span`` call site must cost a
    contextvar read and a shared no-op scope — nothing else.  The gate is
    measured structurally rather than as a flaky A/B wall-time diff: (no-op
    cost per call site) x (call sites a traced batch actually hits) must
    stay under 2% of the untraced batch's wall time.
    """
    problems = _wide_batch()

    def kernel():
        t0 = time.perf_counter()
        untraced = solve_many(problems, backend="sa", seed=11, **SA_OPTS)
        untraced_s = time.perf_counter() - t0

        collector = obs.SpanCollector()
        with obs.activate(collector):
            traced = solve_many(problems, backend="sa", seed=11, **SA_OPTS)
        span_count = len(collector.drain())

        # Per-call disabled cost, amortised over enough calls to resolve.
        iterations = 100_000
        t0 = time.perf_counter()
        for _ in range(iterations):
            with obs.span("bench.noop", shard=0):
                pass
        noop_per_call_s = (time.perf_counter() - t0) / iterations
        return untraced, untraced_s, traced, span_count, noop_per_call_s

    untraced, untraced_s, traced, span_count, noop_per_call_s = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )
    # Tracing must not perturb results either way (the invariance contract).
    assert _objectives(traced) == _objectives(untraced)
    disabled_overhead_s = noop_per_call_s * span_count
    budget_s = 0.02 * untraced_s
    print(
        f"\nuntraced batch: {untraced_s:.3f}s  traced span count: {span_count}  "
        f"no-op cost/call: {noop_per_call_s * 1e9:.0f}ns  "
        f"disabled overhead: {disabled_overhead_s * 1e6:.1f}us "
        f"({100 * disabled_overhead_s / untraced_s:.4f}% of batch, budget 2%)"
    )
    assert span_count >= len(problems)  # the hot path is actually instrumented
    assert disabled_overhead_s <= budget_s, (
        f"disabled tracing costs {disabled_overhead_s * 1e3:.3f}ms across "
        f"{span_count} call sites — over the 2% budget ({budget_s * 1e3:.3f}ms)"
    )


# -- claim 6: vectorized formulation ----------------------------------------


class _SeedDictModel:
    """The seed's dict-per-term QUBO builder, frozen as the reference.

    Kept semantically exact (same accumulation order, same serialization)
    so the fingerprint comparison below proves the vectorized path changed
    *speed only*.
    """

    def __init__(self):
        self._labels = []
        self._index = {}
        self.linear = {}
        self.quadratic = {}
        self.offset = 0.0

    def variable(self, label):
        if label in self._index:
            return self._index[label]
        idx = len(self._labels)
        self._labels.append(label)
        self._index[label] = idx
        return idx

    def add_linear(self, var, coeff):
        i = self._index.get(var, var)
        self.linear[i] = self.linear.get(i, 0.0) + float(coeff)

    def add_quadratic(self, u, v, coeff):
        i, j = self._index.get(u, u), self._index.get(v, v)
        if i == j:
            return self.add_linear(i, coeff)
        if j < i:
            i, j = j, i
        self.quadratic[(i, j)] = self.quadratic.get((i, j), 0.0) + float(coeff)

    def add_offset(self, value):
        self.offset += float(value)

    def fingerprint(self):
        import hashlib
        import struct

        parts = [b"QUBO-v1", struct.pack("<q", len(self._labels))]
        linear = sorted((i, c) for i, c in self.linear.items() if c != 0.0)
        parts.append(struct.pack("<q", len(linear)))
        for i, c in linear:
            parts.append(struct.pack("<qd", i, c))
        quadratic = sorted((i, j, c) for (i, j), c in self.quadratic.items() if c != 0.0)
        parts.append(struct.pack("<q", len(quadratic)))
        for i, j, c in quadratic:
            parts.append(struct.pack("<qqd", i, j, c))
        parts.append(struct.pack("<d", self.offset))
        for label in self._labels:
            encoded = repr(label).encode("utf-8", errors="backslashreplace")
            parts.append(struct.pack("<q", len(encoded)))
            parts.append(encoded)
        return hashlib.sha256(b"".join(parts)).hexdigest()


def _seed_mqo_to_qubo(problem):
    """The seed's scalar MQO formulator: per-term adds, per-query rescans."""
    model = _SeedDictModel()
    for plan in problem.all_plans:
        model.variable(plan.key)
        model.add_linear(plan.key, plan.cost)
    for (a, b), amount in problem.savings.items():
        model.add_quadratic(a, b, -amount)
    for query in problem.queries:
        max_cost = max(p.cost for p in problem.plans_of(query))
        touching = sum(
            amount
            for (a, b), amount in problem.savings.items()
            if a[0] == query or b[0] == query
        )
        weight = max_cost + touching + 1.0
        keys = [p.key for p in problem.plans_of(query)]
        model.add_offset(weight)
        for key in keys:
            model.add_linear(key, -weight)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                model.add_quadratic(keys[i], keys[j], 2.0 * weight)
    return model


def test_vectorized_formulation_at_least_5x_faster(benchmark):
    """Claim 6: cold batch formulation (build + fingerprint, no caching)
    through the array-native bulk API vs the seed's dict-per-term path, at
    byte-identical fingerprints on every instance."""
    problems = [
        generate_mqo_problem(20, 40, sharing_density=0.4, rng=structure)
        for structure in range(8)
    ] * 4
    assert len(problems) == 32
    # Warm both code paths (imports, numpy ufunc setup) outside the timing.
    mqo_to_qubo(problems[0]).fingerprint()
    _seed_mqo_to_qubo(problems[0]).fingerprint()

    def kernel():
        t0 = time.perf_counter()
        vectorized = [mqo_to_qubo(p).fingerprint() for p in problems]
        vectorized_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        reference = [_seed_mqo_to_qubo(p).fingerprint() for p in problems]
        reference_s = time.perf_counter() - t0
        return vectorized, vectorized_s, reference, reference_s

    vectorized, vectorized_s, reference, reference_s = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )
    speedup = reference_s / vectorized_s
    path = emit_bench_json("formulation", {
        "benchmark": "formulation",
        "batch_size": len(problems),
        "instance_shape": {"queries": 20, "plans_per_query": 40},
        "vectorized_wall_s": vectorized_s,
        "reference_wall_s": reference_s,
        "speedup": speedup,
        "fingerprints_identical": vectorized == reference,
    })
    print(
        f"\nseed formulation: {reference_s:.3f}s  vectorized: {vectorized_s:.3f}s "
        f"({speedup:.2f}x)  -> {path}"
    )
    assert vectorized == reference, "vectorized formulation changed the QUBOs"
    assert speedup >= 5.0, (
        f"vectorized formulation only {speedup:.2f}x faster than the seed path"
    )


# -- claim 7: qbsolv-style decomposition ------------------------------------


def test_decomposer_matches_direct_tabu_when_4x_over_capacity(benchmark):
    """Claim 7: a 96-variable clustered QUBO solved through blocks of 24
    (4x over the imposed capacity) must match or beat direct tabu."""
    rng = np.random.default_rng(42)
    n, cluster = 96, 24
    model = QuboModel(num_variables=n)
    for c in range(n // cluster):
        base = c * cluster
        ii, jj = np.triu_indices(cluster, k=1)
        mask = rng.random(ii.size) < 0.4
        model.add_quadratic_from(
            base + ii[mask], base + jj[mask], rng.normal(0, 2.0, int(mask.sum()))
        )
    model.add_linear_from(np.arange(n), rng.normal(0, 1.0, n))
    edges = rng.integers(0, n, size=(40, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    model.add_quadratic_from(edges[:, 0], edges[:, 1], rng.normal(0, 0.3, len(edges)))

    def kernel():
        t0 = time.perf_counter()
        decomposed = solve(
            as_problem(model.copy()), backend="tabu", seed=7, decompose=cluster
        )
        decomposed_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        direct = solve(as_problem(model.copy()), backend="tabu", seed=7)
        direct_s = time.perf_counter() - t0
        return decomposed, decomposed_s, direct, direct_s

    decomposed, decomposed_s, direct, direct_s = benchmark.pedantic(
        kernel, rounds=1, iterations=1
    )
    provenance = decomposed.info["decompose"]
    path = emit_bench_json("decompose", {
        "benchmark": "decompose",
        "num_variables": n,
        "capacity": cluster,
        "num_blocks": provenance["num_blocks"],
        "rounds": len(provenance["rounds"]),
        "decomposed": {"wall_s": decomposed_s, "objective": decomposed.objective},
        "direct_tabu": {"wall_s": direct_s, "objective": direct.objective},
    })
    print(
        f"\ndirect tabu: {direct.objective:.4f} in {direct_s:.2f}s  "
        f"decomposed (cap {cluster}): {decomposed.objective:.4f} in "
        f"{decomposed_s:.2f}s over {provenance['num_blocks']} blocks  -> {path}"
    )
    assert all(size <= cluster for size in provenance["block_sizes"])
    assert decomposed.objective <= direct.objective + 1e-9, (
        f"decomposer lost quality: {decomposed.objective} vs {direct.objective}"
    )

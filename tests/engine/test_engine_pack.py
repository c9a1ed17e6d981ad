"""Packed dispatch must equal shard-by-shard and item-by-item solving.

The engine hands every uncached item of a stateless backend to one
``Backend.run`` (one per process worker), while a stateful backend keeps a
fresh instance and one ``run`` per shard.  Packing may change which jobs
share a call, never a result: on mixed-size batches over the four Table I
domains and raw QUBOs, ``solve_many`` equals the same batch at
``max_shard_size=1`` and equals per-item ``solve`` on every executor, and a
half-warm cache (any subset of items hit, the rest packed) equals a cold
run.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.api import (
    Backend,
    LeftDeepJoinAdapter,
    MQOAdapter,
    SchemaMatchingAdapter,
    TxnScheduleAdapter,
    register_backend,
)
from repro.api.adapters import RawQuboProblem
from repro.db.generator import chain_query, star_query
from repro import obs
from repro.engine import ProcessExecutor, ResultCache
from repro.integration.generator import generate_schema_pair
from repro.mqo import generate_mqo_problem
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.txn.generator import generate_transactions

#: The stateless backends, with settings small enough for many examples.
STATELESS = {
    "sa": dict(num_reads=4, num_sweeps=16),
    "tabu": dict(num_restarts=3, max_iterations=30),
    "sqa": dict(num_reads=2, num_sweeps=6, num_slices=2),
    "bruteforce": dict(keep=4),
    "classical": {},
}


def _instance(kind: str, size: int, rng: int):
    """One small instance; ``size`` moves its QUBO's variable count."""
    if kind == "mqo":
        return MQOAdapter(generate_mqo_problem(2 + size % 2, 2 + size // 2,
                                               sharing_density=0.4, rng=rng))
    if kind == "join":
        topology = chain_query if rng % 2 == 0 else star_query
        return LeftDeepJoinAdapter(topology(3 + size % 2, rng=rng))
    if kind == "schema":
        source, target, _ = generate_schema_pair(3 + size % 3, rng=rng)
        return SchemaMatchingAdapter(source, target)
    if kind == "txn":
        return TxnScheduleAdapter(generate_transactions(3, num_items=4, rng=rng),
                                  num_slots=2 + size % 2)
    gen = np.random.default_rng(rng)
    n = 2 + size
    model = QuboModel(num_variables=n)
    for i in range(n):
        model.add_linear(i, float(gen.integers(-3, 4)))
        for j in range(i + 1, n):
            model.add_quadratic(i, j, float(gen.integers(-3, 4)))
    return RawQuboProblem(model)


SPECS = st.lists(
    st.tuples(st.sampled_from(["mqo", "join", "schema", "txn", "qubo"]),
              st.integers(0, 3), st.integers(0, 2)),
    min_size=2, max_size=7,
)


def _batch(specs):
    return [_instance(kind, size, rng) for kind, size, rng in specs]


def _outcome(result):
    info = {k: v for k, v in result.info.items() if k not in ("timings", "engine", "trace")}
    return (result.objective, result.solution, repr(result.energy), result.num_variables,
            result.info["engine"]["seed"], sorted(info.items()))


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(sorted(STATELESS)),
    executor=st.sampled_from(["serial", "processes"]),
    specs=SPECS,
    seed=st.integers(0, 2**31),
)
def test_packed_batch_equals_one_item_shards_and_single_solves(backend, executor, specs, seed):
    if backend == "classical":  # a raw QUBO has no domain baseline
        specs = [("mqo" if kind == "qubo" else kind, size, rng) for kind, size, rng in specs]
    opts = STATELESS[backend]
    packed = repro.solve_many(_batch(specs), backend=backend, seed=seed,
                              executor=executor, **opts)
    single_shards = repro.solve_many(_batch(specs), backend=backend, seed=seed,
                                     executor=executor, max_shard_size=1, **opts)
    singles = [repro.solve(problem, backend=backend, seed=r.info["engine"]["seed"], **opts)
               for problem, r in zip(_batch(specs), packed)]
    assert [_outcome(r) for r in packed] == [_outcome(r) for r in single_shards]
    assert [_outcome(r) for r in packed] == [_outcome(r) for r in singles]


@settings(max_examples=10, deadline=None)
@given(backend=st.sampled_from(["sa", "tabu"]), specs=SPECS, seed=st.integers(0, 2**31),
       data=st.data())
def test_half_warm_cache_equals_cold_run(backend, specs, seed, data):
    """Warm the cache with an arbitrary subset of items (same seeds, and a
    stateless key ignores shard position, so the same keys); the full
    batch then hits exactly those and packs the rest.

    The batch repeats one spec at its end: the same structure under its
    own child seed, so every example holds a multi-item shard.  The repeat
    is always warmed and its original never is, so the repeat hits only if
    its key ignores the shard-mates before it.
    """
    twin = data.draw(st.integers(0, len(specs) - 1), label="twin")
    specs = specs + [specs[twin]]
    opts = STATELESS[backend]
    cold = repro.solve_many(_batch(specs), backend=backend, seed=seed, **opts)
    assert cold[-1].info["engine"]["shard_pos"] > 0
    seeds = [r.info["engine"]["seed"] for r in cold]
    drawn = data.draw(st.sets(st.integers(0, len(specs) - 1)), label="warm")
    warm = sorted((drawn - {twin}) | {len(specs) - 1})
    cache = ResultCache()
    batch = _batch(specs)
    repro.solve_many([batch[k] for k in warm], backend=backend, cache=cache,
                     seeds=[seeds[k] for k in warm], **opts)
    mixed = repro.solve_many(batch, backend=backend, cache=cache, seeds=seeds, **opts)
    assert [r.cache_hit for r in mixed] == [k in warm for k in range(len(batch))]
    assert [_outcome(r) for r in mixed] == [_outcome(r) for r in cold]


# -- counting: one run per dispatch, or per shard -----------------------------


#: Portfolio contenders: stateless ones (``sa`` may appear twice and share a
#: pack) and the stateful ``annealer`` (a pack of its own).
PORTFOLIO = {
    "sa": dict(num_reads=4, num_sweeps=16),
    "tabu": dict(num_restarts=3, max_iterations=30),
    "bruteforce": dict(keep=4),
    "annealer": dict(num_reads=4, num_sweeps=32),
}


@settings(max_examples=20, deadline=None)
@given(
    spec=st.tuples(st.sampled_from(["mqo", "join", "schema", "txn", "qubo"]),
                   st.integers(0, 3), st.integers(0, 2)),
    contenders=st.lists(st.sampled_from(sorted(PORTFOLIO)), min_size=1, max_size=4),
    seed=st.integers(0, 2**31),
)
@example(spec=("mqo", 1, 0), contenders=["sa", "sa"], seed=5)
@example(spec=("qubo", 2, 1), contenders=["annealer", "sa", "annealer"], seed=6)
# A stored zero coupling: the embedding must give it a coupler too.
@example(spec=("qubo", 0, 1), contenders=["annealer"], seed=0)
def test_portfolio_contenders_equal_single_solves(spec, contenders, seed):
    """Contender *i* of a portfolio is ``solve`` on its backend with child
    seed *i* of the portfolio seed, and the winner is the first best."""
    result = repro.solve_portfolio(_instance(*spec), backends=contenders, seed=seed,
                                   backend_opts={name: PORTFOLIO[name] for name in contenders})
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(contenders))
    singles = [repro.solve(_instance(*spec), backend=name, seed=int(s), **PORTFOLIO[name])
               for name, s in zip(contenders, seeds)]
    assert [(e["method"], e["objective"]) for e in result.info["portfolio"]] == [
        (r.method, r.objective) for r in singles]
    winner = min(range(len(singles)), key=lambda i: singles[i].objective)
    assert (result.method, result.objective, result.solution) == (
        singles[winner].method, singles[winner].objective, singles[winner].solution)
    assert (result.info["engine"]["shard"], result.info["engine"]["seed"]) == (
        winner, int(seeds[winner]))


def test_annealer_batch_shares_an_embedding_across_zero_and_nonzero_couplings():
    """Two same-signature QUBOs, one storing 0.0 at ``(0, 1)`` and one 1.0:
    the annealer's signature-keyed embedding serves both."""
    models = []
    for value in (0.0, 1.0):
        model = QuboModel(3)
        model.add_linear(2, -1.0)
        model.add_quadratic(0, 1, value)
        model.add_quadratic(1, 2, -1.0)
        models.append(model)
    results = repro.solve_many([RawQuboProblem(m) for m in models], backend="annealer",
                               seed=3, **PORTFOLIO["annealer"])
    singles = [repro.solve(RawQuboProblem(m), backend="annealer", seed=int(r.info["engine"]["seed"]),
                           **PORTFOLIO["annealer"]) for m, r in zip(models, results)]
    assert [r.objective for r in results] == [s.objective for s in singles] == [-2.0, -2.0]
    assert [r.info["embedding_cached"] for r in results] == [False, True]


class CountingBackend(Backend):
    """Returns each model's all-zero assignment; logs ``(instance, jobs)`` per call."""

    calls: list = []

    def __init__(self, name: str):
        self.name = name

    def run(self, jobs):
        type(self).calls.append((self, len(jobs)))
        return [SampleSet([(0,) * m.num_variables], [m.energy((0,) * m.num_variables)])
                for m, _ in jobs]


class StatelessCounting(CountingBackend):
    stateful = False
    calls: list = []


class StatefulCounting(CountingBackend):
    calls: list = []


#: Instances each counting factory has built, by registry name.
BUILDS: dict = {}


def _counting_factory(cls, name):
    def build():
        BUILDS[name] = BUILDS.get(name, 0) + 1
        return cls(name)
    return build


@pytest.fixture
def counting_registry():
    from repro.api import backends as registry

    BUILDS.clear()
    register_backend("counting_stateless",
                     _counting_factory(StatelessCounting, "counting_stateless"),
                     overwrite=True)
    register_backend("counting_stateful",
                     _counting_factory(StatefulCounting, "counting_stateful"),
                     overwrite=True)
    yield
    registry._REGISTRY.pop("counting_stateless", None)
    registry._REGISTRY.pop("counting_stateful", None)


def _dispatched_packs(run) -> list:
    """``(shards, items)`` of every ``engine.dispatch`` span ``run()`` emits.

    One dispatch span wraps each pack's one ``Backend.run``, and process
    workers send their spans back with their results, so this counts
    ``run`` calls on every executor; class-level counters only see the
    calls made in this process.
    """
    collector = obs.SpanCollector()
    with obs.activate(collector):
        run()
    return [(len(s["attrs"]["shards"]), s["attrs"]["items"])
            for s in collector.drain() if s["name"] == "engine.dispatch"]


def _mixed_batch():
    """Nine items over five structures: five shards, two of them 3 items."""
    return _batch([("mqo", 0, 1), ("qubo", 1, 0), ("mqo", 0, 1), ("txn", 0, 1),
                   ("qubo", 2, 1), ("mqo", 0, 1), ("txn", 0, 1), ("qubo", 3, 2),
                   ("txn", 0, 1)])


def test_stateless_backend_runs_once_per_serial_dispatch(counting_registry):
    StatelessCounting.calls = []
    results = repro.solve_many(_mixed_batch(), backend="counting_stateless", seed=1)
    assert len({r.info["engine"]["shard"] for r in results}) == 5
    assert [jobs for _, jobs in StatelessCounting.calls] == [9]


def test_stateless_backend_runs_at_most_once_per_process_worker(counting_registry):
    packs = _dispatched_packs(lambda: repro.solve_many(
        _mixed_batch(), backend="counting_stateless", seed=1,
        executor=ProcessExecutor(max_workers=2)))
    # Nine items cut in plan order into packs of 4 and 5 items.
    assert sorted(items for _, items in packs) == [4, 5]
    assert sum(shards for shards, _ in packs) == 5
    packs = _dispatched_packs(lambda: repro.solve_many(
        _mixed_batch(), backend="counting_stateless", seed=1, executor="processes"))
    assert 1 <= len(packs) <= ProcessExecutor().workers
    assert sum(items for _, items in packs) == 9


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_stateful_backend_gets_a_fresh_instance_and_run_per_shard(counting_registry, executor):
    StatefulCounting.calls = []
    packs = _dispatched_packs(lambda: repro.solve_many(
        _mixed_batch(), backend="counting_stateful", seed=1, executor=executor))
    assert sorted(packs) == [(1, 1), (1, 1), (1, 1), (1, 3), (1, 3)]
    # Only serial runs its packs here, where the class counter sees them.
    if executor == "serial":
        assert sorted(jobs for _, jobs in StatefulCounting.calls) == [1, 1, 1, 3, 3]
        assert len({id(instance) for instance, _ in StatefulCounting.calls}) == 5


@pytest.mark.parametrize("backend, packs", [("counting_stateless", 1),
                                            ("counting_stateful", 5)])
def test_by_name_dispatch_builds_one_instance_per_pack(counting_registry, backend, packs):
    """A by-name serial batch builds one instance at compile time (to
    validate the name and read ``stateful``) and one per pack, none more."""
    repro.solve_many(_mixed_batch(), backend=backend, seed=1)
    assert BUILDS[backend] == 1 + packs
    BUILDS.clear()
    cache = ResultCache()
    repro.solve_many(_mixed_batch(), backend=backend, seed=1, cache=cache)
    repro.solve_many(_mixed_batch(), backend=backend, seed=1, cache=cache)
    assert BUILDS[backend] == 2 + packs  # the warm rerun dispatches nothing


def test_vqe_batch_is_one_dispatch_equal_to_single_solves():
    """``vqe`` builds a fresh VQE per job, so it is stateless: its shards
    share one ``run`` and each item equals its own ``solve``."""
    opts = dict(num_layers=1, maxiter=60, restarts=1, shots=64)
    batch = _batch([("mqo", 0, 1), ("qubo", 1, 0), ("mqo", 0, 1)])
    results = []
    packs = _dispatched_packs(
        lambda: results.extend(repro.solve_many(batch, backend="vqe", seed=3, **opts)))
    assert packs == [(2, 3)]
    singles = [repro.solve(p, backend="vqe", seed=r.info["engine"]["seed"], **opts)
               for p, r in zip(batch, results)]
    assert [_outcome(r) for r in results] == [_outcome(r) for r in singles]


def test_bruteforce_pack_with_an_empty_qubo_returns_every_result():
    """A 2-attribute schema pair formulates a 0-variable QUBO; packed
    with non-empty items, it gets the empty assignment and the rest solve."""
    source, target, _ = generate_schema_pair(2, rng=0)
    empty = SchemaMatchingAdapter(source, target)
    assert empty.to_qubo().num_variables == 0
    batch = _batch([("mqo", 0, 1), ("qubo", 1, 0)]) + [empty] + _batch([("txn", 0, 1)])
    results = repro.solve_many(batch, backend="bruteforce", seed=4, keep=4)
    assert len(results) == 4 and all(r.solution is not None for r in results)
    assert results[2].num_variables == 0
    singles = [repro.solve(p, backend="bruteforce", seed=r.info["engine"]["seed"], keep=4)
               for p, r in zip(batch, results)]
    assert [_outcome(r) for r in results] == [_outcome(r) for r in singles]


def test_instance_backed_stateless_batch_is_one_run():
    backend = StatelessCounting("counting_instance")
    StatelessCounting.calls = []
    repro.solve_many(_mixed_batch(), backend=backend, seed=1)
    assert StatelessCounting.calls == [(backend, 9)]


def test_two_instances_never_share_a_pack():
    """Portfolio shards on different instances of one stateless class run
    on their own instance; shards on the same instance share its one run."""
    left, right = StatelessCounting("left"), StatelessCounting("right")
    StatelessCounting.calls = []
    result = repro.solve_portfolio(_instance("mqo", 0, 1), backends=(left, right, left), seed=2)
    assert [e["method"] for e in result.info["portfolio"]] == ["left", "right", "left"]
    assert StatelessCounting.calls == [(left, 2), (right, 1)]

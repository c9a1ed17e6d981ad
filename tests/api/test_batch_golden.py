"""Golden batch results: pinned digests of two seeded 32-instance Table I batches.

The per-domain refine oracles compare each fast descent with a full
re-evaluation reference on small instances; these digests pin what the
whole pipeline (formulate, sample, decode, refine, evaluate) returns at
benchmark scale.  Each batch holds 8 instances of each Table I domain (MQO,
left-deep join ordering, schema matching, transaction scheduling), built
with the ``repro`` generators from the explicit seeds below, and is solved
by one ``solve_many(refine=True, top_k=8, seeds=...)``.  The digest is the
SHA-256 of ``[(repr(objective), repr(solution))]`` in batch order, so any
change to an objective's last bit or to a solution moves it.  A second
digest per batch pins each item's sample energy and QUBO size, and a third
pins the same instances on the direct-solve ``classical`` backend, which
samples nothing: its energy is NaN and its ``info`` names the solver.

If a failure here is *intentional* (a formulation, a sampler or a refine
descent changed its results on purpose), regenerate the constants from the
failure message and say so in the commit message. Never change the sizes
or seeds to make a failure go away: that pins different instances.
"""

import functools
import hashlib
import math

import pytest

from repro import solve_many
from repro.api import LeftDeepJoinAdapter, MQOAdapter, SchemaMatchingAdapter, TxnScheduleAdapter
from repro.db.generator import chain_query, star_query
from repro.integration.generator import generate_schema_pair
from repro.mqo.generator import generate_mqo_problem
from repro.txn.generator import generate_transactions

#: batch -> (backend, per-domain sizes, pinned digest).  The sizes are the
#: benchmark's: ~72 QUBO variables per instance on ``tabu``, small ones on
#: ``sa``.  ``txn`` is (transactions, slots, data items).
BATCHES = {
    "table1-72": ("tabu", {"mqo": (12, 6), "join": 8, "schema": 8, "txn": (12, 6, 10)},
                  "389912ccae7d5838bf07772227dea18bf7e79ac279bb2e73aa1b9981f11c984c"),
    "table1-small": ("sa", {"mqo": (4, 3), "join": 4, "schema": 4, "txn": (4, 4, 6)},
                     "2060e548746b4c7d4a69a6fae5db31d84cdd46417ca9d0cc30df64a0d2b137af"),
}
PER_DOMAIN = 8
#: batch -> digest of ``[(repr(energy), num_variables)]`` on the batch's backend.
ENERGY_DIGESTS = {
    "table1-72": "f7cb921f90804f6fd3887212d7c91a5d89ad32cc2164607c8efb50d7bc40ed53",
    "table1-small": "e120dd9980e5c3776e4e210378c591e6fc32dc35c3bd47fcb2454796ba83d548",
}
#: batch -> digest of the same instances on ``classical``: objective, solution,
#: num_variables, whether energy is NaN, and ``info["solver"]``.
CLASSICAL_DIGESTS = {
    "table1-72": "b977300e1f9a36f2f4310097d5d32244af1ab2f999119612f51d8eeb7d1030b6",
    "table1-small": "5b3c26d03a25459d7f5103215c45108596e40667a66d99c6baf289871198a3e1",
}
INSTANCE_SEEDS = [9_001 + 97 * k for k in range(PER_DOMAIN)]
SOLVER_SEEDS = [31 + 1_009 * k for k in range(4 * PER_DOMAIN)]


def _problems(sizes):
    queries, plans = sizes["mqo"]
    transactions, slots, items = sizes["txn"]
    problems = [MQOAdapter(generate_mqo_problem(queries, plans, sharing_density=0.4, rng=s))
                for s in INSTANCE_SEEDS]
    problems += [LeftDeepJoinAdapter((chain_query, star_query)[k % 2](sizes["join"], rng=s))
                 for k, s in enumerate(INSTANCE_SEEDS)]
    for s in INSTANCE_SEEDS:
        source, target, _ = generate_schema_pair(sizes["schema"], rng=s)
        problems.append(SchemaMatchingAdapter(source, target))
    problems += [TxnScheduleAdapter(generate_transactions(transactions, num_items=items, rng=s),
                                    num_slots=slots) for s in INSTANCE_SEEDS]
    return problems


@functools.cache
def _solved(batch, backend):
    _, sizes, _ = BATCHES[batch]
    return solve_many(_problems(sizes), backend=backend, executor="serial", cache=False,
                      refine=True, top_k=8, seeds=SOLVER_SEEDS)


def _sha(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _digest(results) -> str:
    return _sha([(repr(r.objective), repr(r.solution)) for r in results])


def _energy_digest(results) -> str:
    return _sha([(repr(r.energy), r.num_variables) for r in results])


def _classical_digest(results) -> str:
    return _sha([(repr(r.objective), repr(r.solution), r.num_variables,
                  math.isnan(r.energy), r.info["solver"]) for r in results])


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_golden_batch(batch):
    backend, _, expected = BATCHES[batch]
    results = _solved(batch, backend)
    assert len(results) == 4 * PER_DOMAIN
    assert _digest(results) == expected, (
        f"{batch} on {backend}: batch digest changed; new value {_digest(results)}"
    )


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_golden_batch_energies(batch):
    backend = BATCHES[batch][0]
    digest = _energy_digest(_solved(batch, backend))
    assert digest == ENERGY_DIGESTS[batch], (
        f"{batch} on {backend}: energy digest changed; new value {digest}"
    )


@pytest.mark.parametrize("batch", sorted(BATCHES))
def test_golden_classical_batch(batch):
    results = _solved(batch, "classical")
    assert len(results) == 4 * PER_DOMAIN
    assert all(r.method == "classical" for r in results)
    digest = _classical_digest(results)
    assert digest == CLASSICAL_DIGESTS[batch], (
        f"{batch} on classical: digest changed; new value {digest}"
    )

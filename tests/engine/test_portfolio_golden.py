"""Golden portfolio results: pinned digests of seeded ``solve_portfolio`` calls.

Each digest is the SHA-256 of the winner's ``method``, ``repr(objective)``
and ``repr(solution)``, the ``[(method, repr(objective), status)]`` of its
``info["portfolio"]`` breakdown, and — on a scheduled portfolio — the
routing record in ``info["portfolio_meta"]["scheduler"]``.  Wall times are
left out: they are the only part of a deadline-free portfolio that may
differ between runs.

The cases cover one generated instance of each Table I domain (refined
with the default samplers, and unrefined with weak ones), a portfolio
that mixes a caller's instance with registry names, a scheduled portfolio
that races two of three candidates, and a portfolio recording into a
durable store (whose scoreboard rows are pinned too, latency aside).  The
scheduled case runs with ``refine=False`` and weak sampler options so every
contender's quality differs: no ranking tie is ever broken by measured
latency, so the ranking and the raced order are pinned whole.

If a failure here is *intentional* (a formulation, a sampler or the
portfolio itself changed its results on purpose), regenerate the constants
from the failure message and say so in the commit message.  Never change
the instances or seeds to make a failure go away.
"""

import hashlib

import pytest

from repro import solve_portfolio
from repro.api import LeftDeepJoinAdapter, MQOAdapter, SchemaMatchingAdapter, TxnScheduleAdapter
from repro.api.backends import get_backend
from repro.db.generator import chain_query
from repro.engine import AdaptiveScheduler, EngineStore
from repro.integration.generator import generate_schema_pair
from repro.mqo.generator import generate_mqo_problem
from repro.txn.generator import generate_transactions

SA_OPTS = {"num_reads": 8, "num_sweeps": 60}
WEAK_OPTS = {"sa": {"num_reads": 4, "num_sweeps": 20},
             "tabu": {"num_restarts": 1, "max_iterations": 10}}


def _mqo(seed):
    return MQOAdapter(generate_mqo_problem(4, 3, sharing_density=0.4, rng=seed))


def _schema(seed, num_attributes=4):
    source, target, _ = generate_schema_pair(num_attributes, rng=seed)
    return SchemaMatchingAdapter(source, target)


def _txn(seed):
    return TxnScheduleAdapter(generate_transactions(4, num_items=6, rng=seed), num_slots=4)


#: case -> (problem factory, instance seed, contenders, solver seed)
DOMAINS = {
    "mqo": (_mqo, 101, ("sa", "tabu", "bruteforce"), 7),
    "join": (lambda s: LeftDeepJoinAdapter(chain_query(5, rng=s)), 102, ("sa", "tabu"), 8),
    "schema": (_schema, 103, ("sa", "tabu"), 9),
    "txn": (_txn, 104, ("sa", "tabu"), 10),
}

#: The unrefined cases (weak samplers, ``refine=False``) pin each contender's
#: own seeded samples.  They reuse DOMAINS except for schema: its 4-attribute
#: pair has 8 variables, where the weak samplers reach the same answer under
#: any seed, so this case matches 8 attributes (14 variables) instead.
UNREFINED = dict(DOMAINS, schema=(lambda s: _schema(s, 8), 103, ("sa", "tabu"), 9))

GOLDEN = {
    "mqo": "29df82e76d4c5c3889f6e7d76f3353c28f3f5e60a4c41812f8d3abce90a491c3",
    "join": "b90c7dc5054c868e7b5e5745b080ea526e712ce1e3e41e5c1206ee2e74c1a0eb",
    "schema": "fb99d30177c02a61739283a2473fa3de3d2e23f7ec472c63974fb678f2e3d217",
    "txn": "aac5d3fd411813082983462589a8fca7bee91a6013919bd8f452b3cecf941bd8",
    "instance-plus-name": "35d937cb6671fda42712d8d8c54a05f003d5b010fcfba7919380d4db0dce6bf2",
    "scheduled": "9cf2db7e8d974c598a7f2de98e7716bdd5d3c3f0c30ec1954c34dace37103139",
    "store": "af5d223851741e10f69a6310146a6bde397857374ffe55e1dcb4901239040e14",
    "mqo-unrefined": "e27b698d2170a661dc80083e3708b3360099537128ee5304d54177abfbc35502",
    "join-unrefined": "1c138bbef4a27b8e45fa9d8844ba96f7ea23deecfd8bdf7e8170692e435e2bab",
    "schema-unrefined": "32c535c720c011fcfbf54531fda60e8e10c4da480edba5714c49c0f7686110b1",
    "txn-unrefined": "aabc3a826abad3096bf9c7619cab8888211b746fd30309d41bca68ec17474643",
}


def _pin(result):
    scheduled = result.info["portfolio_meta"].get("scheduler")
    return (
        result.method,
        repr(result.objective),
        repr(result.solution),
        [(e["method"], repr(e["objective"]), e["status"]) for e in result.info["portfolio"]],
        None if scheduled is None else sorted(scheduled.items()),
    )


def _digest(pins) -> str:
    return hashlib.sha256(repr(pins).encode()).hexdigest()


def _check(case, pins):
    assert _digest(pins) == GOLDEN[case], (
        f"{case}: portfolio digest changed; new value {_digest(pins)}"
    )


@pytest.mark.parametrize("case", sorted(DOMAINS))
def test_golden_domain_portfolio(case):
    factory, instance_seed, contenders, seed = DOMAINS[case]
    result = solve_portfolio(factory(instance_seed), backends=contenders, seed=seed,
                             backend_opts={"sa": SA_OPTS})
    _check(case, [_pin(result)])


@pytest.mark.parametrize("case", sorted(UNREFINED))
def test_golden_domain_portfolio_unrefined(case):
    factory, instance_seed, contenders, seed = UNREFINED[case]
    result = solve_portfolio(factory(instance_seed), backends=contenders, seed=seed,
                             refine=False, backend_opts=WEAK_OPTS)
    _check(f"{case}-unrefined", [_pin(result)])


def test_golden_instance_plus_name_portfolio():
    backend = get_backend("sa", **SA_OPTS)
    result = solve_portfolio(_mqo(105), backends=(backend, "tabu", "bruteforce"), seed=11)
    assert [e["method"] for e in result.info["portfolio"]] == ["sa", "tabu", "bruteforce"]
    _check("instance-plus-name", [_pin(result)])


def test_golden_scheduled_portfolio_races_top_k():
    scheduler = AdaptiveScheduler(epsilon=0.5, seed=4, race_top_k=2)
    pins = []
    for k in range(6):
        result = solve_portfolio(_mqo(200 + k % 2), backends=("sa", "tabu", "bruteforce"),
                                 seed=30 + k, refine=False, top_k=1, backend_opts=WEAK_OPTS,
                                 scheduler=scheduler)
        assert len(result.info["portfolio"]) == 2
        pins.append(_pin(result))
    _check("scheduled", pins)


def test_golden_portfolio_with_store(tmp_path):
    store = EngineStore(tmp_path / "engine.db")
    pins = [_pin(solve_portfolio(_mqo(106 + k), backends=("sa", "tabu"), seed=12 + k,
                                 backend_opts={"sa": SA_OPTS}, store=store))
            for k in range(2)]
    rows = sorted(
        (backend, signature or "", row["count"], repr(row["quality"]),
         repr(row["best_objective"]), row["cache_hit_rate"])
        for (backend, signature), row in store.scoreboard.snapshot().items()
    )
    _check("store", [pins, rows])

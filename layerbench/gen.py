"""Deterministic input generators: the same ``--seed`` gives the same inputs.

Inputs are plain data (domain descriptors, JSON problem specs, SQL text)
drawn from a ``random.Random`` keyed by workload name and seed, so they are
stable across platforms and cheap to compare in the self-tests.
:func:`build_problem` turns a descriptor into a fresh ``repro.api`` adapter.
"""

from __future__ import annotations

import random

#: Per-domain sizes of the two batch workloads (8 instances of each domain).
#: ``txn`` is (transactions, slots, data items): the slot count is fixed so
#: every instance has the same QUBO size (72 and 16 variables).
BATCH_SIZES = {
    "table1-72-tabu": {"mqo": (12, 6), "join": 8, "schema": 8, "txn": (12, 6, 10)},
    "table1-small-sa": {"mqo": (4, 3), "join": 4, "schema": 4, "txn": (4, 4, 6)},
}
BATCH_PER_DOMAIN = 8
MQO_SHARING = 0.4
SEED_RANGE = 2**31

#: Requests come in blocks of :data:`BLOCK` with exact proportions, so every
#: seed sends the same mix: 10 repeats of an earlier (spec, seed) pair (25 %)
#: and 30 fresh requests, 50 % ``mqo``, 30 % ``joinorder``, 20 % ``workload``.
BLOCK = 40
BLOCK_REPEATS = 10
BLOCK_FRESH = (("mqo", 15), ("joinorder", 9), ("workload", 6))
WORKLOAD_INSTANCES = 4  # each generated script compiles to >= 4 instances


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def batch_descriptors(workload: str, seed: int) -> list[dict]:
    """The 32 instance descriptors of one batch workload, in batch order."""
    sizes = BATCH_SIZES[workload]
    rng = _rng(workload, seed)
    queries, plans = sizes["mqo"]
    out = []
    for _ in range(BATCH_PER_DOMAIN):
        out.append({"domain": "mqo", "queries": queries, "plans": plans,
                    "seed": rng.randrange(SEED_RANGE)})
    for i in range(BATCH_PER_DOMAIN):
        out.append({"domain": "join", "relations": sizes["join"],
                    "topology": "chain" if i % 2 == 0 else "star",
                    "seed": rng.randrange(SEED_RANGE)})
    for _ in range(BATCH_PER_DOMAIN):
        out.append({"domain": "schema", "attributes": sizes["schema"],
                    "seed": rng.randrange(SEED_RANGE)})
    transactions, slots, items = sizes["txn"]
    for _ in range(BATCH_PER_DOMAIN):
        out.append({"domain": "txn", "transactions": transactions, "slots": slots,
                    "items": items, "seed": _txn_seed(rng, transactions, slots, items)})
    return out


def _txn_seed(rng: random.Random, transactions: int, slots: int, items: int) -> int:
    """An instance seed whose greedy colouring leaves one of ``slots`` spare.

    A conflict-free schedule then exists with room to move, so the refine
    step can always reach a feasible one.
    """
    from repro.txn.classical import greedy_coloring_schedule
    from repro.txn.generator import generate_transactions

    while True:
        seed = rng.randrange(SEED_RANGE)
        txns = generate_transactions(transactions, num_items=items, rng=seed)
        if max(greedy_coloring_schedule(txns).values()) + 2 <= slots:
            return seed


def batch_item_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Explicit per-item solver seeds for ``solve_many(seeds=...)``."""
    rng = _rng(f"{workload}/solver", seed)
    return [rng.randrange(SEED_RANGE) for _ in range(count)]


def build_problem(desc: dict):
    """A fresh adapter (no cached QUBO) for one batch descriptor."""
    from repro.api import (
        LeftDeepJoinAdapter,
        MQOAdapter,
        SchemaMatchingAdapter,
        TxnScheduleAdapter,
    )
    from repro.db.generator import chain_query, star_query
    from repro.integration.generator import generate_schema_pair
    from repro.mqo.generator import generate_mqo_problem
    from repro.txn.generator import generate_transactions

    domain, seed = desc["domain"], desc["seed"]
    if domain == "mqo":
        return MQOAdapter(generate_mqo_problem(
            desc["queries"], desc["plans"], sharing_density=MQO_SHARING, rng=seed))
    if domain == "join":
        topology = chain_query if desc["topology"] == "chain" else star_query
        return LeftDeepJoinAdapter(topology(desc["relations"], rng=seed))
    if domain == "schema":
        source, target, _ = generate_schema_pair(desc["attributes"], rng=seed)
        return SchemaMatchingAdapter(source, target)
    if domain == "txn":
        txns = generate_transactions(desc["transactions"], num_items=desc["items"], rng=seed)
        return TxnScheduleAdapter(txns, num_slots=desc["slots"])
    raise ValueError(f"unknown domain {domain!r}")


def sql_script(rng: random.Random) -> tuple[str, dict]:
    """A 5-statement script over a 3-table catalog: 3 SELECTs and 2 DML.

    It compiles to three join-ordering instances, one MQO instance over the
    SELECTs and one transaction-scheduling instance over the DML.
    """
    users = rng.randrange(500, 5001)
    orders = rng.randrange(1000, 20001)
    items = rng.randrange(2000, 50001)
    catalog = {"tables": {
        "users": {"cardinality": users,
                  "distinct": {"uid": users, "city": rng.randrange(5, 60)}},
        "orders": {"cardinality": orders,
                   "distinct": {"oid": orders, "uid": rng.randrange(100, users + 1)}},
        "items": {"cardinality": items,
                  "distinct": {"oid": rng.randrange(100, orders + 1),
                               "sku": rng.randrange(20, 400)}},
    }}
    city = f"c{rng.randrange(100)}"
    sku = f"s{rng.randrange(1000)}"
    three_way = ["users u", "orders o", "items i"]
    rng.shuffle(three_way)
    statements = [
        "SELECT * FROM users, orders WHERE users.uid = orders.uid "
        f"AND users.city = '{city}'",
        "SELECT * FROM orders, items WHERE orders.oid = items.oid "
        f"AND items.sku = '{sku}'",
        f"SELECT * FROM {', '.join(three_way)} WHERE u.uid = o.uid AND o.oid = i.oid",
        f"UPDATE users SET city = 'c{rng.randrange(100)}' WHERE uid = {rng.randrange(users)}",
        f"DELETE FROM items WHERE sku = 's{rng.randrange(1000)}'",
    ]
    return ";\n".join(statements), catalog


def _fresh_spec(kind: str, variant: int, rng: random.Random) -> dict:
    """A fresh spec of ``kind``; ``variant`` picks the shape (topology, instance)."""
    if kind == "mqo":
        return {"kind": "mqo", "num_queries": 4, "plans_per_query": 3,
                "sharing_density": MQO_SHARING, "instance_seed": rng.randrange(SEED_RANGE)}
    if kind == "joinorder":
        return {"kind": "joinorder", "topology": ("chain", "star")[variant % 2],
                "num_relations": 5, "instance_seed": rng.randrange(SEED_RANGE),
                "encoding": "leftdeep"}
    script, catalog = sql_script(rng)
    return {"kind": "workload", "script": script, "catalog": catalog,
            "instance": variant % WORKLOAD_INSTANCES}


def service_requests(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` requests ``{"problem", "seed", "repeat"}`` of a run.

    Each block of :data:`BLOCK` requests holds the fresh kinds in shuffled
    order, with the repeats inserted at random later positions — served from
    the result cache, or deduplicated inside a wave.  Within a kind the
    shapes take turns (chain and star joins, each compiled instance of a
    script), so every seed sends the same amount of solver work.
    """
    rng = _rng(workload, seed)
    out: list[dict] = []
    while len(out) < count:
        kinds = [(kind, len(out) // BLOCK * n + i) for kind, n in BLOCK_FRESH for i in range(n)]
        rng.shuffle(kinds)
        block = [{"problem": _fresh_spec(kind, variant, rng), "seed": rng.randrange(SEED_RANGE),
                  "repeat": False} for kind, variant in kinds]
        for _ in range(BLOCK_REPEATS):
            pos = rng.randrange(1, len(block) + 1)
            earlier = (out + block[:pos])[rng.randrange(len(out) + pos)]
            block.insert(pos, {"problem": earlier["problem"], "seed": earlier["seed"],
                               "repeat": True})
        out += block
    return out[:count]

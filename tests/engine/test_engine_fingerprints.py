"""Golden QUBO fingerprints: one pinned canonical instance per Table I domain.

`QuboModel.fingerprint()` content-addresses the `ResultCache`: every cached
result is keyed on it, and the durable store's result tier persists those
keys across sessions.  A change to canonical serialization (`to_stable_bytes`), to
variable-label `repr`s, or to any domain's QUBO formulation therefore
silently invalidates every existing cache entry — these goldens turn that
silent invalidation into a loud test failure.

If a failure here is *intentional* (you changed a formulation or the
serialization format on purpose), regenerate the constants below and say so
in the commit message — downstream users must know their caches reset.
Conventions are documented in docs/testing.md.
"""

import pytest

from repro.api import (
    BushyJoinAdapter,
    LeftDeepJoinAdapter,
    MQOAdapter,
    SchemaMatchingAdapter,
    TxnScheduleAdapter,
)
from repro.db.generator import chain_query
from repro.integration.generator import generate_schema_pair
from repro.mqo import generate_mqo_problem
from repro.txn.generator import generate_transactions

#: domain -> (pinned SHA-256 fingerprint, expected num_variables).
#: The variable count is pinned too so a failure distinguishes "formulation
#: grew/shrank" from "same structure, different serialization".
GOLDEN = {
    "mqo": ("b00f5e863ae01a4e0187594d033aeb3fb2ff758887f74987307fcf3fec324b82", 6),
    "joinorder_leftdeep": ("f9437c280b5362424c04cbe9100529591523ece9069677b7b66b327c46248c5e", 16),
    "joinorder_bushy": ("a668e2d1cd5fd678b9dd6ee7108a5679b37300063d1d562a4e38d6ef69abc38d", 9),
    "schema_matching": ("f62362c317ddff2fff7b24856688efe2d3f651791840689bb61606ced0c6090d", 11),
    "txn_schedule": ("6e3af81b44c368b4efdfe7d119bfed3be59480997d8db2d1750ebda510f385cf", 16),
}


def _canonical_adapters():
    """The frozen generator calls. Do not re-roll seeds or sizes casually:
    the pinned hexes above encode exactly these instances."""
    source, target, _ = generate_schema_pair(5, rng=7)
    return {
        "mqo": MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=7)),
        "joinorder_leftdeep": LeftDeepJoinAdapter(chain_query(4, rng=7)),
        "joinorder_bushy": BushyJoinAdapter(chain_query(4, rng=7)),
        "schema_matching": SchemaMatchingAdapter(source, target),
        "txn_schedule": TxnScheduleAdapter(generate_transactions(4, rng=7)),
    }


@pytest.mark.parametrize("domain", sorted(GOLDEN))
def test_golden_fingerprint(domain):
    adapter = _canonical_adapters()[domain]
    model = adapter.to_qubo()
    expected_fp, expected_vars = GOLDEN[domain]
    assert model.num_variables == expected_vars, (
        f"{domain}: formulation size changed ({model.num_variables} vars, "
        f"expected {expected_vars}) — the QUBO encoding itself moved"
    )
    assert model.fingerprint() == expected_fp, (
        f"{domain}: canonical fingerprint drifted — every existing "
        f"ResultCache entry for this domain is now unreachable. If the "
        f"change is intentional, regenerate tests/engine/"
        f"test_engine_fingerprints.py and flag the cache reset."
    )


@pytest.mark.parametrize("domain", sorted(GOLDEN))
def test_rebuild_matches_cached_formulation(domain):
    """`build_qubo` (fresh) and `to_qubo` (cached) must agree — a divergence
    would mean cache keys depend on adapter call history."""
    adapter = _canonical_adapters()[domain]
    assert adapter.build_qubo().fingerprint() == adapter.to_qubo().fingerprint()


def test_fingerprint_distinguishes_all_domains():
    """No two canonical instances may collide (sanity on the pinned table)."""
    fingerprints = [fp for fp, _ in GOLDEN.values()]
    assert len(set(fingerprints)) == len(fingerprints)

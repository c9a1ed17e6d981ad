"""E15: distributed quantum data management (Sec. IV-B opportunities).

Shapes: GHZ-assisted commit removes blocking at a bounded divergence cost;
quantum availability without recipes equals single-node availability;
teleport-based data movement degrades payload fidelity with path length
and purification buys it back.
"""

import numpy as np
import pytest

from repro.dqdm import (
    DistributedQuantumStore,
    GhzAssistedCommit,
    QuantumDataItem,
    TwoPhaseCommit,
    availability_classical,
    simulate_availability,
)
from repro.qnet import EntanglementLink, QuantumNetwork
from repro.quantum.state import Statevector


def test_e15_commit_blocking_vs_divergence():
    def kernel():
        rows = []
        for crash in (0.0, 0.1, 0.25):
            tpc = TwoPhaseCommit(5, crash_prob=crash).run(1500, rng=1)
            ghz = GhzAssistedCommit(5, crash_prob=crash).run(1500, rng=2)
            rows.append((crash, tpc.blocking_rate, ghz.blocking_rate, ghz.divergence_rate))
        return rows

    rows = kernel()
    for crash, tpc_block, ghz_block, ghz_div in rows:
        assert ghz_block == 0.0  # GHZ termination never blocks
        assert tpc_block == pytest.approx(crash, abs=0.05)  # 2PC blocks on crashes
        assert ghz_div <= crash + 0.02  # divergence only in crash rounds
    assert rows[-1][1] > rows[0][1]


def test_e15_availability_gap():
    report = simulate_availability(0.9, num_replicas=3, trials=10000, rng=3)
    assert report.classical_availability == pytest.approx(availability_classical(0.9, 3), abs=0.01)
    assert report.quantum_without_recipe == pytest.approx(0.9, abs=0.02)
    assert report.classical_availability > report.quantum_without_recipe


def test_e15_store_movement_fidelity():
    def kernel():
        fidelities = []
        for hops in (1, 3, 5):
            net = QuantumNetwork.chain(hops + 1, EntanglementLink(success_prob=0.8, base_fidelity=0.96))
            store = DistributedQuantumStore(net)
            item = QuantumDataItem("q", Statevector([1, 1j]))
            store.put_quantum("n0", item)
            receipt = store.move_quantum("q", f"n{hops}", rng=hops)
            fidelities.append(receipt.payload_fidelity)
        return fidelities

    fidelities = kernel()
    assert fidelities[0] > fidelities[1] > fidelities[2]


def test_e15_purified_movement_beats_plain():
    def kernel():
        results = []
        for min_f in (None, 0.95):
            net = QuantumNetwork.chain(5, EntanglementLink(success_prob=0.8, base_fidelity=0.95))
            store = DistributedQuantumStore(net)
            store.put_quantum("n0", QuantumDataItem("q", Statevector([1, 1j])))
            receipt = store.move_quantum("q", "n4", rng=9, min_pair_fidelity=min_f)
            results.append((receipt.payload_fidelity, receipt.pairs_consumed))
        return results

    (plain_f, plain_pairs), (pure_f, pure_pairs) = kernel()
    assert pure_f > plain_f  # purification buys fidelity...
    assert pure_pairs > plain_pairs  # ...at entanglement cost

"""E3 / E4 / E14: the paper's worked examples.

* E3 — Example II.1: ``(|0> + |1>)/sqrt(2)`` measures 0/1 with p = 1/2.
* E4 — Example IV.1 + Fig. 1(c): Bell pairs, teleportation, repeater chains.
* E14 — Sec. IV-B.1: no-cloning; the universal cloner stops at 5/6.
"""

import math

import numpy as np
import pytest

from repro.qnet import EntanglementLink, QuantumNetwork, UniversalCloner, teleport
from repro.qnet.repeater import chain_fidelity
from repro.quantum.bell import bell_state
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import StatevectorSimulator
from repro.quantum.state import Statevector


def test_e3_superposition_measurement():
    """Example II.1: equal superposition measures 50/50."""
    sim = StatevectorSimulator()
    qc = QuantumCircuit(1).h(0)

    counts = sim.sample(qc, 4096, rng=7)
    p0 = counts["0"] / 4096
    assert p0 == pytest.approx(0.5, abs=0.03)


def test_e4_bell_state_correlations():
    """Example IV.1: both halves of |Phi+> always agree."""

    def kernel():
        rng = np.random.default_rng(3)
        outcomes = [bell_state("phi+").measure(rng=rng)[0] for _ in range(64)]
        return outcomes

    outcomes = kernel()
    assert all(a == b for a, b in outcomes)


def test_e4_teleportation_exact():
    """Fig. 1(c): teleportation via a perfect pair is exact."""
    gen = np.random.default_rng(0)
    msg = Statevector(gen.normal(size=2) + 1j * gen.normal(size=2))

    result = teleport(msg, rng=1)
    assert result.fidelity == pytest.approx(1.0)


def test_e4_repeater_chain_fidelity_decay():
    """Fig. 1(c): end-to-end fidelity decays geometrically with hops."""

    fidelities = [chain_fidelity([0.96] * hops) for hops in range(1, 9)]
    assert all(a > b for a, b in zip(fidelities, fidelities[1:]))
    # Werner-parameter geometric decay: log-linear within numerical noise.
    ws = [(4 * f - 1) / 3 for f in fidelities]
    ratios = [ws[i + 1] / ws[i] for i in range(len(ws) - 1)]
    assert np.std(ratios) < 1e-9


def test_e4_network_distribution():
    """Distribution over a 5-node chain with purification to 0.9."""
    net = QuantumNetwork.chain(5, EntanglementLink(success_prob=0.6, base_fidelity=0.95))

    result = net.distribute("n0", "n4", rng=5, min_fidelity=0.9)
    assert result.fidelity >= 0.9
    assert result.swaps == 3


def test_e14_universal_cloner_five_sixths():
    """No-cloning: the optimal copier reaches exactly 5/6 per copy."""
    gen = np.random.default_rng(5)
    states = [Statevector(gen.normal(size=2) + 1j * gen.normal(size=2)) for _ in range(16)]
    cloner = UniversalCloner()

    fidelities = [cloner.copy_fidelity(s) for s in states]
    assert np.allclose(fidelities, 5.0 / 6.0)

"""E2: Figure 2 — every roadmap backend solves the same QUBO.

One MQO instance runs through SA, SQA, tabu, the embedded annealer device,
QAOA, VQE and Grover minimum finding; all must reach the exhaustive
optimum on this small instance.
"""

import numpy as np
import pytest

from repro.algorithms.grover import durr_hoyer_minimum
from repro.algorithms.qaoa import QAOA
from repro.algorithms.vqe import VQE
from repro.annealing import AnnealerDevice, SimulatedAnnealingSolver, SimulatedQuantumAnnealingSolver
from repro.mqo import exhaustive_mqo, generate_mqo_problem
from repro.mqo.qubo import decode_sample, mqo_to_qubo
from repro.qubo.bruteforce import BruteForceSolver
from repro.qubo.tabu import TabuSolver

PROBLEM = generate_mqo_problem(3, 2, sharing_density=0.5, rng=7)
MODEL = mqo_to_qubo(PROBLEM)
_, OPTIMUM = exhaustive_mqo(PROBLEM)


def _cost(bits) -> float:
    return PROBLEM.total_cost(decode_sample(PROBLEM, MODEL, bits))


def test_e2_simulated_annealing():
    samples = SimulatedAnnealingSolver(num_reads=16, num_sweeps=200).solve(MODEL, rng=1)
    assert _cost(samples.best.bits) == pytest.approx(OPTIMUM)


def test_e2_simulated_quantum_annealing():
    samples = SimulatedQuantumAnnealingSolver(num_reads=8, num_sweeps=128).solve(MODEL, rng=2)
    assert _cost(samples.best.bits) == pytest.approx(OPTIMUM)


def test_e2_tabu():
    samples = TabuSolver().solve(MODEL, rng=3)
    assert _cost(samples.best.bits) == pytest.approx(OPTIMUM)


def test_e2_embedded_annealer_device():
    device = AnnealerDevice(sampler="sa", num_reads=16, num_sweeps=200)
    samples = device.sample(MODEL, rng=4)
    assert _cost(samples.best.bits) == pytest.approx(OPTIMUM)


def test_e2_qaoa():
    qaoa = QAOA.from_qubo(MODEL, num_layers=3)
    result = qaoa.run(maxiter=120, restarts=2, rng=5)
    assert _cost(result.best_bits) == pytest.approx(OPTIMUM)


def test_e2_vqe():
    vqe = VQE.from_qubo(MODEL, num_layers=2)
    result = vqe.run(maxiter=250, restarts=3, rng=6)
    assert _cost(result.best_bits) == pytest.approx(OPTIMUM)


def test_e2_grover_minimum_finding():
    energies = MODEL.energies(BruteForceSolver._all_assignments(MODEL.num_variables))

    idx, calls = durr_hoyer_minimum(energies, rng=7)
    bits = [int(b) for b in np.binary_repr(idx, MODEL.num_variables)]
    assert _cost(bits) == pytest.approx(OPTIMUM)
    assert calls < len(energies)

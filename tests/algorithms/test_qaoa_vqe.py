"""Tests for QAOA and VQE on QUBO ground-state problems."""

import numpy as np
import pytest

from repro.algorithms.qaoa import QAOA
from repro.algorithms.vqe import VQE, hardware_efficient_ansatz
from repro.exceptions import ReproError
from repro.quantum.pauli import IsingHamiltonian, PauliString, PauliSum
from repro.qubo.bruteforce import BruteForceSolver
from repro.qubo.model import QuboModel


def _random_qubo(seed, n=5):
    rng = np.random.default_rng(seed)
    m = QuboModel(n)
    for i in range(n):
        m.add_linear(i, float(rng.normal()))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                m.add_quadratic(i, j, float(rng.normal()))
    return m


class TestQAOACircuit:
    def test_parameter_count(self):
        q = QAOA(IsingHamiltonian(3, linear={0: 1.0}), num_layers=4)
        assert q.num_parameters == 8

    def test_rejects_zero_layers(self):
        with pytest.raises(ReproError):
            QAOA(IsingHamiltonian(2), num_layers=0)

    def test_rejects_wrong_param_count(self):
        q = QAOA(IsingHamiltonian(2, linear={0: 1.0}), num_layers=1)
        with pytest.raises(ReproError):
            q.circuit(np.zeros(5))

    def test_circuit_structure(self):
        ham = IsingHamiltonian(3, linear={0: 1.0}, quadratic={(0, 1): -0.5})
        q = QAOA(ham, num_layers=2)
        qc = q.circuit(np.array([0.1, 0.2, 0.3, 0.4]))
        ops = qc.count_ops()
        assert ops["h"] == 3
        assert ops["rz"] == 2  # one linear term x two layers
        assert ops["rzz"] == 2
        assert ops["rx"] == 6

    def test_zero_angles_give_uniform_expectation(self):
        ham = IsingHamiltonian(3, linear={1: 1.0})
        q = QAOA(ham, num_layers=1)
        # gamma=beta=0: the state stays uniform, <Z> = 0.
        assert q.expectation(np.zeros(2)) == pytest.approx(np.mean(ham.energies()))


class TestQAOASolving:
    @pytest.mark.parametrize("seed", range(3))
    def test_reaches_optimum_small(self, seed):
        m = _random_qubo(seed, n=4)
        exact = BruteForceSolver().solve(m).best_energy()
        result = QAOA.from_qubo(m, num_layers=3).run(maxiter=120, restarts=2, rng=seed, shots=256)
        assert result.best_energy == pytest.approx(exact, abs=1e-9)

    def test_expectation_above_ground(self):
        m = _random_qubo(7, n=4)
        exact = BruteForceSolver().solve(m).best_energy()
        result = QAOA.from_qubo(m, num_layers=2).run(maxiter=80, rng=0)
        assert result.expectation >= exact - 1e-9

    def test_deeper_is_no_worse(self):
        m = _random_qubo(11, n=4)
        shallow = QAOA.from_qubo(m, num_layers=1).optimize(maxiter=120, restarts=3, rng=0).value
        deep = QAOA.from_qubo(m, num_layers=3).optimize(maxiter=120, restarts=3, rng=0).value
        assert deep <= shallow + 0.15

    def test_spsa_optimizer_path(self):
        m = _random_qubo(2, n=3)
        result = QAOA.from_qubo(m, num_layers=2).run(optimizer="spsa", maxiter=120, rng=4, shots=256)
        exact = BruteForceSolver().solve(m).best_energy()
        assert result.best_energy == pytest.approx(exact, abs=1e-9)

    def test_samples_report_true_energy(self):
        m = _random_qubo(3, n=3)
        q = QAOA.from_qubo(m, num_layers=1)
        samples = q.sample(np.array([0.2, 0.3]), shots=128, rng=0)
        for s in samples:
            assert s.energy == pytest.approx(m.energy(np.array(s.bits)))


class TestAnsatz:
    def test_param_count_enforced(self):
        with pytest.raises(ReproError):
            hardware_efficient_ansatz(3, 2, np.zeros(5))

    def test_ansatz_runs(self):
        qc = hardware_efficient_ansatz(3, 2, np.zeros(9))
        assert qc.num_qubits == 3
        assert qc.count_ops()["ry"] == 9

    def test_zero_params_give_zero_state(self):
        from repro.quantum.simulator import StatevectorSimulator

        qc = hardware_efficient_ansatz(2, 1, np.zeros(4))
        state = StatevectorSimulator().run(qc)
        assert state.probability("00") == pytest.approx(1.0)


class TestVQE:
    @pytest.mark.parametrize("seed", range(3))
    def test_reaches_optimum_small(self, seed):
        # VQE with COBYLA is restart-sensitive; 4 restarts suffice at n=4.
        m = _random_qubo(seed + 20, n=4)
        exact = BruteForceSolver().solve(m).best_energy()
        result = VQE.from_qubo(m, num_layers=2).run(maxiter=300, restarts=4, rng=seed, shots=256)
        assert result.best_energy == pytest.approx(exact, abs=1e-9)

    def test_energy_above_ground(self):
        m = _random_qubo(30, n=4)
        exact = BruteForceSolver().solve(m).best_energy()
        result = VQE.from_qubo(m, num_layers=2).run(maxiter=200, rng=1)
        assert result.energy >= exact - 1e-9

    def test_general_pauli_sum(self):
        # Ground state of -X is |+> with energy -1.
        ham = PauliSum([PauliString("X", -1.0)])
        vqe = VQE(ham, num_layers=1)
        opt = vqe.optimize(maxiter=200, restarts=3, rng=0)
        assert opt.value == pytest.approx(-1.0, abs=1e-4)

    def test_cobyla_maxiter_below_parameters_plus_two_is_refused(self):
        # 4 qubits x (1 + 1) layers = 8 parameters: COBYLA needs maxiter >= 10.
        vqe = VQE.from_qubo(_random_qubo(31, n=4), num_layers=1)
        with pytest.raises(ReproError, match="maxiter >= 10"):
            vqe.optimize(maxiter=9, restarts=1, rng=0)
        assert vqe.optimize(maxiter=10, restarts=1, rng=0).evaluations <= 10

    def test_sampling_requires_diagonal(self):
        ham = PauliSum([PauliString("X", -1.0)])
        vqe = VQE(ham, num_layers=1)
        with pytest.raises(ReproError):
            vqe.sample(np.zeros(vqe.num_parameters), shots=16, rng=0)

    def test_rejects_zero_layers(self):
        with pytest.raises(ReproError):
            VQE(IsingHamiltonian(2), num_layers=0)

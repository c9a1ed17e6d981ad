"""Variational quantum eigensolver.

VQE appears in Table I via Nayak et al. [26] (bushy join trees) and in the
Fig. 2 roadmap.  For the diagonal Ising Hamiltonians of QUBO problems a
real-amplitude RY ansatz with a CZ entangling ring suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.optimizers import OptimizerResult, SPSAOptimizer, scipy_minimize
from repro.exceptions import ReproError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.pauli import IsingHamiltonian, PauliSum
from repro.quantum.simulator import StatevectorSimulator
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.bits import indices_to_bit_rows
from repro.utils.rngtools import ensure_rng


def hardware_efficient_ansatz(num_qubits: int, num_layers: int, params: np.ndarray) -> QuantumCircuit:
    """Real-amplitudes ansatz: RY layers with CZ entangling rings.

    Needs ``num_qubits * (num_layers + 1)`` parameters.
    """
    params = np.asarray(params, dtype=float)
    expected = num_qubits * (num_layers + 1)
    if params.size != expected:
        raise ReproError(f"ansatz expects {expected} parameters, got {params.size}")
    qc = QuantumCircuit(num_qubits, name=f"he_ansatz_l{num_layers}")
    k = 0
    for _ in range(num_layers):
        for q in range(num_qubits):
            qc.ry(params[k], q)
            k += 1
        for q in range(num_qubits - 1):
            qc.cz(q, q + 1)
        if num_qubits > 2:
            qc.cz(num_qubits - 1, 0)
    for q in range(num_qubits):
        qc.ry(params[k], q)
        k += 1
    return qc


@dataclass
class VQEResult:
    """Optimised ansatz parameters plus sampled solutions."""

    params: np.ndarray
    energy: float
    samples: SampleSet
    history: list[float] = field(default_factory=list)
    optimizer_evaluations: int = 0

    @property
    def best_bits(self) -> tuple[int, ...]:
        return self.samples.best.bits

    @property
    def best_energy(self) -> float:
        return self.samples.best.energy


class VQE:
    """VQE over a diagonal Ising Hamiltonian (or any PauliSum)."""

    def __init__(
        self,
        hamiltonian: "IsingHamiltonian | PauliSum",
        num_layers: int = 2,
        simulator: "StatevectorSimulator | None" = None,
    ):
        if num_layers < 1:
            raise ReproError("VQE needs at least one ansatz layer")
        self.hamiltonian = hamiltonian
        self.num_layers = num_layers
        self.num_qubits = hamiltonian.num_qubits
        self.simulator = simulator or StatevectorSimulator()
        if isinstance(hamiltonian, IsingHamiltonian):
            self._diagonal = hamiltonian.energies()
        elif hamiltonian.is_diagonal():
            self._diagonal = hamiltonian.diagonal()
        else:
            self._diagonal = None
            self._matrix = hamiltonian.matrix()

    @classmethod
    def from_qubo(cls, model: QuboModel, num_layers: int = 2) -> "VQE":
        return cls(model.to_ising(), num_layers=num_layers)

    @property
    def num_parameters(self) -> int:
        return self.num_qubits * (self.num_layers + 1)

    def ansatz(self, params: np.ndarray) -> QuantumCircuit:
        return hardware_efficient_ansatz(self.num_qubits, self.num_layers, params)

    def expectation(self, params: np.ndarray) -> float:
        state = self.simulator.run(self.ansatz(params))
        if self._diagonal is not None:
            return state.expectation_diagonal(self._diagonal)
        return float(np.real(state.expectation_matrix(self._matrix)))

    def optimize(
        self,
        optimizer: str = "COBYLA",
        maxiter: int = 300,
        restarts: int = 2,
        rng=None,
    ) -> OptimizerResult:
        rng = ensure_rng(rng)
        best: "OptimizerResult | None" = None
        for _ in range(restarts):
            x0 = rng.uniform(-np.pi / 4, np.pi / 4, size=self.num_parameters)
            if optimizer.lower() == "spsa":
                result = SPSAOptimizer(maxiter=maxiter).minimize(self.expectation, x0, rng=rng)
            else:
                result = scipy_minimize(self.expectation, x0, method=optimizer, maxiter=maxiter)
            if best is None or result.value < best.value:
                best = result
        assert best is not None
        return best

    def sample(self, params: np.ndarray, shots: int = 512, rng=None) -> SampleSet:
        rng = ensure_rng(rng)
        state = self.simulator.run(self.ansatz(params))
        counts = state.sample_counts(shots, rng=rng)
        if self._diagonal is None:
            raise ReproError("sampling assignments requires a diagonal Hamiltonian")
        idx = np.array([int(bitstring, 2) for bitstring in counts], dtype=np.int64)
        return SampleSet(indices_to_bit_rows(idx, self.num_qubits), self._diagonal[idx],
                         list(counts.values()), info={"solver": "vqe", "shots": shots})

    def run(
        self,
        optimizer: str = "COBYLA",
        maxiter: int = 300,
        restarts: int = 2,
        shots: int = 512,
        rng=None,
    ) -> VQEResult:
        rng = ensure_rng(rng)
        opt = self.optimize(optimizer=optimizer, maxiter=maxiter, restarts=restarts, rng=rng)
        samples = self.sample(opt.params, shots=shots, rng=rng)
        return VQEResult(
            params=opt.params,
            energy=opt.value,
            samples=samples,
            history=opt.history,
            optimizer_evaluations=opt.evaluations,
        )

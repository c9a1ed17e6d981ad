"""Quantum Approximate Optimization Algorithm (Farhi et al. [54]).

QAOA is the workhorse of the gate-based Table I entries: MQO [21], [22],
join ordering [23]-[26] and schema matching [28] all run their QUBOs through
it.  The implementation targets diagonal Ising cost Hamiltonians produced by
:func:`repro.qubo.ising.qubo_to_ising`, computes exact expectations from the
final statevector, and samples assignments at the optimised angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.optimizers import OptimizerResult, SPSAOptimizer, scipy_minimize
from repro.exceptions import ReproError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.pauli import IsingHamiltonian
from repro.quantum.simulator import StatevectorSimulator
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.bits import indices_to_bit_rows
from repro.utils.rngtools import ensure_rng


@dataclass
class QAOAResult:
    """Optimised angles plus the sampled solutions."""

    params: np.ndarray
    expectation: float
    samples: SampleSet
    history: list[float] = field(default_factory=list)
    num_layers: int = 1
    optimizer_evaluations: int = 0

    @property
    def best_bits(self) -> tuple[int, ...]:
        return self.samples.best.bits

    @property
    def best_energy(self) -> float:
        return self.samples.best.energy


class QAOA:
    """Depth-``p`` QAOA on a diagonal cost Hamiltonian."""

    def __init__(
        self,
        hamiltonian: IsingHamiltonian,
        num_layers: int = 2,
        simulator: "StatevectorSimulator | None" = None,
    ):
        if num_layers < 1:
            raise ReproError("QAOA needs at least one layer")
        self.hamiltonian = hamiltonian
        self.num_layers = num_layers
        self.num_qubits = hamiltonian.num_qubits
        self.simulator = simulator or StatevectorSimulator()
        self._energies = hamiltonian.energies()

    @classmethod
    def from_qubo(cls, model: QuboModel, num_layers: int = 2) -> "QAOA":
        """QAOA instance whose qubit ``j`` is QUBO variable ``j``."""
        return cls(model.to_ising(), num_layers=num_layers)

    @property
    def num_parameters(self) -> int:
        """``2p``: one gamma and one beta per layer."""
        return 2 * self.num_layers

    def circuit(self, params: np.ndarray) -> QuantumCircuit:
        """The QAOA ansatz at the given ``(gammas..., betas...)`` angles."""
        params = np.asarray(params, dtype=float)
        if params.size != self.num_parameters:
            raise ReproError(f"expected {self.num_parameters} parameters, got {params.size}")
        gammas = params[: self.num_layers]
        betas = params[self.num_layers :]
        qc = QuantumCircuit(self.num_qubits, name=f"qaoa_p{self.num_layers}")
        qc.h_all()
        for gamma, beta in zip(gammas, betas):
            for i, h in self.hamiltonian.linear.items():
                if h:
                    qc.rz(2.0 * gamma * h, i)
            for (i, j), jij in self.hamiltonian.quadratic.items():
                if jij:
                    qc.rzz(2.0 * gamma * jij, i, j)
            for q in range(self.num_qubits):
                qc.rx(2.0 * beta, q)
        return qc

    def expectation(self, params: np.ndarray) -> float:
        """Exact ``<H>`` in the ansatz state (offset included)."""
        state = self.simulator.run(self.circuit(params))
        return state.expectation_diagonal(self._energies)

    def optimize(
        self,
        optimizer: str = "COBYLA",
        maxiter: int = 150,
        restarts: int = 2,
        rng=None,
        initial_params: "np.ndarray | None" = None,
    ) -> OptimizerResult:
        """Tune the angles; returns the best restart's result."""
        rng = ensure_rng(rng)
        best: "OptimizerResult | None" = None
        for r in range(restarts):
            if initial_params is not None and r == 0:
                x0 = np.asarray(initial_params, dtype=float)
            else:
                x0 = rng.uniform(0.05, 0.6, size=self.num_parameters)
            if optimizer.lower() == "spsa":
                result = SPSAOptimizer(maxiter=maxiter).minimize(self.expectation, x0, rng=rng)
            else:
                result = scipy_minimize(self.expectation, x0, method=optimizer, maxiter=maxiter)
            if best is None or result.value < best.value:
                best = result
        assert best is not None
        return best

    def sample(self, params: np.ndarray, shots: int = 512, rng=None) -> SampleSet:
        """Measure the ansatz state ``shots`` times; energies are exact."""
        rng = ensure_rng(rng)
        state = self.simulator.run(self.circuit(params))
        counts = state.sample_counts(shots, rng=rng)
        idx = np.array([int(bitstring, 2) for bitstring in counts], dtype=np.int64)
        return SampleSet(indices_to_bit_rows(idx, self.num_qubits), self._energies[idx],
                         list(counts.values()), info={"solver": "qaoa", "shots": shots})

    def run(
        self,
        optimizer: str = "COBYLA",
        maxiter: int = 150,
        restarts: int = 2,
        shots: int = 512,
        rng=None,
    ) -> QAOAResult:
        """Optimise angles, then sample solutions at the optimum."""
        rng = ensure_rng(rng)
        opt = self.optimize(optimizer=optimizer, maxiter=maxiter, restarts=restarts, rng=rng)
        samples = self.sample(opt.params, shots=shots, rng=rng)
        return QAOAResult(
            params=opt.params,
            expectation=opt.value,
            samples=samples,
            history=opt.history,
            num_layers=self.num_layers,
            optimizer_evaluations=opt.evaluations,
        )

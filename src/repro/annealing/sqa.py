"""Simulated quantum annealing (path-integral Monte Carlo).

Approximates a transverse-field quantum annealer — the physics of the
D-Wave machines used by [20], [23]-[26], [29], [30] — via the standard
Suzuki-Trotter mapping: the quantum system at inverse temperature ``beta``
with transverse field ``Gamma`` maps to ``P`` coupled classical replicas
("Trotter slices") with a ferromagnetic inter-slice coupling

    J_perp = -(1 / (2 beta)) * ln(tanh(beta * Gamma / P))

The anneal ramps ``Gamma`` down (quantum fluctuations -> 0) while the
problem couplings act at full strength.
"""

from __future__ import annotations

import math

import numpy as np

from repro.annealing.schedule import linear_schedule
from repro.exceptions import ReproError
from repro.qubo.ising import qubo_to_ising
from repro.qubo.lockstep import coupling_table, padded_linear
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng


def _greedy_quench(rows: np.ndarray, owner: np.ndarray, couplings: list) -> np.ndarray:
    """Steepest-descent single-flip quench of each row to a local minimum.

    Row ``r`` belongs to the model whose ``symmetric_couplings()`` are
    ``couplings[owner[r]]``; models may differ in size, and a row of a
    smaller model is padded with zero bits that are never move candidates.
    Every row still descending takes its move in the same step (lock-step);
    a row leaves the batch at its local minimum.  ``S`` is exactly
    symmetric, so its row ``i`` stands in for column ``i``.

    The physical annealer's final read-out happens deep in the classical
    regime; this quench plays that role after the Trotter dynamics stop.
    """
    X = np.array(rows, dtype=int)
    R, N = X.shape
    offsets, linear, signed = coupling_table(couplings, N)
    M = offsets[-1]
    fields = np.zeros(X.shape)
    for r in range(R):
        a, S = couplings[owner[r]]
        fields[r, :a.size] = S @ X[r, :a.size]
    # A padded column's delta is +inf: never the row's argmin move.
    linear = padded_linear(linear, offsets, owner, N)
    row_base = offsets[owner]
    spins = 1.0 - 2.0 * X  # +-1.0; padding stays +1
    z = spins.reshape(-1)
    live = np.arange(R if N else 0)  # an empty model has no move to take
    while live.size:
        deltas = linear.take(live, axis=0)
        deltas += fields.take(live, axis=0)
        deltas *= spins.take(live, axis=0)
        i = deltas.argmin(axis=1)
        down = deltas.reshape(-1).take(np.arange(live.size) * N + i) < -1e-12
        live, i = live[down], i[down]
        at = live * N + i
        sg = z.take(at)
        z[at] = -sg
        fields[live] += signed.take(row_base[live] + i + M * (sg < 0), axis=0)
    return (spins < 0).astype(int)


class SimulatedQuantumAnnealingSolver:
    """Path-integral Monte Carlo QUBO sampler.

    Args:
        num_reads: Independent annealing trajectories.
        num_sweeps: Monte Carlo sweeps (one sweep = every spin in every slice).
        num_slices: Trotter slices ``P``.
        beta: Inverse temperature of the simulated quantum system.
        gamma_schedule: Transverse-field ladder; defaults to a linear ramp
            from 3.0 to 0.05 (in units of the coefficient scale).
    """

    def __init__(
        self,
        num_reads: int = 16,
        num_sweeps: int = 128,
        num_slices: int = 8,
        beta: float = 2.0,
        gamma_schedule: "np.ndarray | None" = None,
    ):
        if num_slices < 2:
            raise ReproError("SQA needs at least 2 Trotter slices")
        self.num_reads = num_reads
        self.num_sweeps = num_sweeps
        self.num_slices = num_slices
        self.beta = beta
        self.gamma_schedule = gamma_schedule

    def solve(self, model: QuboModel, rng=None) -> SampleSet:
        rng = ensure_rng(rng)
        ham = qubo_to_ising(model)
        n = model.num_variables
        scale = max(model.max_abs_coefficient(), 1e-9)
        gammas = self.gamma_schedule
        if gammas is None:
            gammas = linear_schedule(3.0 * scale, 0.05 * scale, self.num_sweeps)
        elif len(gammas) != self.num_sweeps:
            gammas = np.interp(
                np.linspace(0, 1, self.num_sweeps), np.linspace(0, 1, len(gammas)), gammas
            )

        h = np.zeros(n)
        for i, v in ham.linear.items():
            h[i] = v
        J = np.zeros((n, n))
        for (i, j), v in ham.quadratic.items():
            J[i, j] = v
            J[j, i] = v

        P, R = self.num_slices, self.num_reads
        beta_slice = self.beta / P
        # spins[r, p, i] in {-1, +1}
        spins = rng.choice([-1, 1], size=(R, P, n))
        fields = np.einsum("rpi,ij->rpj", spins, J)

        for gamma in gammas:
            arg = self.beta * gamma / P
            j_perp = -0.5 / self.beta * math.log(max(math.tanh(max(arg, 1e-12)), 1e-300))
            order = rng.permutation(n)
            uniforms = rng.random((R, P, n))
            for i in order:
                for p in range(P):
                    up, down = (p + 1) % P, (p - 1) % P
                    s = spins[:, p, i]
                    # Flipping s -> -s changes the problem energy by
                    # -2 s (h_i + field_i); the 1/P weights each slice.
                    d_problem = -2.0 * s * (h[i] + fields[:, p, i]) / P
                    d_perp = 2.0 * j_perp * s * (spins[:, up, i] + spins[:, down, i])
                    delta = d_problem + d_perp
                    accept = (delta <= 0) | (
                        uniforms[:, p, i] < np.exp(-self.beta * np.clip(delta, 0, 700))
                    )
                    if not accept.any():
                        continue
                    spins[accept, p, i] *= -1
                    fields[accept, p] += np.outer(2.0 * spins[accept, p, i], J[i])

        # Evaluate every slice of every read against the true QUBO and keep
        # each read's best slice.
        X = ((1 - spins) // 2).reshape(R * P, n)
        energies = model.energies(X)
        per_read = energies.reshape(R, P)
        best_slice = per_read.argmin(axis=1)
        rows = X.reshape(R, P, n)[np.arange(R), best_slice]
        rows = _greedy_quench(rows, np.zeros(R, dtype=int), [model.symmetric_couplings()])
        best_energies = model.energies(rows)
        return SampleSet(
            rows,
            best_energies,
            info={
                "solver": "simulated_quantum_annealing",
                "reads": R,
                "slices": P,
                "sweeps": self.num_sweeps,
            },
        )

"""Tabu search over QUBO assignments.

A deterministic-neighbourhood local search with a recency-based tabu list —
the classical heuristic baseline the annealing solvers are compared against
(and a fallback solver for QUBOs too large to embed).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.qubo.model import QuboModel, size_classes
from repro.qubo.sampleset import Sample, SampleSet
from repro.utils.rngtools import ensure_rng


class TabuSolver:
    """Multi-restart single-flip tabu search.

    Every restart of every job advances in lock-step: one move per row per
    iteration, in one set of numpy calls over all rows.  A row with no
    admissible move stops while the others go on.
    """

    def __init__(self, num_restarts: int = 8, max_iterations: int = 500, tenure: "int | None" = None):
        self.num_restarts = num_restarts
        self.max_iterations = max_iterations
        self.tenure = tenure

    def solve(self, model: QuboModel, rng=None) -> SampleSet:
        """Search one ``model``: the one-job call of :meth:`run`."""
        return self.run([(model, rng)])[0]

    def run(self, jobs: Sequence) -> list[SampleSet]:
        """Search every ``(model, rng)`` job; one sample set per job, in order."""
        out: list = [None] * len(jobs)
        for group in size_classes([model for model, _ in jobs]):
            for k, samples in zip(group, self._lockstep([jobs[k] for k in group])):
                out[k] = samples
        return out

    def _lockstep(self, jobs: Sequence) -> list[SampleSet]:
        """The kernel: all restarts of same-size jobs, row ``j * restarts + k``."""
        models = [model for model, _ in jobs]
        n, restarts = models[0].num_variables, self.num_restarts
        couplings = [model.symmetric_couplings() for model in models]
        tenure = self.tenure if self.tenure is not None else max(4, n // 4)
        owner = np.repeat(np.arange(len(models)), restarts)
        R = owner.size
        # Each job's restart start states, drawn up front in restart order.
        X = np.empty((R, n), dtype=np.int64)
        for j, (_, rng) in enumerate(jobs):
            rng = ensure_rng(rng)
            for k in range(restarts):
                X[j * restarts + k] = rng.integers(0, 2, size=n)
        fields = np.empty((R, n))
        energy = np.empty(R)
        for r in range(R):
            fields[r] = couplings[owner[r]][1] @ X[r]
            energy[r] = models[owner[r]].energy(X[r])
        linear = np.stack([a for a, _ in couplings])[owner]
        # Row j * n + i is S_i of job j; S is exactly symmetric, so it is column i too.
        S_rows = np.concatenate([S for _, S in couplings])
        best_x, best_e = X.copy(), energy.copy()
        tabu_until = np.zeros((R, n), dtype=int)
        live = np.ones(R, dtype=bool)
        for it in range(self.max_iterations):
            sign = 1 - 2 * X
            deltas = sign * (linear + fields)
            # Aspiration: a tabu move is allowed if it beats the incumbent.
            aspiring = energy[:, None] + deltas < (best_e - 1e-12)[:, None]
            candidate = (tabu_until <= it) | aspiring
            live &= candidate.any(axis=1)
            rows = live.nonzero()[0]
            if rows.size == 0:
                break
            # The first lowest delta among the row's candidates.
            i = np.where(candidate, deltas, np.inf).argmin(axis=1)[rows]
            at = rows * n + i  # flat index of each moving row's flip
            energy[rows] += deltas.reshape(-1)[at]
            X.reshape(-1)[at] ^= 1
            fields[rows] += sign.reshape(-1)[at][:, None] * S_rows[owner[rows] * n + i]
            tabu_until.reshape(-1)[at] = it + tenure
            better = rows[energy[rows] < best_e[rows] - 1e-12]
            best_e[better] = energy[better]
            best_x[better] = X[better]
        return [
            SampleSet(
                [Sample(tuple(int(b) for b in best_x[r]), float(best_e[r]))
                 for r in range(j * restarts, (j + 1) * restarts)],
                info={"solver": "tabu", "restarts": restarts},
            )
            for j in range(len(models))
        ]

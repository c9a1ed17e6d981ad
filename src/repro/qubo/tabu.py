"""Tabu search over QUBO assignments.

A deterministic-neighbourhood local search with a recency-based tabu list —
the classical heuristic baseline the annealing solvers are compared against
(and a fallback solver for QUBOs too large to embed).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.qubo.model import QuboModel
from repro.qubo.sampleset import Sample, SampleSet
from repro.utils.rngtools import ensure_rng


class TabuSolver:
    """Multi-restart single-flip tabu search.

    Every restart of every job, whatever its size, advances in lock-step:
    one move per row per iteration, in one set of numpy calls over all rows.  A row with no
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
        """Search every ``(model, rng)`` job; one sample set per job, in order.

        Restart ``k`` of job ``j`` is row ``j * restarts + k``.  Rows are
        padded to the call's largest ``n``; a padded column is never tabu-free
        and its delta is +inf, so it is never a candidate move.
        """
        models = [model for model, _ in jobs]
        if not models:
            return []
        restarts = self.num_restarts
        dims = np.array([model.num_variables for model in models], dtype=int)
        N = int(dims.max())
        couplings = [model.symmetric_couplings() for model in models]
        owner = np.repeat(np.arange(len(models)), restarts)
        R = owner.size
        row_n = dims[owner]
        tenure = np.array([self.tenure if self.tenure is not None else max(4, n // 4)
                           for n in dims], dtype=int)[owner]
        # Each job's restart start states, drawn up front in restart order.
        X = np.zeros((R, N), dtype=np.int64)
        for j, (_, rng) in enumerate(jobs):
            rng = ensure_rng(rng)
            for k in range(restarts):
                X[j * restarts + k, :dims[j]] = rng.integers(0, 2, size=dims[j])
        fields = np.zeros((R, N))
        energy = np.empty(R)
        for r in range(R):
            n = row_n[r]
            fields[r, :n] = couplings[owner[r]][1] @ X[r, :n]
            energy[r] = models[owner[r]].energy(X[r, :n])
        # Padded linear terms and rows of S; job j's S_i is row offsets[j] + i
        # (S is exactly symmetric, so it is column i too).
        offsets = np.cumsum([0, *dims])
        linear = np.full((len(models), N), np.inf)
        S_rows = np.zeros((offsets[-1], N))
        for j, (a, S) in enumerate(couplings):
            linear[j, :a.size] = a
            S_rows[offsets[j]:offsets[j + 1], :a.size] = S
        linear = linear[owner]
        row_base = offsets[owner]
        best_x, best_e = X.copy(), energy.copy()
        padded = np.arange(N) >= row_n[:, None]
        tabu_until = np.where(padded, np.iinfo(np.int64).max, 0)
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
            at = rows * N + i  # flat index of each moving row's flip
            energy[rows] += deltas.reshape(-1)[at]
            X.reshape(-1)[at] ^= 1
            fields[rows] += sign.reshape(-1)[at][:, None] * S_rows[row_base[rows] + i]
            tabu_until.reshape(-1)[at] = it + tenure[rows]
            better = rows[energy[rows] < best_e[rows] - 1e-12]
            best_e[better] = energy[better]
            best_x[better] = X[better]
        return [
            SampleSet(
                [Sample(tuple(int(b) for b in best_x[r, :dims[j]]), float(best_e[r]))
                 for r in range(j * restarts, (j + 1) * restarts)],
                info={"solver": "tabu", "restarts": restarts},
            )
            for j in range(len(models))
        ]

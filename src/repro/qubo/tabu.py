"""Tabu search over QUBO assignments.

A deterministic-neighbourhood local search with a recency-based tabu list —
the classical heuristic baseline the annealing solvers are compared against
(and a fallback solver for QUBOs too large to embed).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.qubo.lockstep import coupling_table, padded_linear
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng


#: Scale of the tabu mask: a power of two, so (k - 1/2) * BIG is exact.
BIG = 2.0 ** 600


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
        offsets, linear, signed = coupling_table(couplings, N)
        M = offsets[-1]
        row_base = offsets[owner]
        linear = padded_linear(linear, offsets, owner, N)
        spins = 1.0 - 2.0 * X  # +-1.0; padding stays +1
        best_z, best_e = spins.copy(), energy.copy()
        # A move is tabu until iteration ``tabu_until``, kept as
        # (tabu_until - 1/2) * BIG.  At iteration ``it`` the exact difference
        # (tabu_until - it - 1/2) * BIG is <= -BIG/2 for a free move and
        # >= BIG/2 for a tabu one, so its maximum with the move's delta is
        # a free move's delta and above every delta for a tabu one (deltas
        # stay below BIG/2 ~ 2e180 in size).  A padded column is never free.
        padded = np.arange(N) >= row_n[:, None]
        tabu = np.where(padded, np.inf, -0.5 * BIG)
        live = np.ones(R, dtype=bool)
        base = np.arange(R) * N
        deltas, masked = np.empty((R, N)), np.empty((R, N))
        z, d, t, m = spins.reshape(-1), deltas.reshape(-1), tabu.reshape(-1), masked.reshape(-1)
        for it in range(self.max_iterations if N else 0):
            np.add(linear, fields, out=deltas)
            np.multiply(deltas, spins, out=deltas)
            # Each row takes its first lowest delta among the moves that are
            # tabu-free or aspire (beat the incumbent).  fl(e + d) grows
            # with d, so some move aspires only if the row's lowest does,
            # and that one is then the pick; else the pick is the lowest
            # free move.  A row with neither stops.
            low = deltas.argmin(axis=1)
            aspiring = energy + d.take(base + low) < best_e - 1e-12
            np.subtract(tabu, it * BIG, out=masked)
            np.maximum(masked, deltas, out=masked)
            free_low = masked.argmin(axis=1)
            live &= aspiring | (m.take(base + free_low) < 0.5 * BIG)
            rows = live.nonzero()[0]
            if rows.size == 0:
                break
            i = np.where(aspiring, low, free_low)[rows]
            at = base[rows] + i  # flat index of each moving row's flip
            sg = z.take(at)
            energy[rows] += d.take(at)
            z[at] = -sg
            adds = np.full(R, 2 * M)  # a stopped row adds the zero row
            adds[rows] = row_base[rows] + i + M * (sg < 0)
            fields += signed.take(adds, axis=0)
            t[at] = (it + tenure[rows] - 0.5) * BIG
            better = rows[energy[rows] < best_e[rows] - 1e-12]
            best_e[better] = energy[better]
            best_z[better] = spins[better]
        best_x = best_z < 0
        return [
            SampleSet(best_x[j * restarts:(j + 1) * restarts, :dims[j]],
                      best_e[j * restarts:(j + 1) * restarts],
                      info={"solver": "tabu", "restarts": restarts})
            for j in range(len(models))
        ]

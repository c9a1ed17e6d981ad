"""Classical simulated annealing for QUBO models.

The sampler is vectorised across reads: every sweep updates all reads'
candidate flips for one variable at a time, so the inner loop is numpy
work rather than Python-level per-spin iteration.
"""

from __future__ import annotations

import numpy as np

from repro.annealing.schedule import geometric_beta_schedule, model_beta_range
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng


class SimulatedAnnealingSolver:
    """Metropolis single-flip simulated annealing.

    Args:
        num_reads: Independent annealing runs (returned as separate samples).
        num_sweeps: Full variable sweeps per read.
        beta_schedule: Optional explicit inverse-temperature ladder; defaults
            to a geometric ramp over the per-variable field range of the
            problem (dwave-neal style), which handles the heterogeneous
            scales of penalty- and chain-augmented QUBOs.
        quench: Finish each read with a greedy single-flip descent.
    """

    def __init__(
        self,
        num_reads: int = 32,
        num_sweeps: int = 256,
        beta_schedule: "np.ndarray | None" = None,
        quench: bool = True,
    ):
        self.num_reads = num_reads
        self.num_sweeps = num_sweeps
        self.beta_schedule = beta_schedule
        self.quench = quench

    def solve(self, model: QuboModel, rng=None, blocks: "list[list[int]] | None" = None) -> SampleSet:
        """Anneal ``model``.

        ``blocks`` optionally lists variable groups proposed as collective
        flips once per sweep (in addition to single flips).  The annealer
        device passes its embedding chains here: collective chain flips
        model the multi-spin tunnelling of the physical machine, without
        which classical dynamics freeze at chain-flip barriers.

        Without an explicit ``beta_schedule`` the reads are split across a
        *portfolio* of two schedules — one scaled to the coefficient range
        (good mixing on small, homogeneous problems) and one to the
        per-variable field range (good freezing on heterogeneous
        penalty/chain problems) — and the results merged.
        """
        rng = ensure_rng(rng)
        if self.beta_schedule is None and self.num_reads >= 2:
            return self._solve_portfolio(model, rng, blocks)
        return self._anneal(model, rng, blocks, self.beta_schedule, self.num_reads)

    def _solve_portfolio(self, model: QuboModel, rng, blocks) -> SampleSet:
        from repro.annealing.schedule import beta_range

        half = self.num_reads // 2
        lo_f, hi_f = model_beta_range(model)
        field_sched = geometric_beta_schedule(lo_f, hi_f, self.num_sweeps)
        lo_c, hi_c = beta_range(model.max_abs_coefficient())
        coeff_sched = geometric_beta_schedule(lo_c, hi_c, self.num_sweeps)
        first = self._anneal(model, rng, blocks, coeff_sched, self.num_reads - half)
        second = self._anneal(model, rng, blocks, field_sched, half)
        info = {**first.info, **second.info}
        info["schedule_portfolio"] = {
            "coeff_reads": self.num_reads - half,
            "field_reads": half,
        }
        return SampleSet(list(first) + list(second), info=info)

    def _anneal(self, model: QuboModel, rng, blocks, beta_schedule, num_reads) -> SampleSet:
        n = model.num_variables
        a, S = model.symmetric_couplings()
        betas = beta_schedule
        if betas is None:
            lo, hi = model_beta_range(model)
            betas = geometric_beta_schedule(lo, hi, self.num_sweeps)
        elif len(betas) != self.num_sweeps:
            betas = np.interp(
                np.linspace(0, 1, self.num_sweeps), np.linspace(0, 1, len(betas)), betas
            )
        block_data = []
        for block in blocks or []:
            idx = np.array(sorted(block), dtype=int)
            block_data.append((idx, S[np.ix_(idx, idx)]))

        reads = num_reads
        X = rng.integers(0, 2, size=(reads, n))
        fields = X @ S  # (reads, n): sum_j S_ij x_j per read
        for beta in betas:
            order = rng.permutation(n)
            # One uniform draw per (read, variable) for the whole sweep.
            uniforms = rng.random((reads, n))
            for i in order:
                delta = (1 - 2 * X[:, i]) * (a[i] + fields[:, i])
                accept = (delta <= 0) | (uniforms[:, i] < np.exp(-beta * np.clip(delta, 0, 700)))
                if not accept.any():
                    continue
                signs = (1 - 2 * X[accept, i]).astype(float)
                X[accept, i] ^= 1
                fields[accept] += np.outer(signs, S[i])
            for idx, S_bb in block_data:
                # Collective flip of the whole block: with d_i = 1 - 2 x_i,
                # dE = sum_i d_i (a_i + field_i) + sum_{i<j} S_ij d_i d_j
                # (the second term corrects the double-counted intra-block
                # couplings already present in the fields).
                D = 1.0 - 2.0 * X[:, idx]
                cross = 0.5 * np.einsum("ri,ij,rj->r", D, S_bb, D)
                delta = (D * (a[idx] + fields[:, idx])).sum(axis=1) + cross
                u = rng.random(reads)
                accept = (delta <= 0) | (u < np.exp(-beta * np.clip(delta, 0, 700)))
                if not accept.any():
                    continue
                Da = D[accept]
                rows = np.nonzero(accept)[0]
                X[np.ix_(rows, idx)] ^= 1
                fields[rows] += Da @ S[idx]
        if self.quench:
            from repro.annealing.sqa import _greedy_quench

            X, energies = _greedy_quench(model, X)
        else:
            energies = model.energies(X)
        return SampleSet.from_arrays(
            X,
            energies,
            info={"solver": "simulated_annealing", "reads": self.num_reads, "sweeps": self.num_sweeps},
        )

"""Classical simulated annealing for QUBO models.

The sampler runs in lock-step: every read of every schedule half of every
job advances together, one variable position per step, so the inner loop
is a handful of numpy calls over all rows rather than one call chain per
read group.  Each job's RNG stream is drawn up front in the order a lone
anneal draws it, and every row does the same float operations, so a job's
samples do not depend on which other jobs share the call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.annealing.schedule import beta_range, geometric_beta_schedule, model_beta_range
from repro.qubo.model import QuboModel, size_classes
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
        """Anneal one ``model``: the one-job call of :meth:`run`."""
        return self.run([(model, rng)], blocks=blocks)[0]

    def run(self, jobs: Sequence, blocks: "list[list[int]] | None" = None) -> list[SampleSet]:
        """Anneal every ``(model, rng)`` job; one sample set per job, in order.

        ``blocks`` optionally lists variable groups proposed as collective
        flips once per sweep (in addition to single flips), in every job.
        The annealer device passes its embedding chains here: collective
        chain flips model the multi-spin tunnelling of the physical
        machine, without which classical dynamics freeze at chain-flip
        barriers.

        Without an explicit ``beta_schedule`` each job's reads are split
        across a *portfolio* of two schedules — one scaled to the
        coefficient range (good mixing on small, homogeneous problems) and
        one to the per-variable field range (good freezing on heterogeneous
        penalty/chain problems) — and the results merged.
        """
        out: list = [None] * len(jobs)
        for group in size_classes([model for model, _ in jobs]):
            for k, samples in zip(group, self._lockstep([jobs[k] for k in group], blocks)):
                out[k] = samples
        return out

    def _halves(self, model: QuboModel) -> list[tuple[np.ndarray, int]]:
        """``(beta schedule, reads)`` per schedule half of one job."""
        if self.beta_schedule is None and self.num_reads >= 2:
            half = self.num_reads // 2
            coeff_sched = geometric_beta_schedule(
                *beta_range(model.max_abs_coefficient()), self.num_sweeps
            )
            field_sched = geometric_beta_schedule(*model_beta_range(model), self.num_sweeps)
            return [(coeff_sched, self.num_reads - half), (field_sched, half)]
        betas = self.beta_schedule
        if betas is None:
            betas = geometric_beta_schedule(*model_beta_range(model), self.num_sweeps)
        elif len(betas) != self.num_sweeps:
            betas = np.interp(
                np.linspace(0, 1, self.num_sweeps), np.linspace(0, 1, len(betas)), betas
            )
        return [(np.asarray(betas, dtype=float), self.num_reads)]

    def _lockstep(self, jobs: Sequence, blocks) -> list[SampleSet]:
        """The kernel: anneal same-size jobs with all their rows in lock-step.

        Rows are grouped in halves, one per (job, schedule half), in job
        order.  Row ``r`` of ``X`` and ``fields`` lives at flat index
        ``r * n + c``; ``owner`` maps a row to its job and ``half_of`` to its
        half, whose permutation orders that row's sweep.
        """
        models = [model for model, _ in jobs]
        n, sweeps = models[0].num_variables, self.num_sweeps
        couplings = [model.symmetric_couplings() for model in models]
        block_idx = [np.array(sorted(block), dtype=int) for block in blocks or []]
        block_data = [[(idx, S[np.ix_(idx, idx)]) for idx in block_idx] for _, S in couplings]
        halves = [(j, betas, reads) for j, model in enumerate(models)
                  for betas, reads in self._halves(model)]
        sizes = [reads for _, _, reads in halves]
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        R = int(starts[-1])
        owner = np.repeat([j for j, _, _ in halves], sizes).astype(int)
        half_of = np.repeat(np.arange(len(halves)), sizes)

        # Each job's stream, drawn up front in a lone anneal's order: per
        # half the start states, then per sweep its permutation, its
        # uniforms and one uniform per read per block.
        X = np.empty((R, n), dtype=np.int64)
        perms = np.empty((sweeps, len(halves), n), dtype=int)
        U = np.empty((sweeps, R, n))
        block_u = np.empty((sweeps, len(block_idx), R))
        neg_beta = np.empty((sweeps, R))
        rngs = [ensure_rng(rng) for _, rng in jobs]
        for h, (j, betas, reads) in enumerate(halves):
            rows = slice(starts[h], starts[h + 1])
            X[rows] = rngs[j].integers(0, 2, size=(reads, n))
            for s in range(sweeps):
                perms[s, h] = rngs[j].permutation(n)
                U[s, rows] = rngs[j].random((reads, n))
                for b in range(len(block_idx)):
                    block_u[s, b, rows] = rngs[j].random(reads)
            neg_beta[:, rows] = -betas[:, None]

        # Initial fields block by block: sum_j S_ij x_j per read.
        fields = np.empty((R, n))
        for h, (j, _, _) in enumerate(halves):
            rows = slice(starts[h], starts[h + 1])
            fields[rows] = X[rows] @ couplings[j][1]
        linear = np.stack([a for a, _ in couplings])[owner].reshape(-1)
        S_rows = np.concatenate([S for _, S in couplings])  # row j * n + i is S_i of job j
        x_flat, f_flat = X.reshape(-1), fields.reshape(-1)
        base = (np.arange(R) * n)[:, None]
        owner_base = (owner * n)[:, None]
        for s in range(sweeps):
            # Step t visits variable cols[r, t] of row r: its flat index into
            # X / fields / the linear terms, its uniform and its row of S.
            cols = perms[s][half_of]
            flat = cols + base
            uniforms = U[s].reshape(-1)[flat]
            lin = linear[flat]
            s_row = cols + owner_base
            nb = neg_beta[s]
            for t in range(n):
                at = flat[:, t]
                sign = 1 - 2 * x_flat[at]
                delta = sign * (lin[:, t] + f_flat[at])
                # exp(-beta * clip(delta, 0, 700)), in two plain ufunc calls.
                hot = np.exp(nb * np.minimum(np.maximum(delta, 0.0), 700.0))
                rows = ((delta <= 0) | (uniforms[:, t] < hot)).nonzero()[0]
                if rows.size == 0:
                    continue
                x_flat[at[rows]] ^= 1
                fields[rows] += sign[rows, None] * S_rows[s_row[rows, t]]
            for h, (j, _, _) in enumerate(halves if block_idx else ()):
                rows = slice(starts[h], starts[h + 1])
                _block_moves(X[rows], fields[rows], couplings[j], block_data[j],
                             block_u[s, :, rows], nb[rows])
        if self.quench:
            from repro.annealing.sqa import _greedy_quench

            X = _greedy_quench(X, owner, couplings)

        out: list[list[SampleSet]] = [[] for _ in models]
        info = {"solver": "simulated_annealing", "reads": self.num_reads, "sweeps": self.num_sweeps}
        for h, (j, _, _) in enumerate(halves):
            rows = X[starts[h]:starts[h + 1]]
            out[j].append(SampleSet.from_arrays(rows, models[j].energies(rows), info=info))
        half = self.num_reads // 2
        portfolio = {"coeff_reads": self.num_reads - half, "field_reads": half}
        return [parts[0] if len(parts) == 1 else
                SampleSet([*parts[0], *parts[1]], info={**info, "schedule_portfolio": portfolio})
                for parts in out]


def _block_moves(X, fields, coupling, block_data, block_u, nb) -> None:
    """One collective-flip proposal per block for one half's rows, in place."""
    a, S = coupling
    for (idx, S_bb), u in zip(block_data, block_u):
        # Collective flip of the whole block: with d_i = 1 - 2 x_i,
        # dE = sum_i d_i (a_i + field_i) + sum_{i<j} S_ij d_i d_j
        # (the second term corrects the double-counted intra-block
        # couplings already present in the fields).
        D = 1.0 - 2.0 * X[:, idx]
        cross = 0.5 * np.einsum("ri,ij,rj->r", D, S_bb, D)
        delta = (D * (a[idx] + fields[:, idx])).sum(axis=1) + cross
        accept = (delta <= 0) | (u < np.exp(nb * np.clip(delta, 0, 700)))
        if not accept.any():
            continue
        Da = D[accept]
        rows = np.nonzero(accept)[0]
        X[np.ix_(rows, idx)] ^= 1
        fields[rows] += Da @ S[idx]

"""Classical simulated annealing for QUBO models.

The sampler runs in lock-step: every read of every schedule half of every
job, whatever its size, advances together, one variable position per step,
so the inner loop is a handful of numpy calls over all rows rather than one
call chain per read group.  Each job's RNG stream is drawn in the order a
lone anneal draws it, and every row does the same float operations, so a
job's samples do not depend on which other jobs share the call.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np

from repro.annealing.schedule import beta_range, geometric_beta_schedule, model_beta_range
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

        Jobs of every size advance together: rows are padded to the call's
        largest ``n`` and a row sits out step ``t`` once ``t`` reaches its
        own ``n``.  Rows go half by half, one half per (job, schedule
        half), largest ``n`` first, so the rows still stepping at step ``t``
        are a prefix.  Row ``r`` of ``X`` and ``fields`` lives at flat index
        ``r * N + c``; ``owner`` maps a row to its job and ``half_of`` to its
        half, whose permutation orders that row's sweep.
        """
        models = [model for model, _ in jobs]
        if not models:
            return []
        sweeps = self.num_sweeps
        couplings = [model.symmetric_couplings() for model in models]
        block_idx = [np.array(sorted(block), dtype=int) for block in blocks or []]
        block_data = [[(idx, S[np.ix_(idx, idx)]) for idx in block_idx] for _, S in couplings]
        halves = [(j, betas, reads) for j, model in enumerate(models)
                  for betas, reads in self._halves(model)]
        dims = [models[j].num_variables for j, _, _ in halves]
        N = max(dims)
        order = sorted(range(len(halves)), key=lambda h: -dims[h])
        counts = [halves[h][2] for h in order]
        spans: list = [None] * len(halves)  # each half's slice of rows
        R = 0
        for h in order:
            spans[h] = slice(R, R + halves[h][2])
            R += halves[h][2]
        half_of = np.repeat(order, counts).astype(int)
        owner = np.array([j for j, _, _ in halves], dtype=int)[half_of]
        row_n = np.array(dims, dtype=int)[half_of]
        # Steps grouped by how many rows (a prefix) are still stepping.
        phases = [(live, list(steps)) for live, steps in
                  groupby(range(N), key=lambda t: int(np.count_nonzero(row_n > t)))]

        # Each job's stream comes in a lone anneal's order: per half the
        # start states, then per sweep its permutation, its uniforms and one
        # uniform per read per block.  Earlier halves are drawn up front;
        # a job's last half is drawn sweep by sweep, after everything else
        # its generator gives — unless a later job shares that generator,
        # whose draws must then wait for all of this job's.
        rngs = [ensure_rng(rng) for _, rng in jobs]
        last_job = {id(rng): j for j, rng in enumerate(rngs)}
        last_half = {j: h for h, (j, _, _) in enumerate(halves)}
        lazy = {h for j, h in last_half.items() if last_job[id(rngs[j])] == j}
        eager = [h for h in range(len(halves)) if h not in lazy]
        # Where an up-front half's perm and uniforms land in the per-sweep
        # (half, N) perm and (R, N) uniform arrays, as flat indices.
        perm_dest = [h * N + np.arange(dims[h]) for h in eager]
        u_dest = [(np.arange(spans[h].start, spans[h].stop)[:, None] * N
                   + np.arange(dims[h])).reshape(-1) for h in eager]
        perm_dest = np.concatenate([np.empty(0, dtype=int), *perm_dest])
        u_dest = np.concatenate([np.empty(0, dtype=int), *u_dest])
        perm_store = np.empty((sweeps, perm_dest.size), dtype=int)
        u_store = np.empty((sweeps, u_dest.size))
        block_u = np.empty((sweeps, len(block_idx), R))
        X = np.zeros((R, N), dtype=np.int64)
        p_off = u_off = 0
        for h, (j, _, reads) in enumerate(halves):
            n, rows = dims[h], spans[h]
            X[rows, :n] = rngs[j].integers(0, 2, size=(reads, n))
            if h in lazy:
                continue
            for s in range(sweeps):
                perm_store[s, p_off:p_off + n] = rngs[j].permutation(n)
                u_store[s, u_off:u_off + reads * n] = rngs[j].random((reads, n)).reshape(-1)
                for b in range(len(block_idx)):
                    block_u[s, b, rows] = rngs[j].random(reads)
            p_off += n
            u_off += reads * n
        neg_beta = -np.stack([betas for _, betas, _ in halves], axis=1)  # (sweep, half)

        # Initial fields half by half: sum_j S_ij x_j per read.
        fields = np.zeros((R, N))
        for h, (j, _, _) in enumerate(halves):
            n, rows = dims[h], spans[h]
            fields[rows, :n] = np.ascontiguousarray(X[rows, :n]) @ couplings[j][1]
        # Padded linear terms and rows of S; job j's S_i is row offsets[j] + i.
        offsets = np.cumsum([0, *(model.num_variables for model in models)])
        linear = np.zeros((len(models), N))
        S_rows = np.zeros((offsets[-1], N))
        for j, (a, S) in enumerate(couplings):
            linear[j, :a.size] = a
            S_rows[offsets[j]:offsets[j + 1], :a.size] = S
        linear = linear[owner].reshape(-1)
        x_flat, f_flat = X.reshape(-1), fields.reshape(-1)
        base = (np.arange(R) * N)[:, None]
        row_base = offsets[owner][:, None]
        perms = np.tile(np.arange(N), (len(halves), 1))  # padding stays n..N-1
        U = np.empty((R, N))
        perms_flat, U_flat = perms.reshape(-1), U.reshape(-1)
        lazy_draws = [(h, rngs[halves[h][0]], dims[h], spans[h], halves[h][2])
                      for h in sorted(lazy)]
        for s in range(sweeps):
            perms_flat[perm_dest] = perm_store[s]
            U_flat[u_dest] = u_store[s]
            for h, rng, n, rows, reads in lazy_draws:
                perms[h, :n] = rng.permutation(n)
                U[rows, :n] = rng.random((reads, n))
                for b in range(len(block_idx)):
                    block_u[s, b, rows] = rng.random(reads)
            # Step t visits variable cols[r, t] of row r: its flat index into
            # X / fields / the linear terms, its uniform and its row of S.
            cols = perms[half_of]
            flat = cols + base
            uniforms = U_flat[flat]
            lin = linear[flat]
            s_row = cols + row_base
            nb = neg_beta[s][half_of]
            for live, steps in phases:
                flat_l, lin_l, u_l, nb_l = flat[:live], lin[:live], uniforms[:live], nb[:live]
                for t in steps:
                    at = flat_l[:, t]
                    sign = 1 - 2 * x_flat[at]
                    delta = sign * (lin_l[:, t] + f_flat[at])
                    # exp(-beta * clip(delta, 0, 700)), in two plain ufunc calls.
                    hot = np.exp(nb_l * np.minimum(np.maximum(delta, 0.0), 700.0))
                    rows = ((delta <= 0) | (u_l[:, t] < hot)).nonzero()[0]
                    if rows.size == 0:
                        continue
                    x_flat[at[rows]] ^= 1
                    fields[rows] += sign[rows, None] * S_rows[s_row[rows, t]]
            for h, (j, _, _) in enumerate(halves if block_idx else ()):
                n, rows = dims[h], spans[h]
                _block_moves(X[rows, :n], fields[rows, :n], couplings[j], block_data[j],
                             block_u[s, :, rows], nb[rows])
        if self.quench:
            from repro.annealing.sqa import _greedy_quench

            X = _greedy_quench(X, owner, couplings)

        out: list[list[SampleSet]] = [[] for _ in models]
        info = {"solver": "simulated_annealing", "reads": self.num_reads, "sweeps": self.num_sweeps}
        for h, (j, _, _) in enumerate(halves):
            rows = X[spans[h], :dims[h]]
            out[j].append(SampleSet.from_arrays(rows, models[j].energies(rows), info=info))
        half = self.num_reads // 2
        portfolio = {"coeff_reads": self.num_reads - half, "field_reads": half}
        return [parts[0] if len(parts) == 1 else
                SampleSet([*parts[0], *parts[1]], info={**info, "schedule_portfolio": portfolio})
                for parts in out]

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

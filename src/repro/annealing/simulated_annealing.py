"""Classical simulated annealing for QUBO models.

The sampler runs in lock-step: every read of every schedule half of every
job, whatever its size, advances together, one variable position per step,
so the inner loop is a handful of numpy calls over all rows rather than one
call chain per read group.  Each job's RNG stream is drawn in the order a
lone anneal draws it, and every row does the same float operations, so a
job's samples do not depend on which other jobs share the call.
"""

from __future__ import annotations

from itertools import groupby, repeat
from typing import Sequence

import numpy as np

from repro.annealing.schedule import beta_range, geometric_beta_schedule, model_beta_range
from repro.exceptions import ReproError
from repro.qubo.lockstep import coupling_table
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng


class SimulatedAnnealingSolver:
    """Metropolis single-flip simulated annealing.

    Args:
        num_reads: Independent annealing runs (returned as separate samples).
        num_sweeps: Full variable sweeps per read.
        beta_schedule: Optional explicit inverse-temperature ladder of
            positive, finite values; defaults to a geometric ramp over the
            per-variable field range of the problem (dwave-neal style),
            which handles the heterogeneous scales of penalty- and
            chain-augmented QUBOs.
        quench: Finish each read with a greedy single-flip descent.
    """

    def __init__(
        self,
        num_reads: int = 32,
        num_sweeps: int = 256,
        beta_schedule: "np.ndarray | None" = None,
        quench: bool = True,
    ):
        if beta_schedule is not None and not np.all(np.isfinite(beta_schedule)
                                                    & (np.asarray(beta_schedule) > 0)):
            raise ReproError("inverse temperatures must be positive and finite")
        self.num_reads = num_reads
        self.num_sweeps = num_sweeps
        self.beta_schedule = beta_schedule
        self.quench = quench

    def solve(self, model: QuboModel, rng=None, blocks: "list[list[int]] | None" = None) -> SampleSet:
        """Anneal one ``model``: the one-job call of :meth:`run`."""
        return self.run([(model, rng)], blocks=blocks)[0]

    @np.errstate(over="ignore")  # exp(-beta * delta) of a steep downhill move
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
        are a prefix.  Row ``r`` of ``spins`` and ``fields`` lives at flat
        index ``r * N + c``; ``owner`` maps a row to its job and ``half_of``
        to its half, whose permutation orders that row's sweep.
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
        # A sweep's draws land where they are read, with no copy: half h's
        # permutation in row slot[h] of the sweep's (half, N) table, its
        # uniforms as a (reads, n) block at seg[slot[h]] of the sweep's
        # uniform buffer.  Up-front halves take the first slots.
        by_slot = eager + sorted(lazy)
        slot = np.empty(len(halves), dtype=int)
        slot[by_slot] = np.arange(len(halves))
        seg = np.cumsum([0, *(halves[h][2] * dims[h] for h in by_slot)])
        E = len(eager)
        perm_store = np.empty((sweeps, E, N), dtype=np.int64)
        perm_store[...] = np.arange(N)  # a shuffle of arange(n) is permutation(n)
        u_store = np.empty((sweeps, seg[E]))
        block_u = np.empty((sweeps, len(block_idx), R))
        X = np.zeros((R, N), dtype=np.int64)
        for h, (j, _, reads) in enumerate(halves):
            n, rows, k = dims[h], spans[h], slot[h]
            X[rows, :n] = rngs[j].integers(0, 2, size=(reads, n))
            if h in lazy:
                continue
            shuffle, uniform = rngs[j].shuffle, rngs[j].random
            for perm, u, block in zip(perm_store[:, k, :n],
                                      u_store[:, seg[k]:seg[k + 1]].reshape(sweeps, reads, n),
                                      block_u[:, :, rows] if block_idx else repeat(())):
                shuffle(perm)
                uniform(out=u)
                for b in block:
                    uniform(out=b)
        neg_beta = -np.stack([betas for _, betas, _ in halves], axis=1)  # (sweep, half)

        # Initial fields half by half: sum_j S_ij x_j per read.
        fields = np.zeros((R, N))
        for h, (j, _, _) in enumerate(halves):
            n, rows = dims[h], spans[h]
            fields[rows, :n] = np.ascontiguousarray(X[rows, :n]) @ couplings[j][1]
        spins = 1.0 - 2.0 * X  # +-1.0; padding stays +1
        offsets, linear, signed = coupling_table(couplings, N)
        M = offsets[-1]
        base = np.arange(R) * N
        row_base = offsets[owner]
        row_slot = slot[half_of]
        first_row = np.array([spans[h].start for h in range(len(halves))])
        u_base = seg[row_slot] + (np.arange(R) - first_row[half_of]) * row_n
        perms = np.empty((len(halves), N), dtype=np.int64)
        perms[E:] = np.arange(N)  # padding stays n..N-1
        U = np.empty(seg[-1] + N)  # a padded step reads up to N - 1 past its row
        lazy_draws = [(rngs[halves[h][0]], dims[h], perms[slot[h], :dims[h]],
                       U[seg[slot[h]]:seg[slot[h] + 1]].reshape(halves[h][2], dims[h]),
                       block_u[:, :, spans[h]]) for h in by_slot[E:]]
        z, f = spins.reshape(-1), fields.reshape(-1)
        hot = np.empty(R)
        accepted = np.zeros((N, R), dtype=bool)  # a row past its n stays False
        for s in range(sweeps):
            perms[:E] = perm_store[s]
            U[:seg[E]] = u_store[s]
            for rng, n, perm, u, block in lazy_draws:
                perm[:] = rng.permutation(n)
                rng.random(out=u)
                for b in block[s] if block_idx else ():
                    rng.random(out=b)
            # Step-major: step t visits variable cols[t, r] of row r, so one
            # step's rows are contiguous.  ``at`` is its flat index into
            # spins / fields, ``entry`` its entry of the coupling table.  A
            # padded step visits a padding column.
            cols = perms.T.take(row_slot, axis=1)
            at = cols + base
            entry = cols + row_base
            lin = linear.take(entry, mode="clip")
            uniforms = U.take(cols + u_base)
            # A row visits each variable once per sweep, so the spin it
            # meets is the one it has now; the sweep's flips go back into
            # ``spins`` after the step loop.
            sg = z.take(at)
            flip = entry + M * (sg < 0)  # the row of ``signed`` a flip adds
            nb = neg_beta[s].take(half_of)
            for live, steps in phases:
                fields_l, hot_l, nb_l = fields[:live], hot[:live], nb[:live]
                ts = slice(steps[0], steps[-1] + 1)
                for at_t, lin_t, sg_t, u_t, flip_t, accept_t in zip(
                        at[ts, :live], lin[ts, :live], sg[ts, :live], uniforms[ts, :live],
                        flip[ts, :live], accepted[ts, :live]):
                    delta = f.take(at_t)
                    np.add(delta, lin_t, out=delta)
                    np.multiply(delta, sg_t, out=delta)
                    # Accept if u < exp(-beta * clip(delta, 0, 700)).  A
                    # uniform is below 1 and beta > 0, so a downhill move
                    # (exp(-beta * delta) >= 1, or inf) needs no clip at 0.
                    np.minimum(delta, 700.0, out=hot_l)
                    np.multiply(hot_l, nb_l, out=hot_l)
                    np.exp(hot_l, out=hot_l)
                    np.less(u_t, hot_l, out=accept_t)
                    taken = np.count_nonzero(accept_t)
                    if not taken:
                        continue
                    adds = flip_t
                    if taken < live:
                        # A rejected row adds zeros: its fields keep their
                        # values (a -0.0 may turn +0.0, which no delta,
                        # clip or comparison tells apart).
                        adds = np.where(accept_t, adds, 2 * M)
                    fields_l += signed.take(adds, axis=0)
            z[at] = np.where(accepted, -sg, sg)
            for h, (j, _, _) in enumerate(halves if block_idx else ()):
                n, rows = dims[h], spans[h]
                _block_moves(spins[rows, :n], fields[rows, :n], couplings[j], block_data[j],
                             block_u[s, :, rows], nb[rows])
        X = (spins < 0).astype(np.int64)
        if self.quench:
            from repro.annealing.sqa import _greedy_quench

            X = _greedy_quench(X, owner, couplings)

        # One set per job over its halves' rows; energies go half by half.
        parts: list[list[tuple]] = [[] for _ in models]
        for h, (j, _, _) in enumerate(halves):
            rows = X[spans[h], :dims[h]]
            parts[j].append((rows, models[j].energies(rows)))
        info = {"solver": "simulated_annealing", "reads": self.num_reads, "sweeps": self.num_sweeps}
        half = self.num_reads // 2
        portfolio = {"coeff_reads": self.num_reads - half, "field_reads": half}
        return [SampleSet(*map(np.concatenate, zip(*p)),
                          info=info if len(p) == 1 else {**info, "schedule_portfolio": portfolio})
                for p in parts]

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

def _block_moves(spins, fields, coupling, block_data, block_u, nb) -> None:
    """One collective-flip proposal per block for one half's rows, in place."""
    a, S = coupling
    for (idx, S_bb), u in zip(block_data, block_u):
        # Collective flip of the whole block: with spins d_i = 1 - 2 x_i,
        # dE = sum_i d_i (a_i + field_i) + sum_{i<j} S_ij d_i d_j
        # (the second term corrects the double-counted intra-block
        # couplings already present in the fields).
        D = spins[:, idx]
        cross = 0.5 * np.einsum("ri,ij,rj->r", D, S_bb, D)
        delta = (D * (a[idx] + fields[:, idx])).sum(axis=1) + cross
        accept = (delta <= 0) | (u < np.exp(nb * np.clip(delta, 0, 700)))
        if not accept.any():
            continue
        Da = D[accept]
        rows = np.nonzero(accept)[0]
        spins[np.ix_(rows, idx)] *= -1.0
        fields[rows] += Da @ S[idx]

"""qbsolv-style decomposition of QUBOs that exceed backend capacity.

Hardware (and exact) backends bound the number of variables they can take
in one call — a device has so many qubits, brute force has so many bits.
This module splits an oversized QUBO into subproblems that fit, solves
them, and stitches the pieces back into one global assignment:

1. **Partition** the variables over the model's ``interaction_graph`` with
   a deterministic BFS, so strongly coupled variables land in the same
   block and every block fits the backend's capacity.
2. **Clamp**: given the current global assignment, each block becomes a
   sub-QUBO over its own variables — couplings to outside variables fold
   into the block's linear terms (an outside ``x_j`` is a constant inside
   the block).
3. **Solve all blocks as one engine batch** through the facade's
   ``solve_many``, so sharding, result caching and the durable store all
   apply to subproblems exactly as they do to whole problems.
4. **Stitch**: accept a block's new bits only if they lower the *global*
   energy, then iterate (re-clamp against the improved assignment) until a
   full round yields no improvement.

The refinement loop is classical and monotone — global energy never
increases — which is the hybrid decomposition regime the NISQ-era
extension of the paper motivates for instances beyond device scale.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.exceptions import ReproError
from repro.obs import trace as obs
from repro.qubo.model import QuboModel
from repro.utils.rngtools import SEED_RANGE

#: Refinement rounds after which stitching stops even if a block still improved.
MAX_ROUNDS = 8


def partition_variables(
    model: QuboModel, capacity: int, overlap: int = 0
) -> list[np.ndarray]:
    """Split the variables into coupling-aware blocks of at most ``capacity``.

    Deterministic BFS over :meth:`QuboModel.interaction_graph`: each block
    grows from the lowest-index unassigned variable, absorbing neighbours
    (lowest index first) until full, so strongly connected regions stay
    together.  With ``overlap > 0`` each block is then extended by up to
    that many already-assigned boundary neighbours (blocks may share
    variables; every variable still has exactly one *home* block).  Every
    returned block satisfies ``len(block) <= capacity``.
    """
    if capacity < 1:
        raise ReproError("decomposition capacity must be >= 1")
    n = model.num_variables
    graph = model.interaction_graph()
    assigned = np.zeros(n, dtype=bool)
    blocks: list[np.ndarray] = []
    for start in range(n):
        if assigned[start]:
            continue
        block = [start]
        assigned[start] = True
        frontier = [start]
        while frontier and len(block) < capacity:
            node = frontier.pop(0)
            for nbr in sorted(graph.neighbors(node)):
                if assigned[nbr] or len(block) >= capacity:
                    continue
                assigned[nbr] = True
                block.append(nbr)
                frontier.append(nbr)
        core = list(block)
        if overlap > 0 and len(block) < capacity:
            boundary = sorted(
                {
                    nbr
                    for node in core
                    for nbr in graph.neighbors(node)
                    if nbr not in core and assigned[nbr]
                }
            )
            block.extend(boundary[: min(overlap, capacity - len(block))])
        blocks.append(np.array(block, dtype=np.int64))
    return blocks


def clamp_subqubo(
    model: QuboModel,
    block: np.ndarray,
    assignment: np.ndarray,
    a: "np.ndarray | None" = None,
    S: "np.ndarray | None" = None,
) -> QuboModel:
    """The sub-QUBO over ``block`` with all other variables clamped.

    For block ``B`` and outside assignment ``x``, the block-local linear
    terms are ``a[B] + S[B] @ x - S[B, B] @ x[B]`` (outside couplings become
    constants), the quadratic terms are the couplings internal to ``B``,
    and the constant part of the energy is dropped — block solutions are
    compared by *global* energy, so only relative sub-energies matter.
    Pass precomputed ``symmetric_couplings()`` arrays to amortise the dense
    expansion across blocks and rounds.
    """
    if a is None or S is None:
        a, S = model.symmetric_couplings()
    x = np.asarray(assignment, dtype=float)
    sub = QuboModel(num_variables=len(block))
    sub_linear = a[block] + S[block] @ x - S[np.ix_(block, block)] @ x[block]
    sub.add_linear_from(np.arange(len(block)), sub_linear)
    _, _, qi, qj, qv = model.coo_terms()
    local = np.full(model.num_variables, -1, dtype=np.int64)
    local[block] = np.arange(len(block))
    inside = (local[qi] >= 0) & (local[qj] >= 0)
    sub.add_quadratic_from(local[qi[inside]], local[qj[inside]], qv[inside])
    return sub


def solve_decomposed(
    problem,
    backend,
    capacity: int,
    backend_name: "str | None" = None,
    backend_opts: "dict | None" = None,
    seed: "int | None" = None,
    refine: bool = True,
    top_k: int = 8,
    cache: Any = None,
    store: Any = None,
):
    """Solve an oversized problem by decompose -> batch-solve -> stitch.

    ``problem`` is any :class:`~repro.api.problem.Problem`; its QUBO is
    partitioned into blocks of at most ``capacity`` variables, and each
    refinement round solves every block (clamped against the current global
    assignment) as **one** ``solve_many`` batch on ``backend``.  Returns a
    :class:`~repro.api.result.SolveResult` whose solution went through the
    problem's own ``decode``/``refine``/``evaluate``, with the stitching
    provenance under ``info["decompose"]``.

    Rounds are monotone in global QUBO energy: a block's bits are accepted
    only if flipping them lowers the energy of the full assignment, and the
    loop stops after a round with no accepted block (or :data:`MAX_ROUNDS`).
    """
    # Lazy imports: engine modules must not import repro.api at module level.
    from repro.api.adapters.qubo import RawQuboProblem
    from repro.api.facade import solve_many
    from repro.api.result import SolveResult

    if capacity < 1:
        raise ReproError("decomposition capacity must be >= 1")
    started = time.perf_counter()
    model = problem.to_qubo()
    n = model.num_variables
    blocks = partition_variables(model, capacity)
    a, S = model.symmetric_couplings()

    # Deterministic greedy start: set the bits whose linear term is negative
    # (each is individually profitable), then let the rounds repair couplings.
    x = (a < 0.0).astype(float)
    energy = float(model.energies(x[np.newaxis, :])[0])

    rng = np.random.default_rng(seed)
    rounds_meta: list[dict] = []
    with obs.span(
        "engine.decompose", capacity=int(capacity), blocks=len(blocks)
    ) as decompose_span:
        for round_no in range(MAX_ROUNDS):
            with obs.span("decompose.round", round=round_no) as round_span:
                sub_problems = [
                    RawQuboProblem(clamp_subqubo(model, block, x, a=a, S=S))
                    for block in blocks
                ]
                round_seeds = [
                    int(s) for s in rng.integers(0, SEED_RANGE, size=len(blocks))
                ]
                sub_results = solve_many(
                    sub_problems,
                    backend=backend if backend_name is None else backend_name,
                    seeds=round_seeds,
                    refine=False,
                    top_k=top_k,
                    cache=cache,
                    store=store,
                    **(backend_opts or {}),
                )
                accepted = 0
                for block, sub_result in zip(blocks, sub_results):
                    candidate = x.copy()
                    candidate[block] = np.asarray(sub_result.solution, dtype=float)
                    cand_energy = float(model.energies(candidate[np.newaxis, :])[0])
                    if cand_energy < energy:
                        x, energy = candidate, cand_energy
                        accepted += 1
                rounds_meta.append(
                    {"round": round_no, "accepted_blocks": accepted, "energy": energy}
                )
                round_span.set(accepted_blocks=accepted, energy=energy)
            if accepted == 0:
                break
        decompose_span.set(rounds=len(rounds_meta), energy=energy)

    bits = tuple(x.astype(int).tolist())
    solution = problem.decode(bits)
    if refine:
        solution = problem.refine(solution)
    method = backend_name or getattr(backend, "name", "backend")
    return SolveResult(
        problem=problem.name,
        method=method,
        solution=solution,
        objective=float(problem.evaluate(solution)),
        energy=energy,
        wall_time=time.perf_counter() - started,
        num_variables=n,
        info={
            "decompose": {
                "capacity": int(capacity),
                "num_blocks": len(blocks),
                "block_sizes": [int(len(b)) for b in blocks],
                "rounds": rounds_meta,
                "energy_trajectory": [r["energy"] for r in rounds_meta],
            }
        },
    )

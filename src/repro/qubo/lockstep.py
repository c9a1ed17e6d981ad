"""Coupling tables shared by the lock-step QUBO kernels.

Simulated annealing, its greedy quench and tabu search all advance many
rows (reads or restarts of jobs of any size) together, padded to the call's
largest ``n``.  They read their couplings from one table per call, built
here, so one ``take`` serves every row whatever its job.
"""

from __future__ import annotations

import numpy as np


def coupling_table(couplings: list, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every job's ``(a, S)`` from ``symmetric_couplings()`` in one table.

    Job ``j``'s variable ``i`` is entry ``k = offsets[j] + i``.  Returns
    ``(offsets, linear, signed)``: ``linear[k]`` is entry ``k``'s linear
    term, ``signed[k]`` its row of ``S`` zero-padded to ``width`` columns,
    ``signed[M + k]`` that row negated (``M = offsets[-1]``) and
    ``signed[2 * M]`` zeros.  Flipping entry ``k`` from spin ``s = 1 - 2x``
    adds ``s * S_k`` to its row's fields, which is row ``k + M * (s < 0)``:
    a kernel updates all its rows with one ``take`` and one add, a row that
    does not move taking the zero row.  ``S`` is exactly symmetric, so its
    row ``i`` stands in for column ``i``.
    """
    offsets = np.cumsum([0, *(a.size for a, _ in couplings)])
    M = int(offsets[-1])
    linear = np.concatenate([np.empty(0), *(a for a, _ in couplings)])
    signed = np.zeros((2 * M + 1, width))
    for j, (a, S) in enumerate(couplings):
        signed[offsets[j]:offsets[j + 1], :a.size] = S
    np.negative(signed[:M], out=signed[M:2 * M])
    return offsets, linear, signed


def padded_linear(linear: np.ndarray, offsets: np.ndarray, owner: np.ndarray,
                  width: int) -> np.ndarray:
    """Row ``r``'s linear terms (job ``owner[r]``), padded with ``+inf``.

    A padded column's move delta is then ``+inf``: never a row's lowest.
    """
    sizes = np.diff(offsets)[owner]
    cols = np.arange(width)
    entries = offsets[owner][:, None] + cols
    return np.where(cols < sizes[:, None], linear.take(entries, mode="clip"), np.inf)

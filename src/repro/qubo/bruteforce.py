"""Exact QUBO solving by exhaustive enumeration (ground truth for tests)."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.bits import indices_to_bit_rows


class BruteForceSolver:
    """Enumerates all ``2**n`` assignments; exact but exponential.

    Used as the optimality reference in tests and benchmarks, and as the
    "classical exhaustive baseline" in the experiment harnesses.
    """

    def __init__(self, max_variables: int = 22):
        self.max_variables = max_variables

    def solve(self, model: QuboModel, keep: int = 16) -> SampleSet:
        """Return the ``keep`` lowest-energy assignments.

        A 0-variable model has one assignment, the empty one, at the
        model's offset.
        """
        n = model.num_variables
        if n > self.max_variables:
            raise ReproError(
                f"brute force limited to {self.max_variables} variables, model has {n}"
            )
        assignments = self._all_assignments(n)
        energies = model.energies(assignments)
        order = np.argsort(energies, kind="stable")[:keep]
        return SampleSet(
            assignments[order], energies[order], info={"solver": "bruteforce", "evaluated": 2**n}
        )

    @staticmethod
    def _all_assignments(n: int) -> np.ndarray:
        return indices_to_bit_rows(np.arange(2**n), n)

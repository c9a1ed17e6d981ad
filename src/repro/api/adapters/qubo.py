"""Adapter for bare QUBOs — no domain semantics, the energy IS the objective.

Used by the qbsolv-style decomposer (:mod:`repro.engine.decompose`), whose
subproblems are clamped QUBO fragments, and by callers who already hold a
:class:`~repro.qubo.model.QuboModel` and want the facade/engine treatment
(sharding, caching, scheduling) without inventing a domain wrapper.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.api.problem import Problem
from repro.qubo.model import QuboModel


class RawQuboProblem(Problem):
    """A bare :class:`QuboModel` as a :class:`Problem`.

    The identity adapter: solutions are index-ordered bit tuples, decoding
    is a cast, and the exact objective is the QUBO energy itself.
    """

    name = "qubo"

    def __init__(self, model: QuboModel, name: "str | None" = None):
        self.model = model
        if name is not None:
            self.name = name

    def build_qubo(self) -> QuboModel:
        return self.model

    def to_qubo(self) -> QuboModel:
        # No cache indirection: the model instance IS the formulation.
        return self.model

    def decode(self, bits) -> tuple[int, ...]:
        return tuple(np.asarray(bits, dtype=int).tolist())

    def evaluate(self, solution) -> float:
        return self.model.energy(np.asarray(solution, dtype=float))

    def is_feasible(self, solution) -> bool:
        return True

    def classical_baseline(self, rng=None) -> Any:
        raise NotImplementedError("raw QUBOs have no classical baseline")

"""The declarative problem layer of the Fig. 2 pipeline.

Every Table I workload — multiple query optimization, join ordering,
schema matching, transaction scheduling — funnels through the same
intermediate form (QUBO) on its way to a quantum machine.  :class:`Problem`
makes that funnel an explicit contract: a problem knows how to *formulate*
itself as a QUBO, how to *decode* a low-energy assignment back into a
domain-native solution, how to *evaluate* that solution with the exact
domain objective (QUBO energies use surrogate/penalty terms, so decoded
solutions are always re-costed), and optionally how to *refine* a solution
classically (the hybrid quantum-classical loop of Sec. III-C).
"""

from __future__ import annotations

import abc
from typing import Any

from repro.qubo.model import QuboModel


class Problem(abc.ABC):
    """One optimisation workload, declaratively.

    Subclasses (the per-domain adapters in :mod:`repro.api.adapters`)
    implement the QUBO round trip; the facade in :mod:`repro.api.facade`
    drives them through any registered backend.
    """

    #: Short domain tag used in results and registry diagnostics.
    name: str = "problem"

    @abc.abstractmethod
    def build_qubo(self) -> QuboModel:
        """Formulate the QUBO (uncached; prefer :meth:`to_qubo`)."""

    def to_qubo(self) -> QuboModel:
        """The QUBO formulation, built once and cached.

        Decoders need the variable labelling of the *same* model instance
        the backend sampled, so every pipeline stage must go through this
        cached accessor rather than rebuilding.
        """
        model = getattr(self, "_qubo_cache", None)
        if model is None:
            model = self.build_qubo()
            self._qubo_cache = model
        return model

    @abc.abstractmethod
    def decode(self, bits) -> Any:
        """Map an index-ordered 0/1 assignment to a domain solution.

        Decoders repair infeasible assignments (the post-processing every
        published annealing pipeline applies), so any bitstring yields a
        usable solution.
        """

    @abc.abstractmethod
    def evaluate(self, solution) -> float:
        """Exact domain objective of a solution (lower is better).

        Maximisation domains (schema matching) negate their score so the
        facade can uniformly minimise.
        """

    def refine(self, solution) -> Any:
        """Classical polish of a decoded solution (default: identity)."""
        return solution

    def is_feasible(self, solution) -> bool:
        """Whether a solution satisfies the domain's hard constraints."""
        return True

    def classical_baseline(self, rng=None) -> Any:
        """Best available classical solution (exact on small instances).

        Backends that bypass the quantum pipeline entirely (the
        ``"classical"`` registry entry) call this; adapters that have no
        baseline may leave the default, which raises.
        """
        raise NotImplementedError(f"{type(self).__name__} has no classical baseline")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


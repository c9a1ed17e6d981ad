"""The uniform result type returned by every facade entry point."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


#: The ``wall_time`` split, in the order the shard kernel spends it.  For a
#: sampling backend ``solve_time`` is the item's equal share of its shard's
#: one ``Backend.run`` call, so ``wall_time`` is the item's own formulate,
#: decode, refine and evaluate seconds plus that share.
KERNEL_TIMINGS = ("formulate_time", "solve_time", "decode_time", "refine_time", "evaluate_time")


def _jsonify(value: Any) -> Any:
    """Coerce a result payload into strict-JSON-safe plain python.

    Backends leak ``numpy`` scalars and arrays into solutions and info
    dicts, and several conventions use non-finite floats (the NaN-energy
    convention, ``math.inf`` portfolio placeholders) that strict JSON
    cannot represent.  Scalars become their python equivalents, arrays
    become nested lists, tuples/sets become (sorted, for sets) lists,
    non-finite floats become ``None``, and non-string dict keys are
    stringified — lossy only in container *type*, never in numeric value.
    """
    import numpy as np

    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else str(k)): _jsonify(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    return repr(value)


@dataclass
class SolveResult:
    """One solved problem instance, backend-agnostic.

    Attributes:
        problem: The :attr:`Problem.name` domain tag.
        method: Backend name (``"sa"``, ``"annealer"``, ``"classical"``, ...).
        solution: Domain-native decoded solution (plan selection, join
            order/tree, attribute matching, slot assignment, ...).
        objective: Exact domain objective of ``solution`` (lower is better;
            maximisation domains report the negated score).
        energy: Best sampled QUBO energy.  **NaN-energy convention:** a NaN
            here means the backend bypassed QUBO *sampling* entirely (the
            ``"classical"`` direct-solve path) — there simply is no sampled
            energy to report, and ``NaN`` is deliberately unequal to every
            real energy so it can never masquerade as one.  Test via
            :attr:`used_qubo`, not ``==`` (NaN compares unequal to itself).
        wall_time: Seconds spent solving this item: its own formulate,
            decode, refine and evaluate seconds plus its equal share of the
            shard's one sampling call.  A cache-served result keeps the
            wall time of the original solve it memoised.
        num_variables: Size of the problem's QUBO formulation.  Reported on
            every path — direct-solve backends skip sampling but still
            formulate, so result rows stay comparable across backends.
        info: Backend diagnostics (sampler stats, embedding chain metrics,
            QAOA expectation, portfolio breakdown, ...).  Engine-executed
            results add ``info["engine"]``: shard id/position/size, the
            shard's 16-hex structure ``signature`` (the adaptive
            scheduler's scoreboard key), executor name, the item's child
            seed, a truncated QUBO fingerprint, ``cache_hit``, and the
            ``wall_time`` split — ``formulate_time`` (QUBO formulation),
            ``solve_time`` (the item's share of the shard's backend
            sampling, or its direct solve), ``decode_time`` /
            ``refine_time`` / ``evaluate_time`` (summed over the decoded
            candidates), and ``cache_time`` (cache-probe seconds paid by
            this dispatch).
            Every kernel result also carries the raw split in
            ``info["timings"]``, and when tracing is active
            ``info["trace"]`` holds the ``{"trace_id", "span_id"}`` of the
            span that produced the result (the flight-recorder join key).
            Scheduler-routed results additionally carry
            ``info["engine"]["scheduler"]`` (chosen backend, routing mode
            ``cold``/``explore``/``exploit``, candidate list), and a
            scheduled portfolio stamps the ranking and raced subset into
            ``info["portfolio_meta"]["scheduler"]``.
    """

    problem: str
    method: str
    solution: Any
    objective: float
    energy: float = math.nan
    wall_time: float = 0.0
    num_variables: int = 0
    info: dict = field(default_factory=dict)

    @property
    def used_qubo(self) -> bool:
        """Whether this result came through QUBO sampling (NaN energy = no)."""
        return not math.isnan(self.energy)

    @property
    def cache_hit(self) -> bool:
        """Whether the engine served this result from its ResultCache."""
        return bool(self.info.get("engine", {}).get("cache_hit", False))

    @property
    def engine(self) -> dict:
        """The ``info["engine"]`` telemetry block (empty dict off-engine)."""
        return self.info.get("engine", {})

    @property
    def timings(self) -> dict:
        """The ``wall_time`` split: formulate / solve / decode / refine /
        evaluate (and cache seconds).

        Prefers the engine block (which adds ``cache_time``) and falls
        back to the kernel's raw ``info["timings"]``; empty off-engine
        for results deserialised from pre-split payloads.
        """
        engine = self.info.get("engine", {})
        if "solve_time" in engine:
            return {key: engine.get(key, 0.0) for key in (*KERNEL_TIMINGS, "cache_time")}
        return dict(self.info.get("timings") or {})

    @property
    def scheduled_backend(self) -> "str | None":
        """Backend an adaptive scheduler routed this item to, if any."""
        return self.engine.get("scheduler", {}).get("backend")

    def to_json_dict(self) -> dict:
        """A strict-JSON-safe dict of this result (``json.dumps`` clean).

        The NaN-energy convention crosses the wire as ``"energy": null``
        (NaN is not JSON, and ``nan`` tokens break strict parsers), and
        every ``numpy`` scalar or array in ``solution``/``info`` is
        converted to plain python (see :func:`_jsonify`), so service
        responses never leak ``nan``/``float64`` reprs into JSON.
        :meth:`from_json_dict` reverses the trip; container types inside
        ``solution``/``info`` may relax (tuples and sets come back as
        lists) but every numeric value survives exactly.
        """
        return {
            "problem": self.problem,
            "method": self.method,
            "solution": _jsonify(self.solution),
            "objective": _jsonify(float(self.objective)),
            "energy": _jsonify(float(self.energy)),
            "wall_time": float(self.wall_time),
            "num_variables": int(self.num_variables),
            "info": _jsonify(self.info),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SolveResult":
        """Rebuild a result from :meth:`to_json_dict` output.

        ``null`` objective/energy deserialise to NaN (restoring the
        NaN-energy convention: ``used_qubo`` is ``False`` again on the
        direct-solve path).
        """

        def _num(value) -> float:
            return math.nan if value is None else float(value)

        return cls(
            problem=payload["problem"],
            method=payload["method"],
            solution=payload.get("solution"),
            objective=_num(payload.get("objective")),
            energy=_num(payload.get("energy")),
            wall_time=float(payload.get("wall_time", 0.0)),
            num_variables=int(payload.get("num_variables", 0)),
            info=dict(payload.get("info") or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveResult({self.problem!r} via {self.method!r}, "
            f"objective={self.objective:.6g}, {self.wall_time * 1e3:.1f} ms)"
        )

"""The pluggable solver layer: every engine behind one ``run`` signature.

A :class:`Backend` consumes a shard's QUBOs, each with its own RNG, and
returns one :class:`~repro.qubo.sampleset.SampleSet` per QUBO — nothing
domain-specific crosses this boundary, which is what lets one facade serve
every Table I workload on every machine class.  The registry maps short names (``"sa"``,
``"qaoa"``, ``"annealer"``, ...) to backend factories so callers select
engines by string; new engines (real hardware clients, remote dispatchers)
plug in via :func:`register_backend` without touching any domain code.

Some backends are stateful on purpose: the annealer backend memoises
hardware embeddings and the gate-model backends memoise optimised angles,
keyed by the QUBO's structural signature, so batch execution
(:func:`repro.api.facade.solve_many`) amortises the expensive setup across
structurally identical instances.  The rest declare
:attr:`Backend.stateful` ``False``: a job's samples depend only on its own
``(model, rng)``, so the engine packs every uncached shard of such a
backend into one ``run`` call.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

from repro.api.problem import qubo_signature
from repro.exceptions import ReproError
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.utils.rngtools import ensure_rng


class Backend(abc.ABC):
    """One solver engine with a uniform sampling interface."""

    #: Registry name / result method tag.
    name: str = "backend"

    #: True for engines that skip the QUBO and solve the domain problem
    #: directly (classical baselines); those implement ``solve_problem``.
    solves_problem_directly: bool = False

    #: Largest QUBO (variable count) this engine can take in one call, or
    #: ``None`` for no inherent limit.  The facade's ``decompose=True`` auto
    #: threshold and the qbsolv-style splitter in
    #: :mod:`repro.engine.decompose` consult this before dispatch; hardware
    #: clients should set it to their device's usable qubit count.
    capacity: "int | None" = None

    #: Whether a job's samples may depend on the jobs run before it on this
    #: instance (embedding or warm-start caches).  The engine gives a
    #: stateful backend a fresh instance and one ``run`` per shard; a
    #: stateless one (``False``) gets one ``run`` per dispatch, over every
    #: uncached shard that names it with the same options.  ``True`` is the
    #: safe default: a stateful backend packed with other shards would
    #: carry their state into its samples.
    stateful: bool = True

    @abc.abstractmethod
    def run(self, jobs: Sequence[tuple[QuboModel, object]]) -> list[SampleSet]:
        """Sample low-energy assignments of each ``(model, rng)`` job.

        Returns one sample set per job, in job order; a single solve is the
        one-job case.  ``rng`` is a seed, a ``Generator`` or ``None``.  A job's
        samples may depend on the jobs before it only through state the
        backend keys by QUBO structure (embeddings, warm-start angles), so
        the engine passes a shard's jobs in shard order; a backend that is
        not :attr:`stateful` must return for each job what a one-job call
        returns.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# -- registry -------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., Backend]] = {}


def register_backend(name: str, factory: Callable[..., Backend], overwrite: bool = False) -> None:
    """Register a backend factory under ``name``.

    ``factory(**opts)`` must return a :class:`Backend`.  Re-registering an
    existing name raises unless ``overwrite=True`` (so typos do not silently
    shadow built-ins).
    """
    if name in _REGISTRY and not overwrite:
        raise ReproError(f"backend {name!r} already registered (pass overwrite=True)")
    _REGISTRY[name] = factory


def get_backend(name: str, **opts) -> Backend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown backend {name!r}; registered: {', '.join(list_backends())}"
        ) from None
    return factory(**opts)


def list_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def registered_factories() -> dict[str, Callable[..., Backend]]:
    """A copy of the registry, name -> factory."""
    return dict(_REGISTRY)


# -- built-in engines ------------------------------------------------------


class BruteForceBackend(Backend):
    """Exhaustive enumeration (exact ground truth; exponential)."""

    name = "bruteforce"
    stateful = False

    def __init__(self, keep: int = 16, max_variables: int = 22):
        from repro.qubo.bruteforce import BruteForceSolver

        self._solver = BruteForceSolver(max_variables=max_variables)
        self._keep = keep
        self.capacity = max_variables

    def run(self, jobs):
        return [self._solver.solve(model, keep=self._keep) for model, _ in jobs]


class TabuBackend(Backend):
    """Multi-restart tabu search (the classical heuristic reference)."""

    name = "tabu"
    stateful = False

    def __init__(self, num_restarts: int = 8, max_iterations: int = 500, tenure: "int | None" = None):
        from repro.qubo.tabu import TabuSolver

        self._solver = TabuSolver(
            num_restarts=num_restarts, max_iterations=max_iterations, tenure=tenure
        )

    def run(self, jobs):
        return self._solver.run(jobs)


class SimulatedAnnealingBackend(Backend):
    """Thermal Metropolis annealing on the logical QUBO (no topology)."""

    name = "sa"
    stateful = False

    def __init__(self, num_reads: int = 16, num_sweeps: int = 200, quench: bool = True):
        from repro.annealing.simulated_annealing import SimulatedAnnealingSolver

        self._solver = SimulatedAnnealingSolver(
            num_reads=num_reads, num_sweeps=num_sweeps, quench=quench
        )

    def run(self, jobs):
        return self._solver.run(jobs)


class SimulatedQuantumAnnealingBackend(Backend):
    """Path-integral (transverse-field) annealing on the logical QUBO."""

    name = "sqa"
    stateful = False

    def __init__(self, num_reads: int = 8, num_sweeps: int = 128, num_slices: int = 8):
        from repro.annealing.sqa import SimulatedQuantumAnnealingSolver

        self._solver = SimulatedQuantumAnnealingSolver(
            num_reads=num_reads, num_sweeps=num_sweeps, num_slices=num_slices
        )

    def run(self, jobs):
        return [self._solver.solve(model, rng=rng) for model, rng in jobs]


class AnnealerBackend(Backend):
    """The full annealer device pipeline: embed onto Chimera, sample, unembed.

    Embeddings are memoised by QUBO structure, so a batch of same-shaped
    instances (the :func:`~repro.api.facade.solve_many` case) pays the
    embedding search once.
    """

    name = "annealer"

    def __init__(
        self,
        device=None,
        sampler: str = "sa",
        num_reads: int = 24,
        num_sweeps: int = 256,
        use_embedding: bool = True,
        cache_embeddings: bool = True,
    ):
        from repro.annealing.device import AnnealerDevice

        self.device = device or AnnealerDevice(
            sampler=sampler, num_reads=num_reads, num_sweeps=num_sweeps
        )
        self.use_embedding = use_embedding
        self.cache_embeddings = cache_embeddings
        self._embedding_cache: dict = {}
        # A logical problem can never use more variables than the device has
        # physical qubits (chains only shrink the usable count further).
        self.capacity = self.device.num_qubits if use_embedding else None

    def run(self, jobs):
        return [self._sample(model, ensure_rng(rng)) for model, rng in jobs]

    def _sample(self, model: QuboModel, rng) -> SampleSet:
        if not self.use_embedding:
            return self.device.sample_unembedded(model, rng=rng)
        # A cached embedding maps variable *indices*; any same-signature
        # model shares those indices, so reuse is label-safe.
        key = qubo_signature(model) if self.cache_embeddings else None
        embedding = self._embedding_cache.get(key) if key is not None else None
        cache_hit = embedding is not None
        if embedding is None:
            embedding = self.device.find_embedding(model, rng=rng)
            if key is not None:
                self._embedding_cache[key] = embedding
        samples = self.device.sample(model, rng=rng, embedding=embedding)
        samples.info["embedding_cached"] = cache_hit
        return samples


class QAOABackend(Backend):
    """Gate-model QAOA over the QUBO's Ising form.

    Optimised angles are memoised by QUBO structure and reused as the
    warm-start of the next structurally identical instance — the
    "compiled circuit reuse" of batch execution (concentration of QAOA
    angles across like instances is a known empirical effect).
    """

    name = "qaoa"

    def __init__(
        self,
        num_layers: int = 2,
        maxiter: int = 150,
        restarts: int = 2,
        shots: int = 512,
        optimizer: str = "COBYLA",
        warm_start: bool = True,
    ):
        self.num_layers = num_layers
        self.maxiter = maxiter
        self.restarts = restarts
        self.shots = shots
        self.optimizer = optimizer
        self.warm_start = warm_start
        self._params_cache: dict = {}

    def run(self, jobs):
        return [self._sample(model, ensure_rng(rng)) for model, rng in jobs]

    def _sample(self, model: QuboModel, rng) -> SampleSet:
        from repro.algorithms.qaoa import QAOA

        qaoa = QAOA.from_qubo(model, num_layers=self.num_layers)
        key = (qubo_signature(model), self.num_layers) if self.warm_start else None
        initial = self._params_cache.get(key) if key is not None else None
        opt = qaoa.optimize(
            optimizer=self.optimizer,
            maxiter=self.maxiter,
            restarts=self.restarts,
            rng=rng,
            initial_params=initial,
        )
        if key is not None:
            self._params_cache[key] = opt.params
        samples = qaoa.sample(opt.params, shots=self.shots, rng=rng)
        samples.info.update(
            expectation=opt.value,
            qubits=qaoa.num_qubits,
            num_layers=self.num_layers,
            optimizer_evaluations=opt.evaluations,
            warm_started=initial is not None,
        )
        return samples


class VQEBackend(Backend):
    """Gate-model VQE with the hardware-efficient ansatz."""

    name = "vqe"

    def __init__(self, num_layers: int = 2, maxiter: int = 200, restarts: int = 2, shots: int = 512):
        self.num_layers = num_layers
        self.maxiter = maxiter
        self.restarts = restarts
        self.shots = shots

    def run(self, jobs):
        return [self._sample(model, ensure_rng(rng)) for model, rng in jobs]

    def _sample(self, model: QuboModel, rng) -> SampleSet:
        from repro.algorithms.vqe import VQE

        vqe = VQE.from_qubo(model, num_layers=self.num_layers)
        result = vqe.run(maxiter=self.maxiter, restarts=self.restarts, shots=self.shots, rng=rng)
        samples = result.samples
        samples.info.update(expectation=result.energy, qubits=vqe.num_qubits)
        return samples


class SamplerBackend(Backend):
    """Adapter for any object exposing ``solve(model, rng) -> SampleSet``.

    Lets ad-hoc samplers (custom schedules, experimental engines) ride the
    facade without registry ceremony.
    """

    def __init__(self, sampler, name: str = "sampler"):
        if not hasattr(sampler, "solve"):
            raise ReproError("sampler must expose solve(model, rng) -> SampleSet")
        self._sampler = sampler
        self.name = name

    def run(self, jobs):
        return [self._sampler.solve(model, rng=ensure_rng(rng)) for model, rng in jobs]


class ClassicalBaselineBackend(Backend):
    """The per-domain classical reference, behind the same facade.

    Skips the QUBO entirely and asks the problem for its own best classical
    solution (exhaustive/DP/Hungarian/graph-colouring depending on domain),
    so quantum-vs-classical comparisons are one backend string apart.
    """

    name = "classical"
    stateful = False
    solves_problem_directly = True

    def run(self, jobs):
        raise ReproError("classical baseline solves the domain problem, not the QUBO")

    def solve_problem(self, problem, rng=None, **opts):
        return problem.classical_baseline(rng=ensure_rng(rng))


def _register_builtins() -> None:
    register_backend("bruteforce", BruteForceBackend)
    register_backend("tabu", TabuBackend)
    register_backend("sa", SimulatedAnnealingBackend)
    register_backend("sqa", SimulatedQuantumAnnealingBackend)
    register_backend("annealer", AnnealerBackend)
    register_backend("qaoa", QAOABackend)
    register_backend("vqe", VQEBackend)
    register_backend("classical", ClassicalBaselineBackend)


_register_builtins()

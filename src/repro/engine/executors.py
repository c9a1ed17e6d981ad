"""Pluggable pack executors: serial and process-pool.

An executor maps the pack kernel over pack payloads and returns results
in payload order.  A pack is the items one ``Backend.run`` serves: every
uncached item of a stateless backend, cut in plan order into at most
:attr:`Executor.workers` packs of near-equal size, or one shard of a
stateful backend.  Because the planner fixes every item's seed and shard before
dispatch, and a stateless backend's job ignores its call-mates, the
executor choice changes *wall-clock only* — the returned objectives are
identical on both (the determinism contract the engine tests pin down).
For caller-supplied stateful backend *instances* that guarantee
additionally relies on instance state being keyed by QUBO structural
signature (true of every built-in backend): a worker process's cold copy
then recomputes exactly what the shared instance would have.

``serial`` runs every pack in the calling process; with a stateless
backend that is one ``run`` per dispatch.  ``processes`` sidesteps the GIL
for the CPU-bound simulator backends at the price of pickling packs to
workers, which pays off for the expensive gate-model and annealer fleets
(annealer, QAOA, VQE).  Payloads for the process pool must therefore be picklable — by-name
backend specs always are, and every built-in adapter/problem pickles
cleanly.
"""

from __future__ import annotations

import abc
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.exceptions import ReproError
from repro.obs import trace as obs


class Executor(abc.ABC):
    """Maps a worker over pack payloads, preserving payload order."""

    name: str = "executor"

    #: Payloads this executor runs at once; the engine splits a stateless
    #: backend's shards into at most this many packs.
    workers: int = 1

    @abc.abstractmethod
    def run(self, worker: Callable, payloads: Sequence) -> list:
        """Apply ``worker`` to each payload; return results in order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(Executor):
    """In-process, one pack after another — the determinism reference."""

    name = "serial"

    def run(self, worker: Callable, payloads: Sequence) -> list:
        return [worker(p) for p in payloads]


class ProcessExecutor(Executor):
    """Process pool: true parallelism for the CPU-bound simulator backends.

    The pool is built on the first run that needs it and kept for later
    runs, so a dispatch does not pay worker start-up.  Workers are forked
    when the pool starts and resolve backends by name, so a pool started
    before the backend registry changed is replaced on the next run, as is
    a pool broken by a dead worker.
    """

    name = "processes"

    def __init__(self, max_workers: "int | None" = None):
        self.workers = max_workers or os.cpu_count() or 1
        self._pool: "ProcessPoolExecutor | None" = None
        self._registry: dict = {}  # the backend registry the pool's workers know

    def run(self, worker: Callable, payloads: Sequence) -> list:
        from repro.api.backends import registered_factories

        if len(payloads) <= 1:
            return [worker(p) for p in payloads]
        registry = registered_factories()
        if self._pool is not None and registry != self._registry:
            self._pool.shutdown()
            self._pool = None
        if self._pool is None:
            # A worker traces only what a payload's context asks for, never
            # through a process-wide tracer it inherited at fork.
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             initializer=obs.install, initargs=(None,))
            self._registry = registry
        try:
            return list(self._pool.map(worker, payloads))
        except BrokenProcessPool:
            self._pool = None  # the next run starts a fresh one
            raise
        except Exception as exc:
            # Diagnose serialization failures only on the error path — the
            # happy path must not pay a second pickling pass.
            try:
                pickle.dumps(payloads)
            except Exception:
                raise ReproError(
                    "processes executor needs picklable packs; select the backend "
                    "by name (not a live instance) or use executor='serial'"
                ) from exc
            raise


#: One shared instance per name, so by-name callers share one process pool.
_EXECUTORS: dict[str, Executor] = {
    "serial": SerialExecutor(),
    "processes": ProcessExecutor(),
}


def get_executor(spec: "str | Executor") -> Executor:
    """Resolve an executor name to its shared instance (or pass one through)."""
    if isinstance(spec, Executor):
        return spec
    try:
        return _EXECUTORS[spec]
    except KeyError:
        raise ReproError(
            f"unknown executor {spec!r}; available: {', '.join(list_executors())}"
        ) from None


def list_executors() -> list[str]:
    """Available executor names, sorted."""
    return sorted(_EXECUTORS)

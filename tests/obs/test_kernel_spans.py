"""The pack kernel's span contract on both executors.

A span a problem opens inside a stage (here ``refine``) is a child of its
item's ``engine.solve``, whether the pack runs in-process or in a pool
worker.  With tracing off the kernel traces nothing, even in a pool worker
forked while a process-wide tracer was installed.
"""

import pytest

import repro
from repro import obs
from repro.api import MQOAdapter
from repro.engine.executors import ProcessExecutor
from repro.mqo import generate_mqo_problem

SA = dict(num_reads=2, num_sweeps=20)


class TaggedMQO(MQOAdapter):
    """An MQO problem whose ``refine`` opens a span tagged with its batch index."""

    def refine(self, solution):
        with obs.span("test.refine", tag=self.tag):
            return super().refine(solution)


def _batch():
    problems = []
    for tag, rng in enumerate((1, 5, 1, 7)):
        problem = TaggedMQO(generate_mqo_problem(3, 2, sharing_density=0.4, rng=rng))
        problem.tag = tag
        problems.append(problem)
    return problems


def _pinned(results):
    return [(r.objective, r.solution, r.energy, r.info["engine"]["seed"]) for r in results]


@pytest.fixture
def pool():
    """A fresh two-worker pool, so its workers fork inside the test."""
    executor = ProcessExecutor(max_workers=2)
    yield executor
    if executor._pool is not None:
        executor._pool.shutdown()


@pytest.fixture(autouse=True)
def _no_global_tracer():
    yield
    obs.install(None)


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_stage_spans_nest_under_their_items_solve_span(executor, pool):
    collector = obs.SpanCollector()
    with obs.activate(collector):
        results = repro.solve_many(_batch(), backend="sa", seed=3,
                                   executor=pool if executor == "processes" else executor, **SA)
    spans = collector.drain()
    solves = {s["span_id"]: s for s in spans if s["name"] == "engine.solve"}
    refines = [s for s in spans if s["name"] == "test.refine"]
    assert len(solves) == len(results) == 4
    assert len(refines) >= len(results)  # top_k candidates each, refined
    for refine in refines:
        parent = solves.get(refine["parent_id"])
        assert parent is not None, "a stage span escaped its item's engine.solve"
        assert parent["attrs"]["index"] == refine["attrs"]["tag"]
        assert refine["trace_id"] == parent["trace_id"]
    assert {r.info["trace"]["span_id"] for r in results} == set(solves)


def test_an_untraced_pool_run_ignores_a_tracer_installed_at_fork(pool):
    """Workers fork with the process-wide tracer of the moment; once it is
    cleared, an untraced batch must trace nothing in them."""
    obs.install(obs.SpanCollector())
    try:
        traced = repro.solve_many(_batch(), backend="sa", seed=3, executor=pool, **SA)
    finally:
        obs.install(None)
    assert all("trace" in r.info for r in traced)
    untraced = repro.solve_many(_batch(), backend="sa", seed=3, executor=pool, **SA)
    assert [r for r in untraced if "trace" in r.info] == []
    serial = repro.solve_many(_batch(), backend="sa", seed=3, executor="serial", **SA)
    assert _pinned(untraced) == _pinned(serial) == _pinned(traced)

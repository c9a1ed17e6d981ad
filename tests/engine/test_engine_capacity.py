"""Scoreboard capacity snapshots and explicit batch seeds.

Two seams the service tier stands on:

* :meth:`BackendScoreboard.capacity_snapshot` — the per-backend read model
  behind ``/metrics`` and ``/readyz`` (and the seam a future admission
  controller will consume);
* ``seeds=`` on :func:`compile_plan` / the batch entry points — explicit
  per-item child seeds, which with single-item shards make a batch item
  bit-identical to a standalone solve of the same (problem, seed).
"""

import math

import numpy as np
import pytest

from repro.api.backends import get_backend
from repro.api.facade import solve, solve_many
from repro.engine import BackendScoreboard, compile_plan
from repro.engine.scheduler import result_observation
from repro.exceptions import ReproError
from repro.mqo import generate_mqo_problem


def problems(n=3):
    return [generate_mqo_problem(3, 3, sharing_density=0.4, rng=i) for i in range(n)]


# -- capacity_snapshot -------------------------------------------------------


def test_capacity_snapshot_empty_board():
    assert BackendScoreboard().capacity_snapshot() == {}


def test_capacity_snapshot_aggregates_per_backend():
    board = BackendScoreboard()
    board.observe("sa", "sig-a", objective=10.0, wall_time=0.5)
    board.observe("sa", "sig-b", objective=20.0, wall_time=1.5)
    board.observe("sa", "sig-a", objective=10.0, wall_time=0.5, cache_hit=True)
    board.observe("tabu", "sig-a", objective=5.0, wall_time=0.1)

    snapshot = board.capacity_snapshot()
    assert set(snapshot) == {"sa", "tabu"}

    sa = snapshot["sa"]
    assert set(sa) == {"count", "quality", "latency", "best_objective", "cache_hit_rate",
                       "structures"}
    assert sa["count"] == 3
    assert sa["structures"] == 2
    assert sa["cache_hit_rate"] == pytest.approx(1 / 3)
    assert sa["best_objective"] == 10.0
    assert math.isfinite(sa["latency"]) and sa["latency"] > 0

    tabu = snapshot["tabu"]
    assert tabu["structures"] == 1


def test_capacity_snapshot_tracks_real_batch():
    board = BackendScoreboard()
    results = solve_many(problems(3), backend="sa", seed=0, num_reads=4)
    board.apply(result_observation(result) for result in results)
    snapshot = board.capacity_snapshot()
    assert snapshot["sa"]["count"] == 3
    assert snapshot["sa"]["structures"] >= 1
    assert math.isfinite(snapshot["sa"]["quality"])


# -- explicit seeds= ---------------------------------------------------------


def test_compile_plan_explicit_seeds_are_used_verbatim():
    plan = compile_plan(problems(3), backend="sa", seeds=[11, 22, 33])
    assert sorted((item.index, item.seed) for item in plan.items) == [
        (0, 11), (1, 22), (2, 33),
    ]


def test_compile_plan_seed_validation():
    batch = problems(2)
    with pytest.raises(ReproError):
        compile_plan(batch, backend="sa", seeds=[1])  # wrong length
    with pytest.raises(ReproError):
        compile_plan(batch, backend="sa", seeds=[1, -5])  # out of range
    with pytest.raises(ReproError):
        compile_plan(batch, backend="sa", seeds=[1, 2**63])  # out of range


def test_explicit_seeds_with_unit_shards_match_standalone_solves():
    batch = problems(3)
    seeds = [101, 101, 7]  # duplicates across different problems are fine
    batched = solve_many(
        batch, backend="sa", seeds=seeds, max_shard_size=1, num_reads=4
    )
    for problem, seed, from_batch in zip(batch, seeds, batched):
        direct = solve(problem, backend="sa", seed=seed, num_reads=4)
        assert direct.objective == from_batch.objective
        assert direct.solution == from_batch.solution
    # The explicit seed is stamped into the engine telemetry.
    assert [r.info["engine"]["seed"] for r in batched] == seeds
    # solve is a one-item plan: a Generator seed is drawn in place (same
    # stream as its int seed, never cached), on any backend tier ...
    opts = {"sa": dict(num_reads=4), "tabu": dict(num_restarts=2, max_iterations=60)}
    for backend, backend_opts in opts.items():
        by_int = solve(batch[2], backend=backend, seed=7, **backend_opts)
        by_rng = solve(batch[2], backend=backend, seed=np.random.default_rng(7), **backend_opts)
        (by_batch,) = solve_many(
            [batch[2]], backend=backend, seeds=[7], max_shard_size=1, **backend_opts
        )
        for other in (by_rng, by_batch):
            assert other.objective == by_int.objective, backend
            assert other.solution == by_int.solution, backend
            assert other.energy == by_int.energy, backend
        assert by_rng.info["engine"]["seed"] is None
        assert by_int.info["engine"]["seed"] == by_batch.info["engine"]["seed"] == 7
    # ... and a caller-supplied instance solves exactly like its registry name.
    by_name = solve(batch[2], backend="sa", seed=7, num_reads=4)
    by_instance = solve(batch[2], backend=get_backend("sa", num_reads=4), seed=7)
    (by_instance_batch,) = solve_many(
        [batch[2]], backend=get_backend("sa", num_reads=4), seeds=[7]
    )
    for other in (by_instance, by_instance_batch):
        assert other.objective == by_name.objective
        assert other.solution == by_name.solution
        assert other.energy == by_name.energy


def test_explicit_seeds_are_deterministic_across_executors():
    batch = problems(3)
    seeds = [5, 6, 7]
    serial = solve_many(batch, backend="sa", seeds=seeds, executor="serial",
                        max_shard_size=1, num_reads=4)
    pooled = solve_many(batch, backend="sa", seeds=seeds, executor="processes",
                        max_shard_size=1, num_reads=4)
    assert [r.objective for r in serial] == [r.objective for r in pooled]


# -- expected_service_time ---------------------------------------------------


def test_expected_service_time_cold_board_returns_default():
    from repro.engine import expected_service_time

    assert expected_service_time({}, default=0.25) == 0.25
    assert expected_service_time({}, backends=("sa",), default=0.7) == 0.7


def test_expected_service_time_averages_finite_latencies():
    from repro.engine import expected_service_time

    board = BackendScoreboard()
    board.observe("sa", None, objective=1.0, wall_time=2.0)
    board.observe("tabu", None, objective=1.0, wall_time=4.0)
    snapshot = board.capacity_snapshot()
    assert expected_service_time(snapshot) == pytest.approx(3.0)
    assert expected_service_time(snapshot, backends=("sa",)) == pytest.approx(2.0)
    # Unknown names are skipped; all-unknown falls back to the default.
    assert expected_service_time(snapshot, backends=("sa", "nope")) == pytest.approx(2.0)
    assert expected_service_time(snapshot, backends=("nope",), default=0.1) == 0.1


def test_expected_service_time_ignores_nan_latency_rows():
    from repro.engine import expected_service_time

    # A backend seen only through cache hits has a NaN latency EWMA —
    # cache hits cost no backend time and must not poison the estimate.
    board = BackendScoreboard()
    board.observe("sa", None, objective=1.0, wall_time=1.0, cache_hit=True)
    assert math.isnan(board.capacity_snapshot()["sa"]["latency"])
    assert expected_service_time(board.capacity_snapshot(), default=0.25) == 0.25

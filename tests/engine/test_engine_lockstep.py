"""Lock-step sampling must equal per-item sampling.

``Backend.run`` takes a whole pack's ``(model, rng)`` jobs, and the ``sa``
and ``tabu`` kernels advance every job's rows together, whatever its size.
A job's samples must not depend on which other jobs share the call: a
k-job ``run`` equals k one-job runs on the same backend instance, with
equal or mixed sizes, and a batch solved with default sharding equals the
same batch solved one item per shard.  The one ``run`` is split evenly
across its items' timings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.annealing.sqa import _greedy_quench
from repro.api import Backend, LeftDeepJoinAdapter, MQOAdapter, get_backend
from repro.db.generator import chain_query
from repro.exceptions import ReproError
from repro.mqo import generate_mqo_problem
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.qubo.tabu import TabuSolver

#: label -> (backend, small settings so a hypothesis example stays fast).
BACKENDS = {
    "sa": ("sa", dict(num_reads=5, num_sweeps=12)),
    "tabu": ("tabu", dict(num_restarts=3, max_iterations=25)),
    # tenure >= n: every variable goes tabu, so restarts stop at their own
    # iterations while the others go on.
    "tabu-stops": ("tabu", dict(num_restarts=3, max_iterations=25, tenure=12)),
    "sqa": ("sqa", dict(num_reads=3, num_sweeps=6, num_slices=2)),
    "annealer": ("annealer", dict(sampler="sa", num_reads=4, num_sweeps=8)),
    "bruteforce": ("bruteforce", dict(keep=6)),
}


def _model(n: int, kind: str, coeffs: list) -> QuboModel:
    """``random`` couplings, ``uncoupled`` (linear terms only), or ``equal``
    (every coefficient the same, so argmin ties occur)."""
    model = QuboModel(n)
    values = iter(coeffs * (n * n + n))
    for i in range(n):
        model.add_linear(i, coeffs[0] if kind == "equal" else next(values))
    if kind == "uncoupled":
        return model
    for i in range(n):
        for j in range(i + 1, n):
            value = coeffs[0] if kind == "equal" else next(values)
            if value != 0.0:
                model.add_quadratic(i, j, value)
    return model


def _flat(samples):
    return ([(s.bits, repr(s.energy), s.num_occurrences) for s in samples],
            sorted(samples.info.items()))


def _together_and_alone(label, models, seeds):
    """One k-job run, and k one-job runs in order on one fresh instance."""
    name, opts = BACKENDS[label]
    together = get_backend(name, **opts).run(
        [(m, np.random.default_rng(s)) for m, s in zip(models, seeds)]
    )
    one_by_one = get_backend(name, **opts)
    alone = [one_by_one.run([(m, np.random.default_rng(s))])[0] for m, s in zip(models, seeds)]
    return [_flat(s) for s in together], [_flat(s) for s in alone]


@settings(max_examples=25, deadline=None)
@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    n=st.integers(1, 12),
    kind=st.sampled_from(["random", "uncoupled", "equal"]),
    coeffs=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                    min_size=1, max_size=5),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
)
def test_k_job_run_equals_k_one_job_runs(backend, n, kind, coeffs, seeds):
    if backend == "annealer" and kind != "uncoupled":
        n = min(n, 6)  # keep the embedding search small
    models = [_model(n, kind, coeffs[k:] + coeffs[:k]) for k in range(len(seeds))]
    together, alone = _together_and_alone(backend, models, seeds)
    assert together == alone


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(["sa", "tabu", "tabu-stops"]),
    ns=st.lists(st.integers(0, 12), min_size=2, max_size=5),
    kind=st.sampled_from(["random", "uncoupled", "equal"]),
    coeffs=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                    min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 8),
)
def test_mixed_size_run_equals_one_job_runs(backend, ns, kind, coeffs, seed):
    """Jobs of different sizes share one masked lock-step call: rows padded
    to the largest n, each row stepping over its own n only.  A 0-variable
    job may share the call, or every job may have 0 variables."""
    models = [_model(n, kind, coeffs[k % len(coeffs):] + coeffs[:k % len(coeffs)])
              for k, n in enumerate(ns)]
    together, alone = _together_and_alone(backend, models, [seed + k for k in range(len(ns))])
    assert together == alone
    assert [len(rows[0][0]) for rows, _ in together] == ns


@settings(max_examples=25, deadline=None)
@given(
    ns=st.lists(st.integers(0, 10), min_size=2, max_size=4),
    tenure=st.integers(1, 12),
    kind=st.sampled_from(["random", "uncoupled", "equal"]),
    coeffs=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                    min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 8),
)
def test_mixed_size_tabu_equals_one_restart_at_a_time(ns, tenure, kind, coeffs, seed):
    models = [_model(n, kind, coeffs[k % len(coeffs):] + coeffs[:k % len(coeffs)])
              for k, n in enumerate(ns)]
    seeds = [seed + k for k in range(len(ns))]
    solver = TabuSolver(num_restarts=3, max_iterations=30, tenure=tenure)
    together = solver.run([(m, np.random.default_rng(s)) for m, s in zip(models, seeds)])
    reference = [_reference_tabu(m, np.random.default_rng(s), 3, 30, tenure)
                 for m, s in zip(models, seeds)]
    assert [_flat(s) for s in together] == [_flat(s) for s in reference]


@settings(max_examples=25, deadline=None)
@given(
    ns=st.lists(st.integers(0, 10), min_size=2, max_size=4),
    kind=st.sampled_from(["random", "uncoupled", "equal"]),
    coeffs=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                    min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_size_quench_equals_quench_per_model(ns, kind, coeffs, seed):
    """Padded rows descend exactly as unpadded ones and keep their padding 0."""
    models = [_model(n, kind, coeffs[k % len(coeffs):] + coeffs[:k % len(coeffs)])
              for k, n in enumerate(ns)]
    couplings = [m.symmetric_couplings() for m in models]
    rng = np.random.default_rng(seed)
    starts = [rng.integers(0, 2, size=(3, n)) for n in ns]
    padded = np.zeros((3 * len(ns), max(ns)), dtype=int)
    for j, rows in enumerate(starts):
        padded[3 * j:3 * j + 3, :ns[j]] = rows
    together = _greedy_quench(padded, np.repeat(np.arange(len(ns)), 3), couplings)
    for j, rows in enumerate(starts):
        alone = _greedy_quench(rows, np.zeros(3, dtype=int), [couplings[j]])
        assert np.array_equal(together[3 * j:3 * j + 3, :ns[j]], alone)
        assert not together[3 * j:3 * j + 3, ns[j]:].any()


@pytest.mark.parametrize("backend", ["sa", "tabu", "sqa"])
def test_jobs_sharing_a_generator_draw_in_job_order(backend):
    """Jobs 0 and 2 share one Generator: job 2 must draw after all of job 0,
    as in one-job runs, even though SA draws a job's last half lazily."""
    name, opts = BACKENDS[backend]
    coeffs = [1.0, -2.0, 0.5, -1.0, 3.0]
    models = [_model(n, "random", coeffs) for n in (4, 6, 3)]
    shared, own = np.random.default_rng(9), np.random.default_rng(10)
    together = get_backend(name, **opts).run(list(zip(models, [shared, own, shared])))
    shared, own = np.random.default_rng(9), np.random.default_rng(10)
    alone = [get_backend(name, **opts).run([(m, rng)])[0]
             for m, rng in zip(models, [shared, own, shared])]
    assert [_flat(s) for s in together] == [_flat(s) for s in alone]


@pytest.mark.parametrize("backend", ["sa", "tabu", "sqa", "bruteforce"])
def test_empty_model_samples_the_empty_assignment(backend):
    """A 0-variable QUBO (a 2-attribute schema pair formulates one) has one
    assignment; the quench must not take an argmin over no columns."""
    name, opts = BACKENDS[backend]
    (alone,) = get_backend(name, **opts).run([(QuboModel(0), 1)])
    _, mixed = get_backend(name, **opts).run(
        [(_model(3, "random", [1.0, -2.0]), 0), (QuboModel(0), 1)])
    assert _flat(alone) == _flat(mixed)
    assert {s.bits for s in alone} == {()}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_fixed_batch_equals_one_job_runs(backend):
    """A fixed 4-job batch, and a mixed-size one that comes back in job order."""
    coeffs = [1.0, -2.0, 0.5, -1.0, 3.0]
    models = [_model(6, "random", coeffs[k:] + coeffs[:k]) for k in range(4)]
    together, alone = _together_and_alone(backend, models, [3, 1, 4, 1])
    assert together == alone
    mixed = [_model(n, "random", coeffs) for n in (3, 5, 3, 4)]
    together, alone = _together_and_alone(backend, mixed, [0, 1, 2, 3])
    assert together == alone
    assert [len(rows[0][0]) for rows, _ in together] == [3, 5, 3, 4]


def _reference_tabu(model, rng, restarts, max_iterations, tenure):
    """Tabu search one restart at a time, each with its own loop and ``break``."""
    a, S = model.symmetric_couplings()
    rows, energies = [], []
    for _ in range(restarts):
        x = rng.integers(0, 2, size=model.num_variables)
        fields, energy = S @ x, model.energy(x)
        best_x, best_e = x.copy(), energy
        tabu_until = np.zeros(x.size, dtype=int)
        for it in range(max_iterations):
            deltas = (1 - 2 * x) * (a + fields)
            aspiring = energy + deltas < best_e - 1e-12
            candidates = np.where((tabu_until <= it) | aspiring)[0]
            if candidates.size == 0:
                break
            i = candidates[np.argmin(deltas[candidates])]
            energy += deltas[i]
            sign = 1 - 2 * x[i]
            x[i] ^= 1
            fields += S[:, i] * sign
            tabu_until[i] = it + tenure
            if energy < best_e - 1e-12:
                best_x, best_e = x.copy(), energy
        rows.append(best_x)
        energies.append(best_e)
    return SampleSet(rows, energies, info={"solver": "tabu", "restarts": restarts})


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 10),
    tenure=st.integers(1, 12),
    kind=st.sampled_from(["random", "uncoupled", "equal"]),
    coeffs=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                    min_size=1, max_size=5),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
)
def test_lockstep_tabu_equals_one_restart_at_a_time(n, tenure, kind, coeffs, seeds):
    """Every row stops on its own: a row with no admissible move breaks off
    while the others go on, as a per-restart loop's ``break`` does."""
    models = [_model(n, kind, coeffs[k:] + coeffs[:k]) for k in range(len(seeds))]
    solver = TabuSolver(num_restarts=4, max_iterations=30, tenure=tenure)
    together = solver.run([(m, np.random.default_rng(s)) for m, s in zip(models, seeds)])
    reference = [_reference_tabu(m, np.random.default_rng(s), 4, 30, tenure)
                 for m, s in zip(models, seeds)]
    assert [_flat(s) for s in together] == [_flat(s) for s in reference]


@pytest.mark.parametrize("seed,n,tenure", [(23, 10, 11), (52, 7, 8)])
def test_tabu_rows_stop_on_their_own(seed, n, tenure):
    """Instances where one restart stops while another still has an
    aspiring move: stopping every row at the first stop changes the samples."""
    rng = np.random.default_rng(seed)
    model = QuboModel(n)
    for i in range(n):
        model.add_linear(i, float(rng.normal()))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                model.add_quadratic(i, j, float(rng.normal()))
    solver = TabuSolver(num_restarts=4, max_iterations=30, tenure=tenure)
    (samples,) = solver.run([(model, np.random.default_rng(seed))])
    reference = _reference_tabu(model, np.random.default_rng(seed), 4, 30, tenure)
    assert _flat(samples) == _flat(reference)


def _shared_signature_batch():
    """Four left-deep chain joins of four relations share one signature (one
    shard); two MQO instances make a second shard."""
    return ([LeftDeepJoinAdapter(chain_query(4, rng=r)) for r in range(4)]
            + [MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=r))
               for r in (1, 5)])


def _outcome(result):
    info = {k: v for k, v in result.info.items() if k not in ("timings", "engine", "trace")}
    return (result.objective, result.solution, result.energy, result.num_variables,
            result.info["engine"]["seed"], sorted(info.items()))


@pytest.mark.parametrize("executor", ["serial", "processes"])
@pytest.mark.parametrize("backend", ["sa", "tabu"])
def test_lockstep_shards_equal_one_item_shards(backend, executor):
    opts = BACKENDS[backend][1]
    sharded = repro.solve_many(_shared_signature_batch(), backend=backend, seed=11,
                               executor=executor, **opts)
    assert max(r.info["engine"]["shard_size"] for r in sharded) == 4
    single = repro.solve_many(_shared_signature_batch(), backend=backend, seed=11,
                              executor=executor, max_shard_size=1, **opts)
    assert [_outcome(r) for r in sharded] == [_outcome(r) for r in single]


def test_shard_sampling_is_split_evenly_across_items():
    problems = [LeftDeepJoinAdapter(chain_query(4, rng=r)) for r in range(4)]
    collector = obs.SpanCollector()
    with obs.activate(collector):
        results = repro.solve_many(problems, backend="sa", seed=5, num_reads=8, num_sweeps=60)
    spans = collector.drain()
    (shard,) = [s for s in spans if s["name"] == "engine.shard"]
    assert shard["attrs"]["shard_size"] == 4
    # The pack's dispatch span holds formulation and the one run.
    (dispatch,) = [s for s in spans if s["name"] == "engine.dispatch"]
    assert shard["parent_id"] == dispatch["span_id"]
    timings = [r.info["timings"] for r in results]
    assert len({t["solve_time"] for t in timings}) == 1
    for result, split in zip(results, timings):
        assert result.wall_time >= sum(split.values())
    # Every item is charged its share of the one run, not the whole of it.
    assert sum(r.wall_time for r in results) <= dispatch["duration_s"] + 1e-3
    solves = [s for s in spans if s["name"] == "engine.solve"]
    assert len(solves) == 4
    assert all(s["parent_id"] == shard["span_id"] for s in solves)


def test_run_must_return_one_sample_set_per_job():
    class Short(Backend):
        name = "short"

        def run(self, jobs):
            return []

    problem = MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=1))
    with pytest.raises(ReproError, match="returned 0 sample sets for 1 jobs"):
        repro.solve(problem, backend=Short(), seed=0)

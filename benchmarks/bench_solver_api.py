"""The facade vs. hand-rolled pipeline calls.

The facade adds adapter dispatch, result packaging and top-k decode/refine
around the same sampler kernel.  These claims pin what it computes: with
decode/refine switched off it returns exactly the hand-rolled answer from
one engine solve, with them on it is never worse, and its batch path reuses
the annealer embedding.  Facade timings are layerbench's
``engine.overhead_s``.
"""

from bench_engine import engine_counts

from repro import solve, solve_many
from repro.api import MQOAdapter
from repro.annealing.simulated_annealing import SimulatedAnnealingSolver
from repro.mqo import generate_mqo_problem
from repro.mqo.qubo import decode_sample, mqo_to_qubo


def _direct_pipeline(problem, seed):
    """The pre-facade idiom: build, sample, decode best by hand."""
    model = mqo_to_qubo(problem)
    samples = SimulatedAnnealingSolver(num_reads=16, num_sweeps=200).solve(model, rng=seed)
    selection = decode_sample(problem, model, samples.best.bits)
    return problem.total_cost(selection)


def test_facade_without_polish_equals_direct_pipeline():
    """``refine=False`` and ``top_k=1`` make the facade run the direct
    path's work: one engine solve, the same answer, seed by seed."""
    problem = generate_mqo_problem(4, 3, sharing_density=0.4, rng=0)
    for seed in range(6):
        result, solves, _ = engine_counts(
            lambda: solve(problem, backend="sa", seed=seed, refine=False, top_k=1,
                          num_reads=16, num_sweeps=200)
        )
        assert solves == 1
        assert result.objective == _direct_pipeline(problem, seed)


def test_facade_quality_matches_direct():
    """Same sampler, same seed: the facade never returns a worse answer
    (it decodes top-k and refines; the direct path decodes only the best)."""

    for seed in range(4):
        problem = generate_mqo_problem(4, 3, sharing_density=0.4, rng=seed)
        facade_cost = solve(problem, backend="sa", seed=seed, num_reads=16, num_sweeps=200).objective
        assert facade_cost <= _direct_pipeline(problem, seed) + 1e-9


def test_batch_embedding_reuse_beats_per_solve_search():
    """solve_many's shared annealer backend searches the embedding once per
    structure, where a fresh device per solve would search every time."""
    problems = [
        MQOAdapter(generate_mqo_problem(4, 3, sharing_density=0.4, rng=7))
        for _ in range(4)
    ]
    results = solve_many(problems, backend="annealer", seed=0, num_reads=8, num_sweeps=100)
    assert [r.info["embedding_cached"] for r in results] == [False, True, True, True]

"""Golden MQO instances: pinned digests of what ``generate_mqo_problem`` builds.

The Table I MQO row, the batch golden and the sampler goldens all start from
generated instances, so a generator that drew its stream in another order
would move them all at once, and through objectives alone it would be hard to
tell why.  These digests pin the instance itself: for a grid of sizes and
densities, the SHA-256 of the ``repr`` of every ``(key, cost)`` in
``all_plans`` order, every savings item in insertion order, and the next
``random()`` of the ``Generator`` passed in as ``rng`` (the generator must
leave a caller's stream exactly where it found the end of the instance).

``reference_generate`` is the per-pair loop the generator is defined by,
kept verbatim: one ``uniform`` per plan cost, then for each cross-query pair
in ``all_plans`` order (query names sorted, so ``q10`` comes before ``q2``)
one ``random()`` and, on a hit, one ``uniform`` for the saving's fraction.
The property below holds the generator to it on drawn sizes and streams.

If a digest fails, the generated instances changed: every cached result and
every golden built on them moves too.  Regenerate the constants from the
failure messages only for an intended change to the generated workload, and
say so in the commit message; never re-roll the grid to make a failure go
away.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mqo.generator import generate_mqo_problem
from repro.mqo.problem import MQOProblem

#: (num_queries, plans_per_query, sharing_density, seed) -> SHA-256 digest.
GOLDEN = {
    (12, 6, 0.4, 11):
        "2def0cc2d7745f22ce28e69cbdd9bd2bad2f31dcb5bbd46aec4bd66eb941113a",
    (4, 3, 0.4, 12):
        "97cce808d1f684a7446053d69a374b4900b11b0fd69433e3a67368d5b24e73df",
    (11, 3, 0.3, 13):
        "9f6e9fbfb335d49ed23bd56289c1265bfbea9fd046bff5bce287f2550068ddd6",
    (20, 2, 0.9, 14):
        "a65b1a14828ec9283f96574a186f06d223a1d18998f21ac9cff6b2b6879b9779",
    (2, 2, 1.0, 15):
        "739a41c609c0d24a4bbac5c53f5946e2216517b92d06aeed1cbb04f172761140",
    (3, 2, 0.0, 16):
        "b2c336304816d82f4c0cfa4c65921d1965de64a50d8fa59906d331a24d476e10",
    (1, 4, 0.3, 17):
        "87719ef692c0dc18c41dfe7431509ad5c2f2931560f45f4ec0c4f39637b1338f",
}


def reference_generate(num_queries, plans_per_query, sharing_density=0.3,
                       cost_range=(10.0, 50.0), max_saving_fraction=0.8, rng=None):
    """The generator's defining per-pair loop (argument checks left out)."""
    problem = MQOProblem()
    lo, hi = cost_range
    for q in range(num_queries):
        for p in range(plans_per_query):
            problem.add_plan(f"q{q}", f"p{p}", float(rng.uniform(lo, hi)))
    plans = problem.all_plans
    for i, a in enumerate(plans):
        for b in plans[i + 1 :]:
            if a.query == b.query:
                continue
            if rng.random() < sharing_density:
                cheaper = min(a.cost, b.cost)
                saving = float(rng.uniform(0.1, max_saving_fraction) * cheaper)
                problem.add_saving(a.key, b.key, saving)
    return problem


def _content(problem: MQOProblem):
    plans = [(p.key, p.cost) for p in problem.all_plans]
    return plans, list(problem.savings.items())


def _digest(problem: MQOProblem, tail: float) -> str:
    payload = repr((_content(problem), tail))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "{}x{}-{}-s{}".format(*c))
def test_generated_instance_is_pinned(case):
    num_queries, plans_per_query, density, seed = case
    rng = np.random.default_rng(seed)
    problem = generate_mqo_problem(num_queries, plans_per_query,
                                   sharing_density=density, rng=rng)
    digest = _digest(problem, rng.random())
    assert digest == GOLDEN[case], f"{case}: {digest}"


def test_int_seed_builds_the_generator_instance():
    by_seed = generate_mqo_problem(12, 6, sharing_density=0.4, rng=11)
    by_generator = generate_mqo_problem(12, 6, sharing_density=0.4,
                                        rng=np.random.default_rng(11))
    assert _content(by_seed) == _content(by_generator)


def test_eleven_queries_walk_pairs_in_sorted_name_order():
    problem = generate_mqo_problem(11, 2, sharing_density=1.0, rng=3)
    assert problem.queries[:3] == ["q0", "q1", "q10"]
    first = list(problem.savings)[:4]
    assert [(a[0], b[0]) for a, b in first] == [("q0", "q1"), ("q0", "q1"),
                                                ("q0", "q10"), ("q0", "q10")]


@settings(max_examples=60, deadline=None)
@given(
    num_queries=st.integers(1, 13),
    plans_per_query=st.integers(1, 5),
    density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    max_saving_fraction=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_equals_the_reference_loop(num_queries, plans_per_query, density,
                                             max_saving_fraction, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_mqo_problem(num_queries, plans_per_query, sharing_density=density,
                               max_saving_fraction=max_saving_fraction, rng=ours)
    want = reference_generate(num_queries, plans_per_query, sharing_density=density,
                              max_saving_fraction=max_saving_fraction, rng=theirs)
    assert _content(got) == _content(want)
    assert ours.random() == theirs.random()

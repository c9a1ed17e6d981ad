"""Planner: fingerprints, sharding, seed assignment, backend specs."""

import numpy as np
import pytest

from repro.api import MQOAdapter, get_backend
from repro.api.adapters import as_problems
from repro.engine import compile_plan
from repro.exceptions import ReproError
from repro.mqo import generate_mqo_problem
from repro.qubo.model import QuboModel


def _mqo(rng):
    return MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=rng))


class TestFingerprint:
    def _model(self, order=False):
        m = QuboModel(3)
        terms = [(0, 1.5), (2, -0.5)]
        quads = [((0, 1), 2.0), ((1, 2), -1.0)]
        if order:
            terms, quads = terms[::-1], quads[::-1]
        for i, c in terms:
            m.add_linear(i, c)
        for (i, j), c in quads:
            m.add_quadratic(i, j, c)
        m.add_offset(0.25)
        return m

    def test_insertion_order_invariant(self):
        assert self._model().fingerprint() == self._model(order=True).fingerprint()

    def test_coefficient_change_changes_fingerprint(self):
        other = self._model()
        other.add_linear(0, 1e-9)
        assert other.fingerprint() != self._model().fingerprint()

    def test_labels_distinguish_unless_excluded(self):
        a, b = QuboModel(), QuboModel()
        a.variable("x")
        b.variable("y")
        a.add_linear("x", 1.0)
        b.add_linear("y", 1.0)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint(include_labels=False) == b.fingerprint(include_labels=False)

    def test_zero_coefficients_dropped(self):
        a = self._model()
        b = self._model()
        b.add_quadratic(0, 2, 0.0)
        assert a.fingerprint() == b.fingerprint()

    def test_stable_bytes_roundtrip_stability(self):
        m = self._model()
        assert m.to_stable_bytes() == m.copy().to_stable_bytes()


class TestCompilePlan:
    def test_shards_group_by_structure(self):
        # Two copies of one structure + one distinct structure -> 2 shards.
        problems = [_mqo(1), _mqo(1), _mqo(5)]
        plan = compile_plan(problems, "sa", seed=0)
        shards = plan.shards
        assert len(plan.shards) == 2
        assert [len(s.items) for s in shards] == [2, 1]
        assert shards[0].items[0].fingerprint != shards[1].items[0].fingerprint

    def test_seed_assignment_is_batch_order_stable(self):
        problems = [_mqo(1), _mqo(5), _mqo(1)]
        a = compile_plan(problems, "sa", seed=42)
        b = compile_plan(list(problems), "sa", seed=42)
        assert [i.seed for i in a.items] == [i.seed for i in b.items]
        # Seeds depend on batch position, not on sharding.
        solo = compile_plan(problems[:1], "sa", seed=42)
        assert solo.items[0].seed == a.items[0].seed

    def test_max_shard_size_splits_groups(self):
        problems = [_mqo(1)] * 4
        plan = compile_plan(problems, "sa", seed=0, max_shard_size=2)
        assert len(plan.shards) == 2
        assert sorted(len(s.items) for s in plan.shards) == [2, 2]
        with pytest.raises(ReproError, match="max_shard_size"):
            compile_plan(problems, "sa", seed=0, max_shard_size=0)

    def test_cache_keys_depend_on_shard_history(self):
        plan = compile_plan([_mqo(1), _mqo(1)], "sa", seed=0)
        leader, follower = plan.shards[0].items
        assert leader.cache_key != follower.cache_key
        # Same batch recompiled -> identical keys (content-addressed).
        again = compile_plan([_mqo(1), _mqo(1)], "sa", seed=0)
        assert [i.cache_key for i in plan.items] == [i.cache_key for i in again.items]

    def test_instance_backend_disables_caching(self):
        backend = get_backend("sa", num_reads=4, num_sweeps=40)
        plan = compile_plan([_mqo(1)], backend, seed=0)
        assert not plan.cacheable
        assert plan.items[0].cache_key is None
        with pytest.raises(ReproError, match="backend_opts"):
            compile_plan([_mqo(1)], backend, seed=0, backend_opts={"num_reads": 2})

    def test_instance_backend_rejects_shard_splitting(self):
        # Split shards sharing one live instance would be scheduling-dependent.
        backend = get_backend("sa", num_reads=4, num_sweeps=40)
        with pytest.raises(ReproError, match="by name"):
            compile_plan([_mqo(1)] * 4, backend, seed=0, max_shard_size=2)


class TestAsProblems:
    def test_batch_coercion_tags_position(self):
        with pytest.raises(ReproError, match="batch item 1"):
            as_problems([generate_mqo_problem(2, 2, rng=0), object()])

    def test_batch_coercion_wraps_raw_objects(self):
        problems = as_problems([generate_mqo_problem(2, 2, rng=0)])
        assert problems[0].name == "mqo"

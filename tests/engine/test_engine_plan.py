"""Planner: fingerprints, sharding, seed assignment, backend specs."""

import numpy as np
import pytest

from repro.api import MQOAdapter, get_backend
from repro.api.adapters import LeftDeepJoinAdapter, as_problems
from repro.db.generator import chain_query
from repro.engine import compile_plan
from repro.engine.plan import cache_keys
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


def _zero_coupling_model():
    model = QuboModel(3)
    model.add_quadratic(1, 2, 1.0)
    model.add_quadratic(0, 1, 0.0)
    return model


def _labelled_model():
    model = QuboModel()
    for label in ("c", "a", "b"):
        model.variable(label)
    model.add_quadratic("a", "c", 2.0)
    model.add_quadratic("b", "a", -1.0)
    model.add_linear("b", 1.0)
    return model


class TestSignatureKey:
    """Stored scoreboard rows are keyed on these hex values, so they must not
    move: a store file written by an older build keeps routing."""

    PINNED = {
        "empty": (lambda: QuboModel(0), "6f5ff886b9ad57ab"),
        # A stored zero coupling is part of the structure.
        "zero-coupling": (_zero_coupling_model, "4cfcadd03be749fa"),
        # Labels do not enter the signature: same pairs, same key.
        "labelled": (_labelled_model, "4cfcadd03be749fa"),
        "mqo": (lambda: MQOAdapter(generate_mqo_problem(3, 3, sharing_density=0.4,
                                                         rng=5)).to_qubo(), "395dcc221e3cd22c"),
        "join": (lambda: LeftDeepJoinAdapter(chain_query(4, rng=2)).to_qubo(), "b23863980b518446"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_signature_key_is_pinned(self, case):
        build, key = self.PINNED[case]
        model = build()
        assert model.signature() == key


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
        plan = compile_plan([_mqo(1), _mqo(1)], "annealer", seed=0)
        (shard,) = plan.shards
        leader_key, follower_key = cache_keys(shard, plan.refine, plan.top_k)
        follower = shard.items[1]
        solo = compile_plan([_mqo(1)], "annealer", seeds=[follower.seed])
        assert follower_key != cache_keys(solo.shards[0], solo.refine, solo.top_k)[0]
        assert leader_key != follower_key
        # Same batch recompiled -> identical keys (content-addressed).
        again = compile_plan([_mqo(1), _mqo(1)], "annealer", seed=0)
        assert cache_keys(again.shards[0], again.refine, again.top_k) == [
            leader_key, follower_key
        ]

    def test_stateless_follower_key_equals_a_standalone_solve(self):
        plan = compile_plan([_mqo(1), _mqo(1)], "sa", seed=0)
        (shard,) = plan.shards
        follower_key = cache_keys(shard, plan.refine, plan.top_k)[1]
        solo = compile_plan([_mqo(1)], "sa", seeds=[shard.items[1].seed])
        assert follower_key == cache_keys(solo.shards[0], solo.refine, solo.top_k)[0]

    def test_keys_of_stateful_shards_and_stateless_leaders_are_stable(self):
        """Entries stored by stateful shards, stateless shard leaders and
        standalone solves stay reachable: these hex keys were recorded
        before stateless keys dropped their shard history."""
        plan = compile_plan([_mqo(1)] * 3, "annealer", seed=0)
        assert cache_keys(plan.shards[0], plan.refine, plan.top_k) == [
            "484286ebd7eea7fa8225381e86bec067deb3d26b3f8ab481cd793ae785cb2156",
            "697b56494d80ccee5019aa8c456ec1e4ca8601811871105c149b3e28d15b4067",
            "72e51807f4380d5de56941e0d33fdb7513078251afbce0466beb24d3c3584a92",
        ]
        plan = compile_plan([_mqo(1), _mqo(1)], "sa", seed=0)
        assert cache_keys(plan.shards[0], plan.refine, plan.top_k) == [
            "f649690b1064ae9a68e07ce1e386c9b4e5c697a62b819eb658605d7427cda390",
            # The follower now keys as a standalone solve with its seed did.
            "bb17c22ad278fe123d604ff5fa0c94a29544a1466111f4e9847aea2524c40ef0",
        ]

    @pytest.mark.parametrize("bad", [1.5, "3", True, np.bool_(True), -1, 2**63 - 1, None])
    def test_explicit_seeds_must_be_integers_in_range(self, bad):
        with pytest.raises(ReproError, match=r"seeds\[1\]"):
            compile_plan([_mqo(1), _mqo(5)], "sa", seeds=[3, bad])

    @pytest.mark.parametrize("good", [0, np.int64(3), 2**63 - 2, np.random.default_rng(0)])
    def test_explicit_seeds_accept_integers_and_generators(self, good):
        seed = compile_plan([_mqo(1)], "sa", seeds=[good]).items[0].seed
        if isinstance(good, np.random.Generator):
            assert seed is good
        else:
            assert type(seed) is int and seed == good

    def test_instance_backend_disables_caching(self):
        backend = get_backend("sa", num_reads=4, num_sweeps=40)
        plan = compile_plan([_mqo(1)], backend, seed=0)
        assert not plan.cacheable
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

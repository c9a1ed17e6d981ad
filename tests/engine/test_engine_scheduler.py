"""Adaptive scheduler: scoreboard convergence, exploration, deadline routing.

The scripted backends here have *known* quality and latency (fixed returned
bits, fixed sleeps), so every routing claim is checked against ground truth
rather than against whatever a stochastic sampler happened to produce.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import register_backend
from repro.api.backends import Backend
from repro.api.problem import Problem
from repro.engine import (
    AdaptiveScheduler,
    BackendScoreboard,
    ResultCache,
    compile_plan,
)
from repro.engine.plan import cache_keys
from repro.exceptions import ReproError
from repro.mqo import generate_mqo_problem
from repro.qubo.model import QuboModel
from repro.qubo.sampleset import SampleSet
from repro.txn import generate_transactions


class ToyProblem(Problem):
    """Minimise the number of set bits; the optimum is all-zeros = 0."""

    name = "toy"

    def __init__(self, n: int):
        self.n = n

    def build_qubo(self) -> QuboModel:
        model = QuboModel(self.n)
        for i in range(self.n):
            model.add_linear(i, 1.0)
        for i in range(self.n - 1):
            model.add_quadratic(i, i + 1, 0.5)
        return model

    def decode(self, bits):
        return tuple(int(b) for b in bits)

    def evaluate(self, solution) -> float:
        return float(sum(solution))


class ScriptedBackend(Backend):
    """Returns a fixed bit value for every variable, after a fixed sleep."""

    def __init__(self, name: str, bit: int, delay_s: float = 0.0):
        self.name = name
        self._bit = bit
        self.delay_s = delay_s

    def run(self, jobs) -> list[SampleSet]:
        out = []
        for model, _ in jobs:
            if self.delay_s:
                time.sleep(self.delay_s)
            bits = tuple(self._bit for _ in range(model.num_variables))
            out.append(SampleSet([bits], [model.energy(bits)]))
        return out


CANDIDATES = ("scripted_good", "scripted_bad")


@pytest.fixture(autouse=True, scope="module")
def _scripted_registry():
    """Register the scripted pair at run time, not import time, and remove
    it afterwards: other modules consult ``list_backends()`` (some at
    collection time) and must never see test-only entries regardless of
    test ordering.  ("good" finds the optimum instantly; "bad" returns the
    worst point, slowly.)"""
    from repro.api import backends as backend_registry

    register_backend(
        "scripted_good", lambda **o: ScriptedBackend("scripted_good", 0), overwrite=True
    )
    register_backend(
        "scripted_bad", lambda **o: ScriptedBackend("scripted_bad", 1, delay_s=0.005),
        overwrite=True,
    )
    yield
    backend_registry._REGISTRY.pop("scripted_good", None)
    backend_registry._REGISTRY.pop("scripted_bad", None)


def _toy_batch():
    """Three structure groups so routing has several shards to place."""
    return [ToyProblem(n) for n in (4, 5, 4, 6, 5, 4)]


class TestBackendScoreboard:
    def test_ewma_tracks_quality_and_latency(self):
        board = BackendScoreboard(alpha=0.5)
        for objective, wall in ((4.0, 0.2), (2.0, 0.1), (2.0, 0.1)):
            board.observe("b", "sig", objective, wall)
        stats = board.stats("b", "sig")
        assert stats.count == 3
        assert stats.quality == pytest.approx(2.5)   # 4 -> 3 -> 2.5
        assert stats.latency == pytest.approx(0.125)
        assert stats.best_objective == 2.0

    def test_cache_hits_never_skew_latency(self):
        board = BackendScoreboard(alpha=0.5)
        board.observe("b", "sig", 1.0, 0.2)
        board.observe("b", "sig", 1.0, 0.0, cache_hit=True)
        stats = board.stats("b", "sig")
        assert stats.latency == pytest.approx(0.2)  # the hit's wall time is ignored
        assert stats.cache_hits == 1 and stats.cache_hit_rate == 0.5

    def test_signature_fallback_to_backend_global(self):
        board = BackendScoreboard()
        board.observe("b", "sig-a", 3.0, 0.1)
        fallback = board.stats("b", "sig-never-seen")
        assert fallback is not None and fallback.quality == pytest.approx(3.0)

    def test_alpha_validated(self):
        with pytest.raises(ReproError, match="alpha"):
            BackendScoreboard(alpha=0.0)


class TestRouting:
    def _warmed(self, epsilon=0.0, **kwargs):
        """A scheduler that has seen both backends on signature "sig"."""
        scheduler = AdaptiveScheduler(epsilon=epsilon, seed=7, **kwargs)
        for _ in range(5):
            scheduler.scoreboard.observe("scripted_good", "sig", 0.0, 0.001)
            scheduler.scoreboard.observe("scripted_bad", "sig", 4.0, 0.05)
        return scheduler

    def test_cold_backends_sampled_first(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0)
        scheduler.scoreboard.observe("scripted_good", "sig", 0.0, 0.001)
        decision = scheduler.choose("sig", CANDIDATES)
        assert decision.backend == "scripted_bad" and decision.mode == "cold"

    def test_converges_to_better_backend(self):
        scheduler = self._warmed(epsilon=0.0)
        decisions = [scheduler.choose("sig", CANDIDATES) for _ in range(20)]
        assert all(d.backend == "scripted_good" for d in decisions)
        assert all(d.mode == "exploit" for d in decisions)

    def test_epsilon_still_samples_the_worse_backend(self):
        scheduler = self._warmed(epsilon=0.3)
        picks = [scheduler.choose("sig", CANDIDATES).backend for _ in range(300)]
        assert picks.count("scripted_bad") > 0       # exploration happens ...
        assert picks.count("scripted_good") > picks.count("scripted_bad")  # ... but greed wins

    def test_quality_tie_breaks_toward_lower_latency(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0)
        scheduler.scoreboard.observe("scripted_good", "sig", 1.0, 0.001)
        scheduler.scoreboard.observe("scripted_bad", "sig", 1.0, 0.5)
        assert scheduler.rank("sig", CANDIDATES)[0] == "scripted_good"

    def test_unknown_latency_is_not_treated_as_instantaneous(self):
        """Cache-hit-only observations leave latency NaN; deadline routing
        must not rank such a backend as deadline-feasible on faith."""
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0, deadline_s=0.01)
        # "bad" has quality but ONLY cache-hit observations (no latency).
        scheduler.scoreboard.observe("scripted_bad", "sig", 0.0, 0.0, cache_hit=True)
        scheduler.scoreboard.observe("scripted_good", "sig", 1.0, 0.001)
        assert math.isnan(scheduler.scoreboard.stats("scripted_bad", "sig").latency)
        # Worse quality but measured-and-feasible beats unknown-latency.
        assert scheduler.rank("sig", CANDIDATES)[0] == "scripted_good"
        # A real (uncached) observation restores normal quality ranking.
        scheduler.scoreboard.observe("scripted_bad", "sig", 0.0, 0.002)
        assert scheduler.rank("sig", CANDIDATES)[0] == "scripted_bad"

    def test_deadline_demotes_slow_but_never_starves(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0, deadline_s=0.01)
        # Better quality but way over deadline vs worse quality inside it.
        scheduler.scoreboard.observe("scripted_bad", "sig", 0.0, 5.0)
        scheduler.scoreboard.observe("scripted_good", "sig", 2.0, 0.001)
        assert scheduler.choose("sig", CANDIDATES).backend == "scripted_good"
        # Every candidate over the deadline: the fastest is still routed to.
        tight = AdaptiveScheduler(epsilon=0.0, seed=0, deadline_s=1e-9)
        tight.scoreboard.observe("scripted_bad", "sig", 0.0, 5.0)
        tight.scoreboard.observe("scripted_good", "sig", 0.0, 1.0)
        assert tight.choose("sig", CANDIDATES).backend == "scripted_good"

    def test_same_seed_same_history_same_decisions(self):
        a, b = self._warmed(epsilon=0.3), self._warmed(epsilon=0.3)
        assert [a.choose("sig", CANDIDATES).backend for _ in range(50)] == [
            b.choose("sig", CANDIDATES).backend for _ in range(50)
        ]

    def test_candidate_validation(self):
        scheduler = AdaptiveScheduler()
        with pytest.raises(ReproError, match="at least one"):
            scheduler.choose("sig", [])
        with pytest.raises(ReproError, match="registry name"):
            scheduler.choose("sig", [ScriptedBackend("x", 0)])
        with pytest.raises(ReproError, match="epsilon"):
            AdaptiveScheduler(epsilon=1.5)
        with pytest.raises(ReproError, match="race_top_k"):
            AdaptiveScheduler(race_top_k=0)


class TestScheduledBatch:
    def test_batch_routes_every_shard_and_converges(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3)
        # Warmup batches sample both backends (cold-first), then exploit.
        for _ in range(3):
            results = repro.solve_many(
                _toy_batch(), backend=CANDIDATES, scheduler=scheduler, seed=11
            )
            assert all(r is not None for r in results)
        final = repro.solve_many(
            _toy_batch(), backend=CANDIDATES, scheduler=scheduler, seed=11
        )
        assert all(r.scheduled_backend == "scripted_good" for r in final)
        assert all(r.engine["scheduler"]["mode"] == "exploit" for r in final)
        assert all(r.objective == 0.0 for r in final)

    def test_deadline_routing_never_starves_a_shard(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3, deadline_s=1e-9)
        for _ in range(2):
            results = repro.solve_many(
                _toy_batch(), backend=CANDIDATES, scheduler=scheduler, seed=11
            )
        # Nothing can meet a nanosecond deadline, yet every shard still ran.
        assert all(r is not None and r.solution is not None for r in results)
        assert len(results) == len(_toy_batch())

    def test_scheduled_batch_deterministic_across_executors(self):
        def run(executor):
            scheduler = AdaptiveScheduler(epsilon=0.1, seed=5)
            out = []
            for _ in range(2):
                out.append([
                    (r.objective, r.method)
                    for r in repro.solve_many(
                        _toy_batch(), backend=CANDIDATES, scheduler=scheduler, seed=11,
                        executor=executor,
                    )
                ])
            return out

        assert run("serial") == run("processes")

    def test_mixed_routing_dispatches_as_one_wave(self):
        """Shards routed to different backends must reach the executor in a
        single run call, not one sequential wave per backend."""
        from repro.engine import Executor

        class CountingExecutor(Executor):
            name = "counting"

            def __init__(self):
                self.calls = []

            def run(self, worker, payloads):
                self.calls.append(len(payloads))
                return [worker(p) for p in payloads]

        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0)
        # Warm the scoreboard so exploitation splits the batch: "good" wins
        # the n=4 and n=6 structures, "bad" wins n=5.
        signatures = {
            n: ToyProblem(n).to_qubo().signature() for n in (4, 5, 6)
        }
        for n, winner in ((4, "scripted_good"), (5, "scripted_bad"), (6, "scripted_good")):
            loser = "scripted_bad" if winner == "scripted_good" else "scripted_good"
            scheduler.scoreboard.observe(winner, signatures[n], 0.0, 0.001)
            scheduler.scoreboard.observe(loser, signatures[n], 5.0, 0.001)
        counting = CountingExecutor()
        results = repro.solve_many(
            _toy_batch(), backend=CANDIDATES, scheduler=scheduler, seed=11,
            executor=counting,
        )
        assert {r.scheduled_backend for r in results} == set(CANDIDATES)
        assert len(counting.calls) == 1  # one dispatch wave for both backends

    def test_seeds_match_unscheduled_compilation(self):
        """Routing must not perturb the compiled child seeds."""
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3)
        scheduled = repro.solve_many(
            _toy_batch(), backend=CANDIDATES, scheduler=scheduler, seed=11
        )
        plain = repro.solve_many(_toy_batch(), backend="scripted_good", seed=11)
        assert [r.engine["seed"] for r in scheduled] == [r.engine["seed"] for r in plain]

    def test_backend_opts_validated(self):
        scheduler = AdaptiveScheduler()
        with pytest.raises(ReproError, match="no candidate backend"):
            repro.solve_many(
                _toy_batch(), backend=CANDIDATES, scheduler=scheduler, sa={}
            )

    @pytest.mark.parametrize("bad", ["sa", "tabu"])
    def test_bad_option_raises_whatever_the_routing(self, bad):
        """Every candidate is built up front, so an option error never hides
        behind a scheduler RNG that happened to route elsewhere."""
        for seed in range(6):
            with pytest.raises(TypeError, match="bogus"):
                repro.solve_many(
                    [ToyProblem(4)], backend=("sa", "tabu"), seed=1,
                    scheduler=AdaptiveScheduler(seed=seed), **{bad: {"bogus": 1}},
                )

    def test_facade_rejects_sequence_without_scheduler(self):
        with pytest.raises(ReproError, match="scheduler"):
            repro.solve_many(_toy_batch(), backend=CANDIDATES, seed=1)


class TestScheduledPortfolio:
    def test_route_then_race_top_k(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3, race_top_k=1)
        # With k=1 each round races one backend: two cold-sampling rounds
        # (one per candidate), then the scoreboard exploits.
        for _ in range(3):
            result = repro.solve_portfolio(
                ToyProblem(4), backends=CANDIDATES, seed=5, scheduler=scheduler
            )
        meta = result.info["portfolio_meta"]["scheduler"]
        assert meta["ranked"][0] == "scripted_good"
        assert meta["raced"] == ["scripted_good"]
        assert result.method == "scripted_good" and result.objective == 0.0
        # sha256(repr((4, ((0, 1), (1, 2), (2, 3)))))[:16]: a chain of 4.
        assert meta["signature"] == ToyProblem(4).to_qubo().signature() == "aab0c3bf0f402c65"

    def test_scoreboard_fed_by_raced_contenders(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3, race_top_k=2)
        repro.solve_portfolio(ToyProblem(4), backends=CANDIDATES, seed=5, scheduler=scheduler)
        assert scheduler.scoreboard.seen("scripted_good")
        assert scheduler.scoreboard.seen("scripted_bad")

    def test_facade_scheduler_path(self):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=3)
        result = repro.solve_portfolio(
            ToyProblem(4), backends=CANDIDATES, seed=5, scheduler=scheduler
        )
        assert "scheduler" in result.info["portfolio_meta"]


# -- property: routing is a per-shard backend choice, nothing more ------------

ROUTED = ("sa", "tabu")
ROUTED_OPTS = {"sa": {"num_reads": 4, "num_sweeps": 30}, "tabu": {"num_restarts": 1}}


def _instance(kind: str, rng: int):
    if kind == "mqo":
        return generate_mqo_problem(3, 2, sharing_density=0.4, rng=rng)
    return generate_transactions(3, num_items=3, rng=rng)


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(["mqo", "txn"]), st.integers(0, 2)), min_size=1, max_size=6
    ),
    batch_seed=st.integers(0, 2**31),
    scheduler_seed=st.integers(0, 2**16),
    epsilon=st.floats(0.0, 1.0),
    max_shard_size=st.sampled_from([None, 1, 2]),
)
def test_routed_items_equal_unscheduled_runs_on_their_backend(
    specs, batch_seed, scheduler_seed, epsilon, max_shard_size
):
    """Every item of a scheduled batch equals the same item of an unscheduled
    batch on the backend its shard was routed to: solution, objective,
    seed, shard id, and cache key."""
    batch = [_instance(kind, rng) for kind, rng in specs]
    cache = ResultCache()
    scheduled = repro.solve_many(
        batch, backend=ROUTED, seed=batch_seed, max_shard_size=max_shard_size, cache=cache,
        scheduler=AdaptiveScheduler(epsilon=epsilon, seed=scheduler_seed), **ROUTED_OPTS,
    )
    plain, keys = {}, {}
    for name in {r.engine["scheduler"]["backend"] for r in scheduled}:
        plain[name] = repro.solve_many(
            batch, backend=name, seed=batch_seed, max_shard_size=max_shard_size,
            **ROUTED_OPTS[name],
        )
        plan = compile_plan(
            batch, name, seed=batch_seed, max_shard_size=max_shard_size,
            backend_opts=ROUTED_OPTS[name],
        )
        keys[name] = {
            item.index: key
            for shard in plan.shards
            for item, key in zip(shard.items, cache_keys(shard, plan.refine, plan.top_k))
        }
    assert len(cache) == len(batch)
    for index, result in enumerate(scheduled):
        name = result.engine["scheduler"]["backend"]
        reference = plain[name][index]
        assert result.method == reference.method
        assert result.solution == reference.solution
        assert result.objective == reference.objective
        assert result.engine["seed"] == reference.engine["seed"]
        assert result.engine["shard"] == reference.engine["shard"]
        stored = cache.get(keys[name][index])
        assert stored is not None
        assert stored.solution == result.solution and stored.objective == result.objective

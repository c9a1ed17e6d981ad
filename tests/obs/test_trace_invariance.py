"""Tracing must observe the engine, never steer it.

The acceptance bar for the observability layer: with a tracer active, every
objective, child seed, QUBO fingerprint, and cache key is byte-identical to
the untraced run — span ids come from ``os.urandom`` and timing from
``perf_counter``, neither of which touches a numpy RNG stream.  These tests
pin that across the full executor matrix, and pin the span taxonomy each
engine layer emits (the flight recorder is only as useful as the spans the
hot path actually produces).
"""

import pytest

import repro
from repro import obs
from repro.api import MQOAdapter
from repro.api.adapters import RawQuboProblem
from repro.api.backends import BruteForceBackend
from repro.engine import AdaptiveScheduler, ResultCache, solve_decomposed
from repro.mqo import generate_mqo_problem
from repro.qubo.model import QuboModel

ALL_EXECUTORS = ["serial", "processes"]
MATRIX_BACKENDS = {
    "tabu": dict(num_restarts=2, max_iterations=40),
    "sa": dict(num_reads=3, num_sweeps=30),
}

#: The pinned canonical MQO fingerprint from tests/engine/
#: test_engine_fingerprints.py — duplicated literally so a traced
#: formulation is checked against the same frozen constant, not against
#: itself.
GOLDEN_MQO_FP = "b00f5e863ae01a4e0187594d033aeb3fb2ff758887f74987307fcf3fec324b82"


def _batch():
    """Two structure groups so shards, caches, and routing all engage."""
    return [
        MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=r))
        for r in (1, 5, 1)
    ]


def _signature(results):
    """Everything determinism promises to hold fixed, as one comparable."""
    return [
        (r.objective, r.solution, r.energy,
         r.info["engine"]["seed"], r.info["engine"]["fingerprint"])
        for r in results
    ]


class TestTraceInvariance:
    """serial/processes x tabu/sa: tracing on == tracing off."""

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    @pytest.mark.parametrize("backend", sorted(MATRIX_BACKENDS))
    def test_traced_run_matches_untraced(self, backend, executor):
        opts = MATRIX_BACKENDS[backend]
        baseline = repro.solve_many(
            _batch(), backend=backend, seed=11, executor=executor, **opts
        )
        collector = obs.SpanCollector()
        with obs.activate(collector):
            traced = repro.solve_many(
                _batch(), backend=backend, seed=11, executor=executor, **opts
            )
        assert _signature(traced) == _signature(baseline)
        spans = collector.drain()
        # No cache configured, so no cache.lookup spans on this path.
        assert {s["name"] for s in spans} >= {
            "facade.solve_many", "engine.plan_compile", "engine.execute",
            "engine.shard", "engine.solve",
        }
        # One engine.solve span per item, each joined to its result.
        solves = {s["span_id"] for s in spans if s["name"] == "engine.solve"}
        assert len(solves) == len(traced)
        assert all(r.info["trace"]["span_id"] in solves for r in traced)

    def test_golden_fingerprint_is_byte_identical_under_tracing(self):
        with obs.activate(obs.SpanCollector()):
            model = MQOAdapter(
                generate_mqo_problem(3, 2, sharing_density=0.4, rng=7)
            ).to_qubo()
            assert model.fingerprint() == GOLDEN_MQO_FP

    def test_single_solve_traced_matches_untraced(self):
        problem = MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=2))
        baseline = repro.solve(problem, backend="sa", seed=5, num_reads=3,
                               num_sweeps=30)
        collector = obs.SpanCollector()
        with obs.activate(collector):
            traced = repro.solve(problem, backend="sa", seed=5, num_reads=3,
                                 num_sweeps=30)
        assert traced.objective == baseline.objective
        assert traced.solution == baseline.solution
        assert traced.energy == baseline.energy
        names = [s["name"] for s in collector.drain()]
        assert "facade.solve" in names and "engine.solve" in names

    def test_portfolio_traced_matches_untraced_as_one_plan(self, monkeypatch):
        """A portfolio is one plan: one compile (the problem signed and
        fingerprinted once) and one execute under the facade span, and one
        ``engine.solve`` per contender."""
        calls = {"signature": 0, "fingerprint": 0}
        signature, fingerprint = QuboModel.signature, QuboModel.fingerprint

        def counted_signature(model):
            calls["signature"] += 1
            return signature(model)

        def counted_fingerprint(model, *args, **kwargs):
            calls["fingerprint"] += 1
            return fingerprint(model, *args, **kwargs)

        monkeypatch.setattr(QuboModel, "signature", counted_signature)
        monkeypatch.setattr(QuboModel, "fingerprint", counted_fingerprint)
        kwargs = dict(backends=("sa", "tabu", "sa"), seed=5, backend_opts=MATRIX_BACKENDS)

        def problem():
            return MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=2))

        def pinned(result):
            return (_signature([result]), result.method,
                    [(e["method"], e["objective"]) for e in result.info["portfolio"]])

        baseline = repro.solve_portfolio(problem(), **kwargs)
        assert calls == {"signature": 1, "fingerprint": 1}
        collector = obs.SpanCollector()
        with obs.activate(collector):
            traced = repro.solve_portfolio(problem(), **kwargs)
        assert calls == {"signature": 2, "fingerprint": 2}
        assert pinned(traced) == pinned(baseline)
        spans = collector.drain()
        (facade,) = [s for s in spans if s["name"] == "facade.solve_portfolio"]
        for name in ("engine.plan_compile", "engine.execute"):
            (span,) = [s for s in spans if s["name"] == name]
            assert span["parent_id"] == facade["span_id"]
        solves = [s for s in spans if s["name"] == "engine.solve"]
        assert len(solves) == 3
        assert traced.info["trace"]["span_id"] in {s["span_id"] for s in solves}


class TestWorkerPropagation:
    """The payload-carried TraceContext: spans survive pool boundaries."""

    @pytest.mark.parametrize("executor", ["processes"])
    def test_pool_workers_report_spans_into_the_request_trace(self, executor):
        collector = obs.SpanCollector()
        with obs.activate(collector):
            repro.solve_many(_batch(), backend="sa", seed=3, executor=executor,
                             num_reads=2, num_sweeps=20)
        spans = collector.drain()
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        trace_ids = {s["trace_id"] for s in spans}
        assert len(trace_ids) == 1  # worker spans re-homed, not orphan traces
        shard_ids = {s["span_id"] for s in by_name["engine.shard"]}
        for solve in by_name["engine.solve"]:
            assert solve["parent_id"] in shard_ids
        for shard in by_name["engine.shard"]:
            assert shard["attrs"]["executor"] == executor
            assert len(shard["attrs"]["signature"]) == 16


class TestSpanTaxonomy:
    def test_cache_lookup_spans_report_hit_and_tier(self):
        cache = ResultCache()
        problems = _batch()
        collector = obs.SpanCollector()
        with obs.activate(collector):
            first = repro.solve_many(problems, backend="sa", seed=9, cache=cache,
                                     num_reads=2, num_sweeps=20)
        cold = [s for s in collector.drain() if s["name"] == "cache.lookup"]
        assert cold and all(s["attrs"]["hit"] is False for s in cold)
        assert all(s["attrs"]["tier"] is None for s in cold)

        with obs.activate(collector):
            second = repro.solve_many(problems, backend="sa", seed=9, cache=cache,
                                      num_reads=2, num_sweeps=20)
        warm = [s for s in collector.drain() if s["name"] == "cache.lookup"]
        assert warm and all(s["attrs"]["hit"] is True for s in warm)
        assert all(s["attrs"]["tier"] == "memory" for s in warm)
        assert all(r.cache_hit for r in second)
        assert _signature(second) == _signature(first)
        # Cache-served results still carry a trace join key (the lookup span).
        warm_ids = {s["span_id"] for s in warm}
        assert all(r.info["trace"]["span_id"] in warm_ids for r in second)

    def test_scheduled_path_emits_route_and_checkpoint_spans(self, tmp_path):
        scheduler = AdaptiveScheduler(epsilon=0.0, seed=0)
        collector = obs.SpanCollector()
        with obs.activate(collector):
            results = repro.solve_many(
                _batch(), backend=["sa", "tabu"], scheduler=scheduler, seed=11,
                store=tmp_path / "engine.db",
                sa=dict(num_reads=2, num_sweeps=20),
                tabu=dict(num_restarts=1, max_iterations=30),
            )
        assert len(results) == 3
        spans = collector.drain()
        names = {s["name"] for s in spans}
        assert {"engine.plan_compile", "scheduler.route",
                "store.checkpoint"} <= names
        routes = [s for s in spans if s["name"] == "scheduler.route"]
        assert len(routes) == 2  # one decision per structure shard
        for route in routes:
            assert route["attrs"]["backend"] in ("sa", "tabu")
            assert route["attrs"]["mode"] in ("cold", "explore", "exploit")
            assert len(route["attrs"]["signature"]) == 16
        (checkpoint,) = [s for s in spans if s["name"] == "store.checkpoint"]
        assert checkpoint["attrs"]["observations"] >= 1

    def test_decomposer_emits_round_spans(self):
        model = QuboModel(num_variables=8)
        for i in range(8):
            model.add_linear(i, 1.0)
        for i in range(7):
            model.add_quadratic(i, i + 1, -0.5)
        collector = obs.SpanCollector()
        with obs.activate(collector):
            solve_decomposed(
                RawQuboProblem(model), BruteForceBackend(), capacity=4, seed=1,
                backend_name="bruteforce",
            )
        spans = collector.drain()
        (outer,) = [s for s in spans if s["name"] == "engine.decompose"]
        rounds = [s for s in spans if s["name"] == "decompose.round"]
        assert outer["attrs"]["capacity"] == 4
        assert outer["attrs"]["rounds"] == len(rounds) >= 1
        assert all("energy" in r["attrs"] for r in rounds)


KERNEL_PARTS = ("formulate_time", "solve_time", "decode_time", "refine_time", "evaluate_time")


class TestTimingSplit:
    def test_engine_info_splits_wall_time(self):
        (result,) = repro.solve_many(
            [MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=4))],
            backend="sa", seed=2, num_reads=2, num_sweeps=20,
        )
        engine = result.info["engine"]
        for key in KERNEL_PARTS + ("cache_time",):
            assert engine[key] >= 0.0
        # The split partitions the measured wall time (formulation,
        # sampling and the classical half happen inside it; the cache
        # probe is paid outside).
        assert engine["formulate_time"] + engine["solve_time"] <= result.wall_time * 1.05
        assert sum(engine[key] for key in KERNEL_PARTS) <= result.wall_time * 1.05
        assert engine["decode_time"] > 0.0 and engine["evaluate_time"] > 0.0
        assert result.timings == {
            "formulate_time": engine["formulate_time"],
            "solve_time": engine["solve_time"],
            "decode_time": engine["decode_time"],
            "refine_time": engine["refine_time"],
            "evaluate_time": engine["evaluate_time"],
            "cache_time": engine["cache_time"],
        }
        payload = result.to_json_dict()
        assert payload["info"]["engine"]["solve_time"] == engine["solve_time"]
        assert payload["info"]["timings"]["formulate_time"] == pytest.approx(
            engine["formulate_time"]
        )
        for key in KERNEL_PARTS:
            assert payload["info"]["timings"][key] == pytest.approx(engine[key])

    def test_direct_solve_splits_refine_and_evaluate(self):
        (result,) = repro.solve_many(
            [MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=4))],
            backend="classical", seed=2,
        )
        timings = result.timings
        assert set(timings) == set(KERNEL_PARTS) | {"cache_time"}
        assert timings["decode_time"] == 0.0  # nothing to decode off-QUBO
        assert timings["refine_time"] > 0.0 and timings["evaluate_time"] > 0.0
        assert sum(timings[key] for key in KERNEL_PARTS) <= result.wall_time * 1.05

    def test_cache_hit_keeps_original_split_but_own_probe_cost(self):
        cache = ResultCache()
        problem = [MQOAdapter(generate_mqo_problem(3, 2, sharing_density=0.4, rng=6))]
        (cold,) = repro.solve_many(problem, backend="sa", seed=8, cache=cache,
                                   num_reads=2, num_sweeps=20)
        (warm,) = repro.solve_many(problem, backend="sa", seed=8, cache=cache,
                                   num_reads=2, num_sweeps=20)
        assert warm.cache_hit and not cold.cache_hit
        assert warm.engine["cache_tier"] == "memory"
        # The memoised result keeps the original solve's split ...
        assert warm.engine["solve_time"] == cold.engine["solve_time"]
        assert warm.engine["formulate_time"] == cold.engine["formulate_time"]
        # ... while cache_time is the probe this dispatch actually paid.
        assert warm.engine["cache_time"] >= 0.0

    def test_timings_property_falls_back_off_engine(self):
        from repro.api.result import SolveResult

        bare = SolveResult(problem="x", method="sa", solution=(), objective=0.0)
        assert bare.timings == {}
        kernel_only = SolveResult(
            problem="x", method="sa", solution=(), objective=0.0,
            info={"timings": {"formulate_time": 0.25, "solve_time": 0.5}},
        )
        assert kernel_only.timings == {"formulate_time": 0.25, "solve_time": 0.5}

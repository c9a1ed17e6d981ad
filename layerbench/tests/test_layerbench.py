"""Self-tests of the benchmark's helpers (no server, no timed runs).

Run: ``PYTHONPATH=src python -m pytest layerbench/tests -q``
"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from layerbench import gen, layers, stats  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(list(range(100))) == (90.0, pytest.approx(89.1))
    assert stats.tail_percentile(list(range(200)))[0] == 95.0
    assert stats.tail_percentile(list(range(1000)))[0] == 99.0
    assert stats.tail_percentile(list(range(99)))[0] == 75.0
    assert stats.tail_percentile(list(range(19))) is None
    for n in (20, 57, 100, 128, 333):
        q, _ = stats.tail_percentile(list(range(n)))
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND


def test_percentile_interpolates_like_the_textbook():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([0.0, 10.0], 90) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("name", ["latency_p50_s", "api.refine_s", "obs.trace-overhead", "9x"])
def test_metric_name_pattern_accepts(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "a b", "x/y", "_lead", "p95%", "a" * 65])
def test_metric_name_pattern_rejects(name):
    assert not stats.valid_metric_name(name)


def test_declared_metrics_are_valid_and_mapped():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(map(stats.valid_metric_name, names))
    assert len(names) == len(set(names))
    layer_map = layers.load_layer_map()["per_layer"]
    assert all(map(stats.valid_metric_name, layer_map))
    assert sorted(k for k, v in layer_map.items() if v["in_benchmark_json"]) == sorted(
        m["name"] for m in spec["per_layer"])


def test_slo_counts_failures_and_refusals_as_misses():
    outcomes = [(True, 0.2), (True, 1.5), (False, 0.1), (False, None), (True, 1.0)]
    assert stats.slo_fraction(outcomes, 1.0) == pytest.approx(2 / 5)
    with pytest.raises(ValueError):
        stats.slo_fraction([], 1.0)


def test_objective_ratio_orientation():
    assert stats.objective_ratio(110.0, 100.0) == pytest.approx(1.1)
    # Negated-score domain: achieved score 8 against a baseline score 10.
    assert stats.objective_ratio(-8.0, -10.0) == pytest.approx(1.25)
    assert stats.objective_ratio(0.0, -10.0) == float("inf")


def test_batch_generator_is_deterministic_per_seed():
    for workload in gen.BATCH_SIZES:
        a = gen.batch_descriptors(workload, 7)
        assert a == gen.batch_descriptors(workload, 7)
        assert a != gen.batch_descriptors(workload, 8)
        assert len(a) == 4 * gen.BATCH_PER_DOMAIN
        assert gen.batch_item_seeds(workload, 7, 32) == gen.batch_item_seeds(workload, 7, 32)


def test_batch_generator_builds_same_qubos_per_seed():
    descs = gen.batch_descriptors("table1-small-sa", 3)
    first = [gen.build_problem(d).to_qubo().fingerprint() for d in descs]
    assert first == [gen.build_problem(d).to_qubo().fingerprint() for d in descs]


def test_service_requests_are_deterministic_prefixes():
    long = gen.service_requests("service-steady", 11, 300)
    assert long == gen.service_requests("service-steady", 11, 300)
    assert long[:40] == gen.service_requests("service-steady", 11, 40)
    assert long != gen.service_requests("service-steady", 12, 300)
    repeats = [r for r in long if r["repeat"]]
    assert 0.15 < len(repeats) / len(long) < 0.35
    earlier = {(json.dumps(r["problem"], sort_keys=True), r["seed"]) for r in long
               if not r["repeat"]}
    assert all((json.dumps(r["problem"], sort_keys=True), r["seed"]) in earlier
               for r in repeats)


def test_service_requests_send_the_same_shapes_for_every_seed():
    def shapes(seed):
        fresh = [r["problem"] for r in gen.service_requests("service-steady", seed, 2 * gen.BLOCK)
                 if not r["repeat"]]
        return sorted((p["kind"], p.get("topology"), p.get("instance")) for p in fresh)

    assert shapes(1) == shapes(2)
    assert shapes(1).count(("joinorder", "chain", None)) == 9


def test_sql_scripts_compile_to_enough_instances():
    from repro.db.sql import parse_script
    from repro.service.problems import problem_from_spec

    rng = random.Random(5)
    for _ in range(20):
        script, catalog = gen.sql_script(rng)
        assert len(parse_script(script)) == 5
        for instance in range(gen.WORKLOAD_INSTANCES):
            problem_from_spec({"kind": "workload", "script": script, "catalog": catalog,
                               "instance": instance})


def test_fastest_takes_the_best_round_and_each_instance_best():
    from layerbench.batch import fastest

    batch_s, per_item = fastest([1.0, 2.0, 1.5], [[0.4, 0.5], [0.3, 1.5], [0.6, 0.8]])
    assert batch_s == 1.0
    assert per_item == [0.3, 0.5]


def test_calibration_scales_by_the_fastest_kernel():
    from layerbench import calibrate

    ref = calibrate.REFERENCE_S
    assert calibrate.scale([4 * ref, 2 * ref, 3 * ref]) == pytest.approx(0.5)


def test_calibration_process_answers_and_stops():
    from layerbench import calibrate

    with calibrate.Probe() as probe:
        assert probe.sample() > 0
        with probe.sampling(0.01) as samples:
            time.sleep(0.3)
    assert samples and all(s > 0 for s in samples)
    assert probe.proc.returncode == 0


def _span(name, start, duration, span_id=None, parent_id=None):
    return {"name": name, "start_s": start, "duration_s": duration, "span_id": span_id,
            "parent_id": parent_id, "attrs": {}}


def test_self_time_subtracts_nested_children():
    spans = [_span("outer", 0.0, 10.0, "o"), _span("a", 1.0, 2.0, "a", "o"),
             _span("b", 4.0, 3.0, "b", "o"), _span("b.inner", 5.0, 1.0, "i", "b")]
    agg = layers.aggregate(spans)
    assert agg["outer"]["self"] == pytest.approx(5.0)
    assert agg["b"]["self"] == pytest.approx(2.0)
    assert agg["b.inner"]["self"] == pytest.approx(1.0)


def test_self_time_moves_a_span_under_the_descendant_that_contains_it():
    # "run" names "execute" as parent but ran inside "solve", which the
    # engine opened without making it the current span.
    spans = [_span("execute", 0.0, 10.0, "e"), _span("solve", 1.0, 4.0, "s", "e"),
             _span("run", 2.0, 1.0, "r", "e"), _span("after", 6.0, 1.0, "a", "e")]
    agg = layers.aggregate(spans)
    assert agg["solve"]["self"] == pytest.approx(3.0)
    assert agg["execute"]["self"] == pytest.approx(5.0)


def test_self_time_clips_and_merges_children():
    spans = [_span("req", 0.0, 2.0, "r"), _span("wait", 1.0, 5.0, "w", "r"),
             _span("wave", 10.0, 4.0, "v"), _span("s1", 10.0, 3.0, "1", "v"),
             _span("s2", 11.0, 3.0, "2", "v")]
    agg = layers.aggregate(spans)
    assert agg["req"]["self"] == pytest.approx(1.0)
    assert agg["wave"]["self"] == pytest.approx(0.0)
    assert layers.overhead(spans, outer="wave", inner="s1") == pytest.approx(1.0)

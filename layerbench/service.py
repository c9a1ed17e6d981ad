"""The service workload: an open loop at a fixed rate over HTTP."""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from layerbench import calibrate, gen, layers
from layerbench.http_load import SA_OPTS, Server, get_json, http, open_loop, parse_metrics
from layerbench.stats import objective_ratio, percentile

WORKLOAD = "service-steady"
STEADY_RATE = 5.0  # requests per second, open loop
#: Latency limit of ``slo_frac``, due time to finish of one request.
SLO_S = 1.0
SETUP_REPEATS = 3  # set-ups before the load, and as many after it
KERNEL_PERIOD_S = 2.0  # a kernel sample (about 0.1 s) this often during the load
ORACLE_SAMPLE = 8
#: A run is invalid when the generator's p95 lag exceeds this share of the
#: inter-arrival gap it had to keep.
LAG_FRACTION = 0.25
WARMUP = {"problem": {"kind": "joinorder", "topology": "chain", "num_relations": 3,
                      "instance_seed": 0}, "seed": 0, "wait": True}


def _max_conns() -> int:
    return os.cpu_count() or 1


def _requests(seed: int, seconds: float) -> list:
    return gen.service_requests(WORKLOAD, seed, int(STEADY_RATE * seconds))


def _boot(root: Path, workdir: Path, trace: bool, tag: str) -> "tuple[Server, float]":
    """Boot a server and make the warm-up call; returns (server, boot+warm-up seconds)."""
    server = Server(root, workdir, trace=trace, tag=tag)
    t0 = time.perf_counter()
    try:
        server.start()
        status, _ = asyncio.run(http(server.port, "POST", "/v1/solve", WARMUP))
        if status != 200:
            raise RuntimeError(f"warm-up call returned HTTP {status}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


async def _drive(port: int, requests: list):
    """Run the load; returns (loadgen, before, after) with /metrics snapshots."""
    before = parse_metrics((await http(port, "GET", "/metrics"))[1].decode())
    loadgen = await open_loop(port, requests, STEADY_RATE, _max_conns())
    after = parse_metrics((await http(port, "GET", "/metrics"))[1].decode())
    return loadgen, before, after


def _load(root, workdir, requests, trace, tag, server=None):
    """Drive one server (booting it unless given) and always stop it."""
    if server is None:
        server, _ = _boot(root, workdir, trace, tag)
    try:
        loadgen, before, after = asyncio.run(_drive(server.port, requests))
        traces = []
        if trace:
            traces = asyncio.run(_traces(server.port, loadgen.records))
    finally:
        server.stop()
    return loadgen, _diff(before, after), traces


async def _traces(port: int, records: list) -> list:
    return [await get_json(port, f"/v1/traces/{r['job_id']}")
            for r in records if r["job_id"] is not None]


def _diff(before: dict, after: dict) -> dict:
    """Counter deltas over the load (gauges read as their final value)."""
    out = {}
    for name, samples in after.items():
        for labels, value in samples.items():
            out.setdefault(name, {})[labels] = value - before.get(name, {}).get(labels, 0.0)
    return out


def _total(metrics: dict, name: str) -> float:
    return sum(metrics.get(name, {}).values())


# -- outcomes ------------------------------------------------------------------


class Oracle:
    """Rebuilds each request's problem locally and checks the service's answers."""

    def __init__(self):
        self._problems: dict = {}
        self._baselines: dict = {}

    @staticmethod
    def key(spec: dict) -> str:
        return json.dumps(spec, sort_keys=True)

    def problem(self, spec: dict):
        from repro.service.problems import problem_from_spec

        key = self.key(spec)
        if key not in self._problems:
            self._problems[key] = problem_from_spec(spec)
        return self._problems[key]

    def baseline(self, spec: dict) -> float:
        key = self.key(spec)
        if key not in self._baselines:
            problem = self.problem(spec)
            self._baselines[key] = problem.evaluate(
                problem.classical_baseline(rng=np.random.default_rng(0)))
        return self._baselines[key]

    def check(self, records: list) -> dict:
        """Per-record error message (absent when the record is correct)."""
        errors: dict = {}
        first: dict = {}
        for i, rec in enumerate(records):
            if rec["job_id"] is None:
                errors[i] = f"POST /v1/solve returned HTTP {rec['http_status']}"
                continue
            job = rec["job"]
            if job["status"] != "done":
                errors[i] = f"job {job['job_id']} ended {job['status']}: {job['error']}"
                continue
            spec, result = rec["request"]["problem"], job["result"]
            problem = self.problem(spec)
            if not problem.is_feasible(result["solution"]):
                errors[i] = f"job {job['job_id']}: infeasible solution"
            elif problem.evaluate(result["solution"]) != result["objective"]:
                errors[i] = f"job {job['job_id']}: objective does not recompute"
            pair = (self.key(spec), rec["request"]["seed"])
            if first.setdefault(pair, result["objective"]) != result["objective"]:
                errors[i] = f"job {job['job_id']}: repeat of an earlier request differs"
        self._check_direct(records, errors)
        return errors

    def _check_direct(self, records: list, errors: dict) -> None:
        """A fixed sample of jobs must equal a direct ``repro.solve``."""
        import repro

        seen = set()
        for i, rec in enumerate(records):
            if len(seen) == ORACLE_SAMPLE:
                return
            if i in errors or rec["request"]["repeat"]:
                continue
            spec, seed = rec["request"]["problem"], rec["request"]["seed"]
            seen.add(i)
            direct = repro.solve(self.problem(spec), backend="sa", seed=seed,
                                 **SA_OPTS).to_json_dict()
            got = rec["job"]["result"]
            if (direct["objective"], direct["solution"]) != (got["objective"], got["solution"]):
                errors[i] = f"job {rec['job']['job_id']}: differs from a direct repro.solve"


def _latency(rec: dict) -> "float | None":
    job = rec.get("job")
    if job is None or job["status"] != "done":
        return None
    return job["finished_at"] - rec["due"]


def _span(records: list) -> float:
    """Seconds from the first due time to the last finish."""
    finished = [r["job"]["finished_at"] for r in records if r.get("job")]
    return max(finished) - min(r["due"] for r in records)


def _lag_check(loadgen) -> "tuple[float, str | None]":
    lag_p95 = percentile([r["lag_s"] for r in loadgen.records], 95)
    limit = LAG_FRACTION / STEADY_RATE
    problem = None
    if lag_p95 > limit:
        problem = f"load generator lag p95 {lag_p95:.4f} s exceeds {limit:.4f} s"
    elif loadgen.peak_conns > _max_conns():
        problem = f"load generator opened {loadgen.peak_conns} connections (> nproc)"
    return lag_p95, problem


def _p50(loadgen) -> float:
    return statistics.median(x for x in map(_latency, loadgen.records) if x is not None)


# -- the two entry points ------------------------------------------------------


def _setup(root: Path, workdir: Path, seed: int, seconds: float, tag: str):
    """Generate the requests, boot a server and warm it up; returns (seconds, requests, server)."""
    t0 = time.perf_counter()
    requests = _requests(seed, seconds)
    generate_s = time.perf_counter() - t0
    server, boot_s = _boot(root, workdir, trace=False, tag=tag)
    return generate_s + boot_s, requests, server


def end_to_end(root: Path, seed: int, seconds: float) -> dict:
    workdir = root / ".layerbench" / f"{WORKLOAD}-{seed}-{os.getpid()}"
    # Every timing is in reference seconds, scaled by the fastest kernel of
    # the whole run (calibrate.py): on a shared 2-core VM the service's
    # timings drifted 20-40 % within ten minutes, and over ten seeds the
    # scale narrowed setup_s's spread from 19 % to 7 % and left the
    # latencies' unchanged.  The kernel samples during the load come from a
    # thread, so the open loop never pauses for one.  setup_s is the fastest
    # of set-ups made before and after the load: slow spells of several
    # seconds outlasted five back-to-back boots.
    setups, server = [], None
    with calibrate.Probe() as probe:
        kernels = [probe.sample()]
        try:
            for i in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                seconds_i, requests, server = _setup(root, workdir, seed, seconds, f"setup{i}")
                setups.append(seconds_i)
                kernels.append(probe.sample())
        except BaseException:
            if server is not None:
                server.stop()
            raise
        with probe.sampling(KERNEL_PERIOD_S) as during:
            loadgen, _, _ = _load(root, workdir, requests, False, "run", server=server)
        kernels += during
        for i in range(SETUP_REPEATS):
            seconds_i, _, server = _setup(root, workdir, seed, seconds, f"after{i}")
            server.stop()
            setups.append(seconds_i)
            kernels.append(probe.sample())
    scale = calibrate.scale(kernels)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    shutil.rmtree(workdir)  # kept only when a server failed, for its logs
    records = loadgen.records
    oracle = Oracle()
    errors = oracle.check(records)
    lag_p95, invalid = _lag_check(loadgen)
    done = [r for i, r in enumerate(records) if i not in errors]
    ratios = [objective_ratio(r["job"]["result"]["objective"],
                              oracle.baseline(r["request"]["problem"])) for r in done]
    latencies = [_latency(r) * scale for r in done]
    return {
        "attempted": len(records),
        "failed": len(errors),
        "errors": list(errors.values()),
        "invalid": invalid,
        "latencies": latencies,
        "slo_outcomes": [(i not in errors, None if i in errors else _latency(r) * scale)
                         for i, r in enumerate(records)],
        "slo_limit_s": SLO_S,
        "notes": [f"load generator: lag p95 {lag_p95:.4f} s, "
                  f"peak connections {loadgen.peak_conns} (nproc {_max_conns()})",
                  f"reference seconds per raw second {scale:.4f} over {len(kernels)} kernel "
                  f"samples (calibrate.py); raw: setup_s {min(setups):.6g}, latency_p50_s "
                  f"{statistics.median(_latency(r) for r in done):.6g}; "
                  f"throughput_rps {len(done) / _span(records):.6g}"],
        "values": {
            "setup_s": min(setups) * scale,
            "items_per_s": len(done) / _span(records),
            "objective_ratio": statistics.fmean(ratios),
            "peak_rss_mb": peak_rss_mb,
        },
    }


def _trace_spans(traces: list) -> tuple[list, list]:
    """Distinct spans across job traces, and the per-job span lists.

    Shared wave work (plan compile, execute, ``service.wave_solve``) is
    copied into every rider's trace under its original span id, so span ids
    deduplicate it.
    """
    distinct: dict = {}
    per_job = []
    for trace in traces:
        spans = trace["spans"]
        per_job.append(spans)
        for s in spans:
            distinct.setdefault(s["span_id"], s)
    return list(distinct.values()), per_job


def _replay(records: list):
    """Replay the run's unique solves in-process under the api wrappers.

    ``solve_many`` with explicit seeds and single-item shards equals the
    service's own call, so the replay doubles as the oracle that every job
    equals a direct solve; returns (aggregate, refine_log, objectives_by_pair).
    """
    from repro import obs, solve_many
    from repro.api.backends import get_backend
    from repro.service.problems import problem_from_spec

    pairs: dict = {}
    for rec in records:
        pairs.setdefault((Oracle.key(rec["request"]["problem"]), rec["request"]["seed"]), rec)
    problems = [problem_from_spec(rec["request"]["problem"]) for rec in pairs.values()]
    refine_log: list = []
    classes = sorted({type(p) for p in problems}, key=lambda c: c.__name__)
    targets = layers.api_targets(classes, [type(get_backend("sa"))], refine_log)
    collector = obs.SpanCollector()
    with obs.activate(collector), layers.patched(targets):
        results = solve_many(problems, backend="sa", seeds=[p[1] for p in pairs],
                             max_shard_size=1, executor="serial", cache=False, **SA_OPTS)
    objectives = {pair: r.objective for pair, r in zip(pairs, results)}
    return layers.aggregate(collector.drain()), refine_log, objectives


def _sql_timings(records: list) -> tuple[float, float]:
    """Median seconds per script of ``parse_script`` and ``compile_workload``."""
    from repro.db.sql import parse_script
    from repro.service.problems import _catalog_from_spec
    from repro.workload import compile_workload

    parse_s, compile_s = [], []
    for rec in records:
        spec = rec["request"]["problem"]
        if spec["kind"] != "workload":
            continue
        catalog = _catalog_from_spec(spec["catalog"])
        t0 = time.perf_counter()
        statements = parse_script(spec["script"])
        t1 = time.perf_counter()
        compile_workload(statements, catalog)
        t2 = time.perf_counter()
        parse_s.append(t1 - t0)
        compile_s.append(t2 - t1)
    if not parse_s:
        return 0.0, 0.0
    return statistics.median(parse_s), statistics.median(compile_s)


def per_layer(root: Path, seed: int, seconds: float) -> dict:
    """An untraced server, then a traced one, each given half the window of the same load."""
    workdir = root / ".layerbench" / f"{WORKLOAD}-{seed}-{os.getpid()}-trace"
    requests = _requests(seed, seconds / 2)
    plain, _, _ = _load(root, workdir, requests, False, "plain")
    traced, counters, traces = _load(root, workdir, requests, True, "traced")
    shutil.rmtree(workdir)  # kept only when a server failed, for its logs
    records = traced.records
    errors = Oracle().check(records)
    for i, (a, b) in enumerate(zip(plain.records, records)):
        if i in errors or "job" not in a or a["job"]["status"] != "done":
            continue
        if a["job"]["result"]["objective"] != b["job"]["result"]["objective"]:
            errors[i] = f"job {b['job_id']}: traced objective differs from the untraced run"
    replay_agg, refine_log, replay_obj = _replay(records)
    for i, rec in enumerate(records):
        pair = (Oracle.key(rec["request"]["problem"]), rec["request"]["seed"])
        if i not in errors and replay_obj[pair] != rec["job"]["result"]["objective"]:
            errors[i] = f"job {rec['job_id']}: differs from the in-process replay"
    spans, per_job = _trace_spans(traces)
    agg = layers.aggregate(spans)
    waves: dict = {}
    for s in spans:
        if s["name"] == "service.wave":
            wave = s["attrs"].get("wave")
            waves[wave] = max(waves.get(wave, 0.0), s["duration_s"])
    parse_s, compile_s = _sql_timings(records)
    lag_p95, invalid = _lag_check(traced)

    def durations(name, source):
        return [s["duration_s"] for s in source if s["name"] == name]

    def busy(name, source=agg):
        return source.get(name, {}).get("busy", 0.0)

    queue_waits = [d for job in per_job for d in durations("service.queue_wait", job)]
    admissions = [d for job in per_job for d in durations("service.admission", job)]
    solves = durations("engine.solve", spans)
    hits = counters.get("repro_engine_cache", {}).get('{event="hits"}', 0.0)
    misses = counters.get("repro_engine_cache", {}).get('{event="misses"}', 0.0)
    wave_count = _total(counters, "repro_service_wave_size_count")
    requests_total = _total(counters, "repro_service_requests_total")
    metrics = {
        "api.refine_s": busy("api.refine", replay_agg),
        "api.refine_calls": len(refine_log),
        "api.refine_gain_frac": layers.refine_gains(refine_log) / max(len(refine_log), 1),
        "api.evaluate_s": busy("api.evaluate", replay_agg),
        "api.decode_s": busy("api.decode", replay_agg),
        "backends.run_s": busy("backends.run", replay_agg),
        "backends.run_calls": replay_agg.get("backends.run", {}).get("count", 0),
        "api.formulate_s": busy("api.formulate", replay_agg),
        "qubo.fingerprint_s": busy("qubo.fingerprint", replay_agg),
        "engine.plan_compile_s": busy("engine.plan_compile"),
        "engine.solve_s": sum(solves),
        "engine.overhead_s": layers.overhead(spans),
        "engine.solve_item_p50_s": statistics.median(solves) if solves else 0.0,
        "engine.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "service.http_submit_s": statistics.median(r["post_s"] for r in records),
        "service.admission_s": statistics.median(admissions),
        "service.queue_wait_p50_s": percentile(queue_waits, 50),
        "service.queue_wait_p90_s": percentile(queue_waits, 90),
        "service.wave_s": sum(waves.values()),
        "service.wave_solve_s": busy("service.wave_solve"),
        "service.wave_size_mean": _total(counters, "repro_service_wave_size_sum") / wave_count,
        "service.waves": _total(counters, "repro_service_waves_total"),
        "service.dedup_frac": _total(counters, "repro_service_deduped_requests_total")
        / requests_total,
        "service.rejected": _total(counters, "repro_service_rejected_total"),
        "workload.compile_s": compile_s,
        "db.sql.parse_s": parse_s,
        "loadgen.lag_p95_s": lag_p95,
        "loadgen.peak_conns": max(plain.peak_conns, traced.peak_conns),
        # latency_p50_s is the primary metric; positive = the traced run is slower.
        "obs.trace_overhead_frac": _p50(traced) / _p50(plain) - 1.0,
    }
    rows_agg = dict(agg)
    rows_agg["service.wave"] = {"busy": sum(waves.values()), "count": len(waves), "self": None}
    rows_agg["service.http_submit"] = {"busy": sum(r["post_s"] for r in records),
                                      "count": len(records), "self": None}
    for name, row in replay_agg.items():
        if name.startswith(("api.", "backends.", "qubo.")):
            rows_agg[name + " (replay)"] = row
    return {
        "attempted": len(records) + len(plain.records),
        "failed": len(errors),
        "errors": list(errors.values()),
        "invalid": invalid,
        "metrics": metrics,
        "e2e_s": _span(records),
        "agg": rows_agg,
    }

"""The flight-recorder surface: ``/v1/traces``, trace-enriched health, exemplars.

In-process servers (``port=0``, tiny coalescing windows) drive a real HTTP
round trip and then interrogate the trace the service recorded for it — the
ISSUE's acceptance path: one request id resolves to the full
admission -> queue -> wave -> shard -> backend span tree.
"""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

SPEC = {"kind": "mqo", "num_queries": 3, "plans_per_query": 3, "instance_seed": 5}


def _run_with_server(handler, **config_overrides):
    from repro.service import ServiceConfig, SolverService
    from repro.service.http import ServiceServer

    async def scenario():
        config = dict(
            window_s=0.05, max_wave=16, port=0, backends=("sa",),
            backend_opts={"sa": {"num_reads": 2, "num_sweeps": 20}},
            store="",
        )
        config.update(config_overrides)
        server = ServiceServer(SolverService(ServiceConfig(**config)))
        await server.start()
        try:
            return await handler(server)
        finally:
            await server.shutdown()

    return asyncio.run(scenario())


def _get(port, path):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _solve(port, **extra):
    payload = {"problem": SPEC, "seed": 7, "wait": True, **extra}
    status, body = _post(port, "/v1/solve", payload)
    assert status == 200 and body["status"] == "done"
    return body


class TestTraceEndpoints:
    def test_job_id_resolves_to_the_full_span_tree(self):
        async def handler(server):
            port = server.bound_port
            body = await asyncio.to_thread(_solve, port, tenant="acme")
            assert body["trace_id"]

            status, trace = await asyncio.to_thread(
                _get, port, f"/v1/traces/{body['job_id']}"
            )
            assert status == 200
            assert trace["trace_id"] == body["trace_id"]
            assert trace["job_id"] == body["job_id"]
            assert trace["tenant"] == "acme"
            names = [s["name"] for s in trace["spans"]]
            # The acceptance span chain: HTTP edge -> admission -> queue
            # wait -> wave -> per-shard solve, all under one trace id.
            for required in ("http.request", "service.admission",
                            "service.queue_wait", "service.wave",
                            "service.settle", "facade.solve_many",
                            "engine.shard", "engine.solve"):
                assert required in names, f"missing {required} in {names}"
            assert all(s["trace_id"] == body["trace_id"] for s in trace["spans"])
            # The tree nests from the HTTP root down.
            roots = [n["name"] for n in trace["tree"]]
            assert "http.request" in roots
            # The result's info carries the re-homed join key.
            assert body["result"]["info"]["trace"]["trace_id"] == body["trace_id"]

            # A raw trace id dereferences too (the 202-response spelling).
            status, by_trace = await asyncio.to_thread(
                _get, port, f"/v1/traces/{body['trace_id']}"
            )
            assert status == 200 and by_trace["job_id"] == body["job_id"]

        _run_with_server(handler)

    def test_queue_wait_span_and_metrics_record_the_hold_decision(self):
        async def handler(server):
            port = server.bound_port
            first = await asyncio.to_thread(_solve, port)
            await asyncio.sleep(0.5)  # ten windows: the next gap outlasts it
            second = await asyncio.to_thread(_solve, port)
            held = []
            for body in (first, second):
                _, trace = await asyncio.to_thread(
                    _get, port, f"/v1/traces/{body['job_id']}"
                )
                (span,) = [s for s in trace["spans"] if s["name"] == "service.queue_wait"]
                assert span["attrs"]["wave"] == body["wave"]
                held.append(span["attrs"]["held"])
            # No gap before the first submission: its wave holds the window.
            assert held == [True, False]
            metrics = server.service.render_metrics()
            assert 'repro_service_coalesce_holds_total{decision="held"} 1' in metrics
            assert 'repro_service_coalesce_holds_total{decision="skipped"} 1' in metrics

        _run_with_server(handler)

    def test_listing_filters_by_tenant_and_validates_params(self):
        async def handler(server):
            port = server.bound_port
            await asyncio.to_thread(_solve, port, tenant="acme")
            await asyncio.to_thread(_solve, port, tenant="zeta")

            status, body = await asyncio.to_thread(_get, port, "/v1/traces")
            assert status == 200
            assert {"traces", "traces_buffered", "dropped_total"} <= set(body)
            assert len(body["traces"]) == 2
            newest = body["traces"][0]
            assert {"trace_id", "job_id", "root", "span_count",
                    "duration_s"} <= set(newest)

            status, acme = await asyncio.to_thread(
                _get, port, "/v1/traces?tenant=acme&limit=10"
            )
            assert status == 200
            assert [t["tenant"] for t in acme["traces"]] == ["acme"]

            status, none = await asyncio.to_thread(
                _get, port, "/v1/traces?min_duration_s=3600"
            )
            assert status == 200 and none["traces"] == []

            assert (await asyncio.to_thread(
                _get, port, "/v1/traces?limit=zero"))[0] == 400
            assert (await asyncio.to_thread(
                _get, port, "/v1/traces?limit=0"))[0] == 400
            assert (await asyncio.to_thread(
                _get, port, "/v1/traces?min_duration_s=fast"))[0] == 400
            assert (await asyncio.to_thread(
                _get, port, "/v1/traces/job-404404"))[0] == 404

        _run_with_server(handler)

    def test_submit_response_and_job_json_carry_the_trace_id(self):
        async def handler(server):
            port = server.bound_port
            status, accepted = await asyncio.to_thread(
                _post, port, "/v1/solve", {"problem": SPEC, "seed": 1}
            )
            assert status == 202
            assert accepted["trace_id"]
            job = server.service.jobs.get(accepted["job_id"])
            await asyncio.shield(job.future)
            assert job.as_json_dict()["trace_id"] == accepted["trace_id"]

        _run_with_server(handler)

    def test_disabled_tracing_is_a_404_not_a_crash(self):
        async def handler(server):
            port = server.bound_port
            body = await asyncio.to_thread(_solve, port)
            assert body["trace_id"] is None
            status, error = await asyncio.to_thread(_get, port, "/v1/traces")
            assert status == 404 and "disabled" in error["error"]
            assert (await asyncio.to_thread(
                _get, port, f"/v1/traces/{body['job_id']}"))[0] == 404
            status, health = await asyncio.to_thread(_get, port, "/healthz")
            assert status == 200
            assert health["trace"] == {"enabled": False, "traces_buffered": 0,
                                       "dropped_total": 0}

        _run_with_server(handler, trace=False)


class TestHealthSurfaces:
    def test_health_and_readiness_report_version_and_recorder_status(self):
        async def handler(server):
            port = server.bound_port
            await asyncio.to_thread(_solve, port)
            import repro

            status, health = await asyncio.to_thread(_get, port, "/healthz")
            assert status == 200
            assert health["version"] == repro.__version__
            assert health["trace"]["enabled"] is True
            assert health["trace"]["traces_buffered"] == 1
            assert health["trace"]["dropped_total"] == 0

            status, ready = await asyncio.to_thread(_get, port, "/readyz")
            assert status == 200
            assert ready["version"] == repro.__version__
            assert ready["trace"]["traces_buffered"] == 1

        _run_with_server(handler)

    def test_trace_buffer_bound_is_enforced_end_to_end(self):
        async def handler(server):
            port = server.bound_port
            for seed in range(3):
                await asyncio.to_thread(
                    _post, port, "/v1/solve",
                    {"problem": SPEC, "seed": seed, "wait": True},
                )
            trace_status = server.service.trace_status()
            assert trace_status["traces_buffered"] <= 2
            assert trace_status["dropped_total"] > 0

        _run_with_server(handler, trace_buffer=2)


class TestExemplars:
    def test_latency_histogram_carries_trace_exemplars(self):
        async def handler(server):
            port = server.bound_port
            body = await asyncio.to_thread(_solve, port, tenant="acme")
            latency = server.service._m["latency"]
            slots = [e for e in latency.exemplars() if e is not None]
            assert slots, "no exemplar recorded on the latency histogram"
            assert any(e["trace_id"] == body["trace_id"] for e in slots)
            assert all(e["value"] >= 0.0 for e in slots)
            tenant_slots = [
                e for e in server.service._m["tenant_latency"].exemplars(tenant="acme")
                if e is not None
            ]
            assert any(e["trace_id"] == body["trace_id"] for e in tenant_slots)
            # The text exposition stays plain Prometheus 0.0.4 — exemplars
            # must not leak into the scrape format.
            status, _ = await asyncio.to_thread(_get, port, "/healthz")
            assert status == 200
            metrics = server.service.render_metrics()
            assert "trace_id" not in metrics

        _run_with_server(handler)

    def test_exemplars_accessor_shape(self):
        from repro.service.metrics import MetricsRegistry

        registry = MetricsRegistry()
        histogram = registry.histogram("t_seconds", "test", buckets=(0.1, 1.0))
        assert histogram.exemplars() == []
        histogram.observe(0.05, exemplar="aa" * 8)
        histogram.observe(0.5)  # no exemplar: slot stays as-is
        histogram.observe(10.0, exemplar="bb" * 8)  # lands in +Inf
        slots = histogram.exemplars()
        assert len(slots) == 3  # one per bucket + the +Inf slot
        assert slots[0] == {"trace_id": "aa" * 8, "value": 0.05}
        assert slots[1] is None
        assert slots[2] == {"trace_id": "bb" * 8, "value": 10.0}


class TestDeterminismAcrossTracing:
    def test_results_are_identical_with_tracing_on_and_off(self):
        """The service-level spelling of trace invariance: same spec+seed,
        tracing on vs off, byte-identical objective and solution."""
        def scenario(trace):
            async def handler(server):
                port = server.bound_port
                body = await asyncio.to_thread(_solve, port)
                return body["result"]

            return _run_with_server(handler, trace=trace)

        traced, untraced = scenario(True), scenario(False)
        assert traced["objective"] == untraced["objective"]
        assert traced["solution"] == untraced["solution"]
        assert traced["energy"] == untraced["energy"]
        assert (traced["info"]["engine"]["seed"]
                == untraced["info"]["engine"]["seed"])
        assert (traced["info"]["engine"]["fingerprint"]
                == untraced["info"]["engine"]["fingerprint"])


class TestConfigSurface:
    def test_env_and_toml_spell_the_observability_knobs(self, tmp_path,
                                                        monkeypatch):
        from repro.service.config import load_config

        toml = tmp_path / "service.toml"
        toml.write_text(
            "[service]\nlog_level = 'debug'\nlog_format = 'json'\n"
            "trace = false\ntrace_buffer = 32\n"
        )
        config = load_config(toml)
        assert (config.log_level, config.log_format) == ("debug", "json")
        assert config.trace is False and config.trace_buffer == 32

        monkeypatch.setenv("REPRO_SERVICE_LOG_LEVEL", "warning")
        monkeypatch.setenv("REPRO_SERVICE_LOG_FORMAT", "text")
        monkeypatch.setenv("REPRO_SERVICE_TRACE", "yes")
        monkeypatch.setenv("REPRO_SERVICE_TRACE_BUFFER", "64")
        config = load_config(toml)
        assert (config.log_level, config.log_format) == ("warning", "text")
        assert config.trace is True and config.trace_buffer == 64

        monkeypatch.setenv("REPRO_SERVICE_TRACE", "off")
        assert load_config(toml).trace is False

    def test_invalid_observability_config_is_rejected(self):
        from repro.exceptions import ReproError
        from repro.service.config import ServiceConfig

        with pytest.raises(ReproError, match="log_level"):
            ServiceConfig(log_level="loud").validate()
        with pytest.raises(ReproError, match="log_format"):
            ServiceConfig(log_format="xml").validate()
        with pytest.raises(ReproError, match="trace_buffer"):
            ServiceConfig(trace_buffer=0).validate()

    def test_main_wires_log_flags_into_config(self, capsys):
        from repro.service.__main__ import main

        # An invalid choice exits argparse with code 2 before any server.
        with pytest.raises(SystemExit):
            main(["--log-level", "loud"])
        capsys.readouterr()

"""End-to-end HTTP smoke: real server subprocess, real sockets, real signals.

Boots ``python -m repro.service --port 0`` once per module, parses the
bound port from the startup line, and drives it with stdlib ``urllib``
from worker threads — the same way the CI ``service-smoke`` job and any
external client would.  SIGTERM at the end asserts the graceful-shutdown
contract: drain, then exit 0.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SPEC = {"kind": "mqo", "num_queries": 3, "plans_per_query": 3, "instance_seed": 5}


@pytest.fixture(scope="module")
def server():
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_SERVICE_WINDOW_S="0.25",
        REPRO_SERVICE_MAX_WAVE="16",
        REPRO_STORE="",  # keep the smoke hermetic even if the env sets one
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        assert match, f"unexpected startup line: {line!r}"
        yield proc, f"http://127.0.0.1:{match.group(1)}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def _post(base, path, body):
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def test_health_and_readiness(server):
    _, base = server
    status, body = _get(base, "/healthz")
    assert status == 200 and json.loads(body)["ok"] is True
    status, body = _get(base, "/readyz")
    ready = json.loads(body)
    assert status == 200 and ready["ready"] is True
    assert ready["backends"] == ["sa"]


def test_submit_poll_and_wait(server):
    _, base = server
    status, body = _post(base, "/v1/solve", {"problem": SPEC, "seed": 3})
    assert status == 202
    job_id = json.loads(body)["job_id"]

    status, body = _post(base, "/v1/solve", {"problem": SPEC, "seed": 4, "wait": True})
    assert status == 200
    waited = json.loads(body)
    assert waited["status"] == "done"
    assert isinstance(waited["result"]["objective"], (int, float))

    status, body = _get(base, f"/v1/jobs/{job_id}")
    assert status == 200
    assert json.loads(body)["status"] == "done"


def test_traced_request_resolves_to_a_span_tree(server):
    """The flight-recorder contract over real sockets: the job id of a
    solved request dereferences to its admission -> queue -> wave ->
    shard -> backend span chain via GET /v1/traces/<job_id>."""
    _, base = server
    status, body = _post(
        base, "/v1/solve",
        {"problem": SPEC, "seed": 6, "wait": True, "tenant": "smoke"},
    )
    assert status == 200
    waited = json.loads(body)
    assert waited["trace_id"]

    status, body = _get(base, f"/v1/traces/{waited['job_id']}")
    assert status == 200
    trace = json.loads(body)
    assert trace["trace_id"] == waited["trace_id"]
    names = [span["name"] for span in trace["spans"]]
    for required in ("http.request", "service.admission", "service.queue_wait",
                     "service.wave", "engine.shard", "engine.solve"):
        assert required in names, f"missing {required} in {names}"
    # Parentage is intact end to end: the tree nests under the HTTP root.
    assert any(node["name"] == "http.request" for node in trace["tree"])

    status, body = _get(base, "/v1/traces?tenant=smoke")
    assert status == 200
    listed = json.loads(body)
    assert any(t["job_id"] == waited["job_id"] for t in listed["traces"])


def test_error_mapping(server):
    _, base = server
    assert _get(base, "/v1/jobs/job-999999")[0] == 404
    assert _get(base, "/no/such/route")[0] == 404
    assert _get(base, "/v1/solve")[0] == 405
    assert _post(base, "/v1/solve", {"problem": {"kind": "nope"}})[0] == 400
    assert _post(base, "/v1/solve", "not an object")[0] == 400
    assert _post(base, "/v1/solve", {"problem": SPEC, "seed": -2})[0] == 400


def test_concurrent_submissions_coalesce_on_the_wire(server):
    _, base = server
    results = [None] * 8

    def submit(i):
        results[i] = _post(
            base, "/v1/solve", {"problem": SPEC, "seed": i % 2, "wait": True}
        )

    threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(results))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert all(status == 200 for status, _ in results)
    bodies = [json.loads(body) for _, body in results]
    assert all(body["status"] == "done" for body in bodies)
    # Same seed over the wire -> identical objective, whatever wave it rode.
    by_seed = {}
    for body in bodies:
        by_seed.setdefault(body["seed"], set()).add(body["result"]["objective"])
    assert all(len(objectives) == 1 for objectives in by_seed.values())

    status, text = _get(base, "/metrics")
    assert status == 200
    # At least one wave carried more than one request: the le="1" bucket
    # counts strictly fewer waves than the total.
    waves = {
        key: float(value)
        for key, value in re.findall(r"^(repro_service_wave_size\S*) (\S+)$", text, re.M)
    }
    assert waves['repro_service_wave_size_bucket{le="1"}'] < waves["repro_service_wave_size_count"]


# -- raw-socket parser hardening ---------------------------------------------
#
# urllib cannot send a malformed request, so these drive an in-process
# ServiceServer (port 0) over bare asyncio sockets: negative
# Content-Length and truncated bodies are the *client's* fault and must
# map to 400, never to a 500 from readexactly().


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


async def _raw_request(port, payload: bytes, eof: bool = False) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    if eof:
        writer.write_eof()  # the body will never arrive
    data = await asyncio.wait_for(reader.read(), timeout=30)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return data.decode("latin-1", "replace")


def _build_post(path: str, obj) -> bytes:
    body = json.dumps(obj).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def _parse_response(raw: str):
    head, _, body = raw.partition("\r\n\r\n")
    lines = head.split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def test_negative_content_length_is_a_400_not_a_500():
    async def handler(server):
        raw = await _raw_request(
            server.bound_port,
            b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
        )
        status, _, body = _parse_response(raw)
        assert status == 400
        assert "Content-Length" in body

    _run_with_server(handler)


def test_unparsable_content_length_is_a_400():
    async def handler(server):
        raw = await _raw_request(
            server.bound_port,
            b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: ten\r\n\r\n",
        )
        status, _, _ = _parse_response(raw)
        assert status == 400

    _run_with_server(handler)


def test_truncated_body_is_a_400_not_a_hang_or_500():
    async def handler(server):
        raw = await _raw_request(
            server.bound_port,
            b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n"
            b'{"problem"',
            eof=True,
        )
        status, _, body = _parse_response(raw)
        assert status == 400
        assert "truncated" in body
        assert "10 of 50" in body

    _run_with_server(handler)


def test_shed_responses_carry_retry_after():
    """429s from admission come with a Retry-After the client can obey."""

    async def handler(server):
        # Window is huge and the queue holds one job: the first submit
        # parks, the second sheds.
        first = await _raw_request(
            server.bound_port, _build_post("/v1/solve", {"problem": SPEC, "seed": 0})
        )
        assert _parse_response(first)[0] == 202
        second = await _raw_request(
            server.bound_port, _build_post("/v1/solve", {"problem": SPEC, "seed": 1})
        )
        status, headers, body = _parse_response(second)
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert "shed" in body and "queue_full" in body

    _run_with_server(handler, window_s=30.0, max_queue_depth=1)


def test_tenant_and_priority_round_trip_over_the_wire():
    async def handler(server):
        raw = await _raw_request(
            server.bound_port,
            _build_post("/v1/solve", {
                "problem": SPEC, "seed": 2, "wait": True,
                "tenant": "alice", "priority": "batch",
            }),
        )
        status, _, body = _parse_response(raw)
        assert status == 200
        job = json.loads(body)
        assert job["tenant"] == "alice"
        assert job["priority"] == "batch"
        assert job["admission"]["action"] == "admit"
        # Wrong types are the client's problem: 400, not a crash.
        for bad in ({"tenant": 7}, {"priority": ["interactive"]}):
            raw = await _raw_request(
                server.bound_port,
                _build_post("/v1/solve", {"problem": SPEC, "seed": 2, **bad}),
            )
            assert _parse_response(raw)[0] == 400

    _run_with_server(handler)


def test_sigterm_drains_and_exits_zero(server):
    proc, base = server
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    tail = proc.stdout.read()
    assert "draining" in tail and "stopped" in tail

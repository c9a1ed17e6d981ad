"""Server process, HTTP client and load generator of the service workloads.

The server is ``python -m repro.service`` in a subprocess with its own TOML
config; the benchmark process is the single load generator.  It speaks
plain HTTP/1.1 (the server closes every connection) with the standard
library only.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

BOOT_TIMEOUT_S = 60.0
COLLECT_TIMEOUT_S = 120.0
LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")

#: Backend options of the service workloads (``sa`` at 8 reads x 150 sweeps).
SA_OPTS = {"num_reads": 8, "num_sweeps": 150}


def config_toml(trace: bool) -> str:
    """Default window, wave size and cache; quiet logs; tracing on or off."""
    opts = "\n".join(f"{k} = {v}" for k, v in SA_OPTS.items())
    return (
        "[service]\n"
        'host = "127.0.0.1"\n'
        "port = 0\n"
        'log_level = "warning"\n'
        f"trace = {'true' if trace else 'false'}\n"
        "trace_buffer = 4096\n"
        "job_retention = 65536\n"
        "\n[engine]\n"
        'backends = ["sa"]\n'
        "\n[engine.backend_opts.sa]\n"
        f"{opts}\n"
    )


class Server:
    """One ``python -m repro.service`` subprocess, booted to its listening line."""

    def __init__(self, root: Path, workdir: Path, trace: bool, tag: str):
        self.root = root
        self.workdir = workdir
        self.trace = trace
        self.tag = tag
        self.proc: "subprocess.Popen | None" = None
        self.port: "int | None" = None

    def start(self) -> float:
        """Boot and wait for the listening line; returns the seconds it took."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        config = self.workdir / f"{self.tag}.toml"
        config.write_text(config_toml(self.trace))
        out_path = self.workdir / f"{self.tag}.out"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_SERVICE_") and k != "REPRO_STORE"}
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        with open(out_path, "wb") as out, open(self.workdir / f"{self.tag}.err", "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--config", str(config)],
                cwd=self.root, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
        while True:
            match = LISTENING.search(out_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
                return time.perf_counter() - t0
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited with {self.proc.returncode} before listening")
            if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                raise RuntimeError("service did not print its listening line in time")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None


# -- HTTP ----------------------------------------------------------------------


async def http(port: int, method: str, path: str, body: "dict | None" = None):
    """One request on a fresh connection; returns ``(status, body_bytes)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header, _, content = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, content


async def get_json(port: int, path: str):
    status, content = await http(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}")
    return json.loads(content)


class LoadGen:
    """Submits requests under a connection cap and records client-side facts."""

    def __init__(self, port: int, max_conns: int):
        self.port = port
        self.sem = asyncio.Semaphore(max_conns)
        self.open_conns = 0
        self.peak_conns = 0
        self.records: list[dict] = []

    async def submit(self, request: dict, due: float) -> dict:
        record = {"request": request, "due": due, "job_id": None}
        self.records.append(record)
        async with self.sem:
            self.open_conns += 1
            self.peak_conns = max(self.peak_conns, self.open_conns)
            sent = time.time()
            record["lag_s"] = sent - due
            try:
                status, content = await http(self.port, "POST", "/v1/solve", {
                    "problem": request["problem"], "seed": request["seed"], "wait": False})
            finally:
                self.open_conns -= 1
            record["post_s"] = time.time() - sent
        record["http_status"] = status
        if status == 202:
            record["job_id"] = json.loads(content)["job_id"]
        return record

    async def collect(self) -> None:
        """Fetch each accepted job once it is finished (a failed POST stays failed)."""
        deadline = time.monotonic() + COLLECT_TIMEOUT_S
        for record in self.records:
            if record["job_id"] is None:
                continue
            while True:
                job = await get_json(self.port, f"/v1/jobs/{record['job_id']}")
                if job["status"] in ("done", "error"):
                    record["job"] = job
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"job {record['job_id']} did not finish in time")
                await asyncio.sleep(0.05)


async def open_loop(port: int, requests: list, rate: float, max_conns: int) -> LoadGen:
    """Send ``requests`` at a fixed rate whatever the server does (open loop)."""
    gen = LoadGen(port, max_conns)
    start = time.time() + 0.05
    tasks = []
    for i, request in enumerate(requests):
        due = start + i / rate
        delay = due - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(gen.submit(request, due)))
    await asyncio.gather(*tasks)
    await gen.collect()
    return gen


def parse_metrics(text: str) -> dict:
    """Prometheus text -> ``{name: {labels_string: value}}`` (samples only)."""
    out: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.match(r"([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)", line)
        if match:
            out.setdefault(match.group(1), {})[match.group(2) or ""] = float(match.group(3))
    return out

"""``python -m repro.service`` — boot the solver service and run until signalled.

Prints one line once bound (``repro.service listening on http://host:port``,
flushed, with the *real* port so ``--port 0`` smoke tests can parse it),
then serves until SIGTERM/SIGINT, at which point it drains gracefully:
new submissions are rejected with 503, every accepted job finishes (each
wave has recorded its own observations into the durable store), and the
process exits 0.

Operational output goes through :mod:`repro.obs.log` (``--log-level`` /
``--log-format``, or the ``REPRO_SERVICE_LOG_*`` environment spellings);
the resolved configuration is logged exactly once at startup.  The
``listening on`` line itself stays a plain stdout print — it is the
machine-parsed contract of the smoke tests.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.exceptions import ReproError
from repro.obs.log import FORMATS, LEVELS, configure, get_logger
from repro.service.app import SolverService
from repro.service.config import load_config
from repro.service.http import ServiceServer


def _parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Coalescing solver-as-a-service over the repro engine.",
    )
    parser.add_argument("--config", default=None, help="TOML config file")
    parser.add_argument("--host", default=None, help="bind address override")
    parser.add_argument(
        "--port", type=int, default=None,
        help="bind port override (0 asks the OS for an ephemeral port)",
    )
    parser.add_argument(
        "--log-level", default=None, choices=sorted(LEVELS),
        help="log verbosity (default from config / REPRO_SERVICE_LOG_LEVEL)",
    )
    parser.add_argument(
        "--log-format", default=None, choices=list(FORMATS),
        help="log shape: text, or json (one object per line; "
             "default from config / REPRO_SERVICE_LOG_FORMAT)",
    )
    return parser.parse_args(argv)


def _banner_fields(config) -> dict:
    """The one-time resolved-config record (secrets-free by construction)."""
    return {
        "host": config.host,
        "port": config.port,
        "backends": list(config.backends),
        "executor": config.executor,
        "window_s": config.window_s,
        "max_wave": config.max_wave,
        "max_queue_depth": config.max_queue_depth,
        "store": config.store,
        "trace": config.trace,
        "trace_buffer": config.trace_buffer,
        "log_level": config.log_level,
        "log_format": config.log_format,
    }


async def _serve(server: ServiceServer) -> None:
    log = get_logger("service")
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await server.start()
    print(
        f"repro.service listening on http://{server.host}:{server.bound_port}",
        flush=True,
    )
    log.info(
        "service started",
        extra={"fields": dict(_banner_fields(server.service.config),
                              bound_port=server.bound_port)},
    )
    await stop.wait()
    print("repro.service draining...", flush=True)
    log.info("service draining")
    await server.shutdown()
    print("repro.service stopped", flush=True)
    log.info("service stopped")


def main(argv: "list[str] | None" = None) -> int:
    args = _parse_args(argv)
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.log_level is not None:
        overrides["log_level"] = args.log_level
    if args.log_format is not None:
        overrides["log_format"] = args.log_format
    try:
        config = load_config(args.config, **overrides)
        configure(level=config.log_level, fmt=config.log_format)
        service = SolverService(config)
    except ReproError as exc:
        print(f"repro.service: {exc}", file=sys.stderr, flush=True)
        return 2
    asyncio.run(_serve(ServiceServer(service)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

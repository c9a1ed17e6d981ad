"""Service configuration: defaults -> TOML file -> environment overrides.

The loader is stdlib-only (``tomllib``): a config file is optional, every
field has a production-sane default, and a handful of ``REPRO_SERVICE_*``
environment variables override both — the twelve-factor shape a container
deployment needs.  Unknown TOML keys are an error, not a silent ignore: a
typo in ``window_s`` must not quietly run the service with a default.

TOML layout (every table and key optional)::

    [service]
    host = "127.0.0.1"
    port = 8735
    max_queue_depth = 1024
    job_retention = 4096
    log_level = "info"                  # debug | info | warning | error
    log_format = "text"                 # text | json (one object per line)
    trace = true                        # end-to-end tracing + flight recorder
    trace_buffer = 256                  # traces kept in the flight recorder

    [coalesce]
    window_s = 0.05
    max_wave = 64
    max_inflight_waves = 1

    [engine]
    backends = ["sa", "tabu"]          # >1 name enables adaptive routing
    executor = "serial"
    refine = true
    top_k = 8
    cache = true                        # in-memory result cache (durable: store)
    store = "/var/lib/repro/engine.db"  # omit to consult REPRO_STORE
    epsilon = 0.1
    scheduler_seed = 0

    [engine.backend_opts.sa]
    num_reads = 16

    [admission]
    degrade_backends = ["tabu"]         # the cheap classical tier
    degrade_ratio = 0.75                # queue fill ratio that degrades best_effort
    lane_weights = {interactive = 4, batch = 2, best_effort = 1}

    [admission.default_budget]          # tenants without a named budget
    max_inflight = 256

    [admission.tenants.crawler]         # per-tenant budget overrides
    max_inflight = 8
    backend_seconds = 30.0
    window_s = 60.0
    queue_share = 0.25
"""

from __future__ import annotations

import os

try:
    import tomllib
except ImportError:  # pragma: no cover - Python 3.10: env/kwargs config only
    tomllib = None
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.exceptions import ReproError
from repro.service.admission import DEFAULT_LANE_WEIGHTS, PRIORITIES, TenantBudget


def _parse_tenant_budgets(raw: str) -> dict:
    """``"crawler:max_inflight=8:backend_seconds=30;lab:queue_share=0.5"``
    -> ``{"crawler": {...}, "lab": {...}}`` (the env spelling of
    ``[admission.tenants.<name>]``)."""
    tenants: dict = {}
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, *settings = chunk.split(":")
        name = name.strip()
        if not name:
            raise ValueError(f"tenant budget chunk {chunk!r} is missing a tenant name")
        budget: dict = {}
        for setting in settings:
            key, sep, value = setting.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"tenant budget setting {setting!r} is not key=value")
            number = float(value.strip())
            budget[key] = int(number) if key == "max_inflight" else number
        tenants[name] = budget
    return tenants


#: Environment overrides: variable -> (config field, parser).
_ENV_OVERRIDES = {
    "REPRO_SERVICE_HOST": ("host", str),
    "REPRO_SERVICE_PORT": ("port", int),
    "REPRO_SERVICE_WINDOW_S": ("window_s", float),
    "REPRO_SERVICE_MAX_WAVE": ("max_wave", int),
    "REPRO_SERVICE_MAX_QUEUE_DEPTH": ("max_queue_depth", int),
    "REPRO_SERVICE_EXECUTOR": ("executor", str),
    "REPRO_SERVICE_BACKENDS": (
        "backends",
        lambda raw: tuple(name.strip() for name in raw.split(",") if name.strip()),
    ),
    "REPRO_SERVICE_STORE": ("store", str),
    "REPRO_SERVICE_DEGRADE_BACKENDS": (
        "degrade_backends",
        lambda raw: tuple(name.strip() for name in raw.split(",") if name.strip()),
    ),
    "REPRO_SERVICE_TENANTS": ("tenants", _parse_tenant_budgets),
    "REPRO_SERVICE_LOG_LEVEL": ("log_level", str),
    "REPRO_SERVICE_LOG_FORMAT": ("log_format", str),
    "REPRO_SERVICE_TRACE": (
        "trace",
        lambda raw: raw.strip().lower() in ("1", "true", "yes", "on"),
    ),
    "REPRO_SERVICE_TRACE_BUFFER": ("trace_buffer", int),
}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service tier needs to boot, in one value object.

    Attributes:
        host: Bind address; ``port`` 0 asks the OS for an ephemeral port
            (the bound port is printed by ``python -m repro.service``).
        max_queue_depth: Submissions beyond this many undispatched jobs
            are rejected with 429 (backpressure, not unbounded memory).
        job_retention: Finished jobs kept for ``GET /v1/jobs/<id>``;
            oldest finished jobs are evicted past this count.
        window_s: Coalescing window — the longest the queue holds the
            first pending submission open for companions before
            dispatching the wave.  The hold is adaptive: the full window
            while the median of the recent enqueue gaps is at most
            ``window_s`` (or there is no gap yet), none when traffic is
            sparser, so a lone request is not held for companions that
            will not come.  Latency-vs-amortisation knob.
        max_wave: A wave dispatches immediately once this many
            submissions are pending, window notwithstanding.
        max_inflight_waves: Concurrent ``solve_many`` waves; further
            waves queue behind a semaphore while collection continues.
        backends: Backend fleet (registry names).  One name solves every
            wave on that backend; with several, the service's
            :class:`~repro.engine.scheduler.AdaptiveScheduler` routes each
            request's structure by scoreboard telemetry.
        backend_opts: Per-backend factory options keyed by registry name.
        executor: Engine executor for wave dispatch: ``serial`` (default;
            a wave's stateless shards then share one ``Backend.run``) or
            ``processes`` (pays off for annealer, QAOA and VQE fleets).
        cache: ``True`` (service-owned in-memory cache) or ``False``.
            Results shared across restarts and processes live in
            ``store``.
        store: Durable :class:`~repro.engine.store.EngineStore` path.
            ``None`` consults ``REPRO_STORE`` (the engine convention);
            ``""`` forces the store off.
        epsilon / scheduler_seed / scheduler_deadline_s: Adaptive-routing
            knobs, forwarded to the scheduler (fleet mode only).
        refine / top_k: Solve-kernel options shared by every request —
            they are part of the cache key, so the service pins them
            fleet-wide rather than letting requests fragment the cache.
        tenants: Per-tenant budget tables (``{name: {max_inflight,
            backend_seconds, window_s, queue_share}}``, every key
            optional — see :class:`~repro.service.admission.TenantBudget`).
        default_budget: Budget applied to tenants without a named entry
            (empty = unlimited).
        lane_weights: Per-priority wave-drain weights overlaying
            :data:`~repro.service.admission.DEFAULT_LANE_WEIGHTS`.
        degrade_backends: The cheap classical tier degraded requests are
            rewritten to (``("tabu",)`` default; >1 name routes the
            degraded group through its own adaptive scheduler).
        degrade_ratio: Queue fill fraction at which ``best_effort``
            requests degrade pre-emptively (1.0 disables).
        log_level / log_format: Structured-logging knobs for
            :func:`repro.obs.log.configure` (``REPRO_SERVICE_LOG_LEVEL`` /
            ``REPRO_SERVICE_LOG_FORMAT`` env spellings).
        trace: End-to-end tracing; off swaps the tracer for the zero-
            overhead no-op and disables the flight recorder endpoints.
        trace_buffer: Traces retained by the flight recorder ring buffer.
    """

    host: str = "127.0.0.1"
    port: int = 8735
    max_queue_depth: int = 1024
    job_retention: int = 4096
    window_s: float = 0.05
    max_wave: int = 64
    max_inflight_waves: int = 1
    backends: tuple = ("sa",)
    backend_opts: dict = field(default_factory=dict)
    executor: str = "serial"
    refine: bool = True
    top_k: int = 8
    cache: bool = True
    store: "str | None" = None
    epsilon: float = 0.1
    scheduler_seed: int = 0
    scheduler_deadline_s: "float | None" = None
    tenants: dict = field(default_factory=dict)
    default_budget: dict = field(default_factory=dict)
    lane_weights: dict = field(default_factory=dict)
    degrade_backends: tuple = ("tabu",)
    degrade_ratio: float = 0.75
    log_level: str = "info"
    log_format: str = "text"
    trace: bool = True
    trace_buffer: int = 256

    def validate(self) -> "ServiceConfig":
        if not 0 <= self.port <= 65535:
            raise ReproError(f"service port must be in [0, 65535], got {self.port}")
        if self.max_queue_depth < 1:
            raise ReproError("max_queue_depth must be >= 1")
        if self.job_retention < 1:
            raise ReproError("job_retention must be >= 1")
        if self.window_s < 0:
            raise ReproError("coalesce window_s must be >= 0")
        if self.max_wave < 1:
            raise ReproError("max_wave must be >= 1")
        if self.max_inflight_waves < 1:
            raise ReproError("max_inflight_waves must be >= 1")
        if not self.backends:
            raise ReproError("the backend fleet needs at least one registry name")
        from repro.engine.executors import list_executors

        if self.executor not in list_executors():
            raise ReproError(
                f"unknown executor {self.executor!r}; available: "
                f"{', '.join(list_executors())}"
            )
        unknown = set(self.backend_opts) - set(self.backends)
        if unknown:
            raise ReproError(
                f"backend_opts for {sorted(unknown)} match no fleet backend"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ReproError("epsilon must be in [0, 1]")
        if self.top_k < 1:
            raise ReproError("top_k must be >= 1")
        if not isinstance(self.cache, bool):
            raise ReproError(
                f"engine cache must be true or false, got {self.cache!r}; durable "
                "results live in the store (set store = \"/path/to/engine.db\")"
            )
        if not isinstance(self.tenants, Mapping):
            raise ReproError("tenants must map tenant name -> budget table")
        for name, budget in self.tenants.items():
            TenantBudget.from_mapping(budget, where=f"tenant {name!r} budget")
        TenantBudget.from_mapping(self.default_budget, where="default budget")
        unknown = set(self.lane_weights) - set(PRIORITIES)
        if unknown:
            raise ReproError(
                f"lane_weights for {sorted(unknown)} match no priority "
                f"(known: {list(PRIORITIES)})"
            )
        for lane, weight in self.lane_weights.items():
            if isinstance(weight, bool) or not isinstance(weight, int) or weight < 1:
                raise ReproError(f"lane {lane!r} weight must be an integer >= 1")
        if not self.degrade_backends:
            raise ReproError("degrade_backends needs at least one registry name")
        if not 0.0 <= self.degrade_ratio <= 1.0:
            raise ReproError("degrade_ratio must be in [0, 1]")
        from repro.obs.log import FORMATS, LEVELS

        if str(self.log_level).lower() not in LEVELS:
            raise ReproError(
                f"log_level must be one of {sorted(LEVELS)}, got {self.log_level!r}"
            )
        if self.log_format not in FORMATS:
            raise ReproError(
                f"log_format must be one of {list(FORMATS)}, got {self.log_format!r}"
            )
        if self.trace_buffer < 1:
            raise ReproError("trace_buffer must be >= 1")
        return self

    def resolved_lane_weights(self) -> dict:
        """Defaults overlaid with this config's ``lane_weights``."""
        weights = dict(DEFAULT_LANE_WEIGHTS)
        weights.update(self.lane_weights)
        return weights


def _take(table: Mapping, known: dict, where: str) -> dict:
    """Map TOML keys to config fields, rejecting anything unknown."""
    out = {}
    for key, value in table.items():
        if key not in known:
            raise ReproError(
                f"unknown key {key!r} in [{where}] (known: {sorted(known)})"
            )
        out[known[key]] = value
    return out


def load_config(
    path: "str | os.PathLike | None" = None,
    env: "Mapping[str, str] | None" = None,
    **overrides,
) -> ServiceConfig:
    """Build a :class:`ServiceConfig`: defaults <- TOML <- env <- kwargs.

    Args:
        path: Optional TOML file (see the module docstring for the layout).
        env: Environment mapping (defaults to ``os.environ``) consulted
            for ``REPRO_SERVICE_*`` overrides.
        **overrides: Final programmatic overrides (e.g. ``port=0`` from
            the CLI) applied after everything else.
    """
    env = os.environ if env is None else env
    fields: dict = {}

    if path is not None:
        if tomllib is None:
            raise ReproError(
                "TOML config files need Python 3.11+ (stdlib tomllib); use "
                "REPRO_SERVICE_* environment variables or kwargs instead"
            )
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
        unknown = set(data) - {"service", "coalesce", "engine", "admission"}
        if unknown:
            raise ReproError(
                f"unknown table(s) {sorted(unknown)} in {path} "
                "(known: service, coalesce, engine, admission)"
            )
        fields.update(_take(data.get("service", {}), {
            "host": "host", "port": "port",
            "max_queue_depth": "max_queue_depth", "job_retention": "job_retention",
            "log_level": "log_level", "log_format": "log_format",
            "trace": "trace", "trace_buffer": "trace_buffer",
        }, "service"))
        fields.update(_take(data.get("coalesce", {}), {
            "window_s": "window_s", "max_wave": "max_wave",
            "max_inflight_waves": "max_inflight_waves",
        }, "coalesce"))
        engine = dict(data.get("engine", {}))
        opts = engine.pop("backend_opts", {})
        if not isinstance(opts, dict) or not all(isinstance(v, dict) for v in opts.values()):
            raise ReproError("[engine.backend_opts.<name>] tables must map option -> value")
        fields.update(_take(engine, {
            "backends": "backends", "executor": "executor", "refine": "refine",
            "top_k": "top_k", "cache": "cache", "store": "store",
            "epsilon": "epsilon", "scheduler_seed": "scheduler_seed",
            "deadline_s": "scheduler_deadline_s",
        }, "engine"))
        if opts:
            fields["backend_opts"] = {name: dict(v) for name, v in opts.items()}
        if "backends" in fields:
            backends = fields["backends"]
            if isinstance(backends, str):
                backends = [backends]
            fields["backends"] = tuple(str(b) for b in backends)
        admission = dict(data.get("admission", {}))
        tenants = admission.pop("tenants", {})
        if not isinstance(tenants, dict) or not all(
            isinstance(v, dict) for v in tenants.values()
        ):
            raise ReproError(
                "[admission.tenants.<name>] tables must map budget key -> value"
            )
        default_budget = admission.pop("default_budget", {})
        if not isinstance(default_budget, dict):
            raise ReproError("[admission.default_budget] must be a table")
        lane_weights = admission.pop("lane_weights", {})
        if not isinstance(lane_weights, dict):
            raise ReproError("admission lane_weights must map priority -> weight")
        fields.update(_take(admission, {
            "degrade_backends": "degrade_backends", "degrade_ratio": "degrade_ratio",
        }, "admission"))
        if "degrade_backends" in fields:
            degraded = fields["degrade_backends"]
            if isinstance(degraded, str):
                degraded = [degraded]
            fields["degrade_backends"] = tuple(str(b) for b in degraded)
        if tenants:
            fields["tenants"] = {name: dict(v) for name, v in tenants.items()}
        if default_budget:
            fields["default_budget"] = dict(default_budget)
        if lane_weights:
            fields["lane_weights"] = dict(lane_weights)

    for variable, (target, parse) in _ENV_OVERRIDES.items():
        raw = env.get(variable)
        if raw is not None and raw != "":
            try:
                fields[target] = parse(raw)
            except ValueError as exc:
                raise ReproError(f"bad {variable}={raw!r}: {exc}") from exc

    config = replace(ServiceConfig(), **fields)
    if overrides:
        config = replace(config, **overrides)
    return config.validate()

"""ServiceConfig: defaults, TOML layering, env overrides, validation."""

import pytest

from repro.exceptions import ReproError
from repro.service.config import ServiceConfig, load_config


def test_defaults_are_valid_and_unscheduled():
    config = load_config(env={})
    assert config.host == "127.0.0.1"
    assert config.backends == ("sa",)
    assert config.max_wave == 64
    assert config.validate() is config


def test_validation_rejects_bad_values():
    bad = [
        dict(port=70000),
        dict(max_queue_depth=0),
        dict(job_retention=0),
        dict(window_s=-0.5),
        dict(max_wave=0),
        dict(max_inflight_waves=0),
        dict(backends=()),
        dict(backend_opts={"ghost": {}}),  # opts for a backend not in the fleet
        dict(epsilon=1.5),
        dict(top_k=0),
        dict(executor="bogus"),
        dict(executor="async"),  # not an executor name
        {"executor": 'threads'},  # removed: serial and processes remain
    ]
    for overrides in bad:
        with pytest.raises(ReproError):
            ServiceConfig(**overrides).validate()


def test_env_overrides_beat_defaults():
    env = {
        "REPRO_SERVICE_PORT": "9001",
        "REPRO_SERVICE_WINDOW_S": "0.5",
        "REPRO_SERVICE_BACKENDS": "sa, tabu",
        "REPRO_SERVICE_MAX_WAVE": "8",
    }
    config = load_config(env=env)
    assert config.port == 9001
    assert config.window_s == 0.5
    assert config.backends == ("sa", "tabu")
    assert config.max_wave == 8


def test_bad_env_value_is_a_config_error():
    with pytest.raises(ReproError):
        load_config(env={"REPRO_SERVICE_PORT": "not-a-port"})


def test_kwarg_overrides_beat_env():
    config = load_config(env={"REPRO_SERVICE_PORT": "9001"}, port=0)
    assert config.port == 0


def test_toml_file_layering(tmp_path):
    pytest.importorskip("tomllib")  # 3.11+ only; 3.10 runs env/kwargs config
    path = tmp_path / "service.toml"
    path.write_text(
        """
[service]
port = 8800
max_queue_depth = 16

[coalesce]
window_s = 0.2
max_wave = 4

[engine]
backends = ["sa", "tabu"]
executor = "serial"
top_k = 4
store = ""

[engine.backend_opts.sa]
num_reads = 8
"""
    )
    config = load_config(path, env={})
    assert config.port == 8800
    assert config.max_queue_depth == 16
    assert config.window_s == 0.2
    assert config.max_wave == 4
    assert config.backends == ("sa", "tabu")
    assert config.backend_opts == {"sa": {"num_reads": 8}}
    assert config.store == ""  # explicit empty string forces the store off
    # env still beats the file...
    assert load_config(path, env={"REPRO_SERVICE_PORT": "1234"}).port == 1234
    # ...and kwargs beat both.
    assert load_config(path, env={"REPRO_SERVICE_PORT": "1234"}, port=0).port == 0


def test_toml_unknown_keys_are_errors(tmp_path):
    pytest.importorskip("tomllib")
    bad_table = tmp_path / "bad_table.toml"
    bad_table.write_text("[surprise]\nx = 1\n")
    with pytest.raises(ReproError):
        load_config(bad_table, env={})

    bad_key = tmp_path / "bad_key.toml"
    bad_key.write_text("[coalesce]\nwindows = 0.5\n")  # typo for window_s
    with pytest.raises(ReproError):
        load_config(bad_key, env={})


def test_cache_is_a_bool_and_a_path_points_to_store(tmp_path):
    with pytest.raises(ReproError, match="store"):
        ServiceConfig(cache="/var/cache/repro").validate()
    pytest.importorskip("tomllib")
    path = tmp_path / "service.toml"
    path.write_text('[engine]\ncache = "/var/cache/repro"\n')
    with pytest.raises(ReproError, match="store"):
        load_config(path, env={})


# -- [admission] -------------------------------------------------------------


def test_admission_defaults():
    config = load_config(env={})
    assert config.tenants == {}
    assert config.default_budget == {}
    assert config.degrade_backends == ("tabu",)
    assert config.degrade_ratio == 0.75
    assert config.resolved_lane_weights() == {
        "interactive": 4, "batch": 2, "best_effort": 1,
    }


def test_admission_toml_table(tmp_path):
    pytest.importorskip("tomllib")
    path = tmp_path / "service.toml"
    path.write_text(
        """
[admission]
degrade_backends = ["tabu", "sa"]
degrade_ratio = 0.5
lane_weights = {interactive = 8, best_effort = 1}

[admission.default_budget]
max_inflight = 256

[admission.tenants.crawler]
max_inflight = 8
backend_seconds = 30.0
window_s = 120.0
queue_share = 0.25
"""
    )
    config = load_config(path, env={})
    assert config.degrade_backends == ("tabu", "sa")
    assert config.degrade_ratio == 0.5
    assert config.default_budget == {"max_inflight": 256}
    assert config.tenants == {
        "crawler": {
            "max_inflight": 8, "backend_seconds": 30.0,
            "window_s": 120.0, "queue_share": 0.25,
        },
    }
    # Partial lane_weights overlay the defaults rather than replacing them.
    assert config.resolved_lane_weights() == {
        "interactive": 8, "batch": 2, "best_effort": 1,
    }


def test_admission_env_overrides():
    env = {
        "REPRO_SERVICE_DEGRADE_BACKENDS": "sa, tabu",
        "REPRO_SERVICE_TENANTS": (
            "crawler:max_inflight=8:backend_seconds=30;lab:queue_share=0.5"
        ),
    }
    config = load_config(env=env)
    assert config.degrade_backends == ("sa", "tabu")
    assert config.tenants == {
        "crawler": {"max_inflight": 8, "backend_seconds": 30.0},
        "lab": {"queue_share": 0.5},
    }
    with pytest.raises(ReproError):  # malformed budget spelling
        load_config(env={"REPRO_SERVICE_TENANTS": "crawler:max_inflight"})


def test_admission_validation_rejects_bad_values():
    bad = [
        dict(tenants={"crawler": {"wallclock": 5}}),      # unknown budget key
        dict(tenants={"crawler": {"max_inflight": 0}}),
        dict(default_budget={"queue_share": 2.0}),
        dict(lane_weights={"urgent": 1}),                 # unknown priority
        dict(lane_weights={"interactive": 0}),
        dict(degrade_backends=()),
        dict(degrade_ratio=1.5),
    ]
    for overrides in bad:
        with pytest.raises(ReproError):
            ServiceConfig(**overrides).validate()

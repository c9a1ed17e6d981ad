"""``BENCH_<run>*.json`` trajectory files shared by the benchmark modules.

CI uploads these files as artifacts so every asserted claim also leaves a
number behind: performance gets a trajectory, not just a pass/fail.
"""

import json
import os


def emit_bench_json(section: str, payload: dict, suffix: str = "") -> str:
    """Merge one claim's metrics into ``BENCH_<run><suffix>.json``.

    The run id comes from ``BENCH_RUN_ID`` (CI passes ``github.run_id``),
    falling back to ``GITHUB_RUN_ID`` then ``"local"``; the directory from
    ``BENCH_OUTPUT_DIR`` (default: current directory).  Several benchmarks
    contribute to one run file, so the payload lands under ``section`` and
    sections from earlier tests in the same run are preserved; an
    unreadable file starts over.  Returns the file's path.
    """
    run_id = os.environ.get("BENCH_RUN_ID") or os.environ.get("GITHUB_RUN_ID") or "local"
    out_dir = os.environ.get("BENCH_OUTPUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{run_id}{suffix}.json")
    sections: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict):
            sections = {k: v for k, v in existing.items() if isinstance(v, dict)}
    except (OSError, ValueError):
        pass
    sections[section] = payload
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sections, fh, indent=2, sort_keys=True)
    return path

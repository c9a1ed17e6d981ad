"""Layer-attributed benchmark of the Fig. 2 pipeline (formulate -> sample -> refine).

Run from the root of a checkout of the repository::

    python3 layerbench/run.py --workload table1-72-tabu --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` makes an untraced and a traced pass over the
same inputs and prints every per-layer metric plus the per-layer table.  The
last line of standard output is the JSON result.  The exit code is 1 when an
output fails its oracle, 3 when the load generator could not keep its
schedule (the run is not data), and 2 when the library is not there.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BATCH = ("table1-72-tabu", "table1-small-sa")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=BATCH + ("service-steady",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _end_to_end(args) -> dict:
    from layerbench import batch, service
    from layerbench.stats import percentile, slo_fraction, tail_percentile

    if args.workload in BATCH:
        run = batch.end_to_end(args.workload, args.seed, args.seconds)
    else:
        run = service.end_to_end(ROOT, args.seed, args.seconds)
    latencies = [x for x in run["latencies"] if x is not None]
    values = dict(run["values"])
    values["latency_p50_s"] = percentile(latencies, 50)
    values["latency_p90_s"] = percentile(latencies, 90)
    values["slo_frac"] = slo_fraction(run["slo_outcomes"], run["slo_limit_s"])
    values["success_frac"] = 1.0 - run["failed"] / run["attempted"]
    tail = tail_percentile(latencies)
    run["notes"] = run.get("notes", []) + [
        f"latency samples {len(latencies)}; highest percentile with >= 10 beyond it: "
        f"{'none' if tail is None else f'p{tail[0]:g}'}",
        f"failed_frac {run['failed'] / run['attempted']:.4f} "
        f"({run['failed']} of {run['attempted']}); slo limit {run['slo_limit_s']:g} s",
    ]
    run["values"] = values
    return run


def _per_layer(args, declared: list) -> dict:
    from layerbench import batch, layers, service

    if args.workload in BATCH:
        run = batch.per_layer(args.workload, args.seed)
    else:
        run = service.per_layer(ROOT, args.seed, args.seconds)
    layer_map = layers.load_layer_map()["per_layer"]
    moves_of = {}
    for name, entry in layer_map.items():
        moves_of.setdefault(entry["span"], f"{entry['moves']} on {entry['on']}")
    rows = [(name, row["busy"], row["count"], row["self"], moves_of.get(name.split(" ")[0], ""))
            for name, row in sorted(run["agg"].items(), key=lambda kv: -kv[1]["busy"])]
    layers.print_table(args.workload, run["e2e_s"], rows, sys.stdout)
    names = {m["name"] for m in declared}
    extra = {k: v for k, v in run["metrics"].items() if k not in names}
    unmapped = sorted(set(extra) - set(layer_map))
    if unmapped:
        raise SystemExit(f"layerbench: per-layer metrics missing from layer_map.json: {unmapped}")
    run["values"] = {k: v for k, v in run["metrics"].items() if k in names}
    run["notes"] = [f"service layer: {k} = {v:.6g}" for k, v in extra.items()]
    return run


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no library at {ROOT / 'src' / 'repro'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A terminated run still unwinds, so the service workloads stop their servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from layerbench.stats import valid_metric_name

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = _per_layer(args, declared) if args.trace else _end_to_end(args)
    values = run["values"]
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names) or not all(map(valid_metric_name, names)):
        raise SystemExit(f"layerbench: metrics {sorted(values)} do not match {sorted(names)}")
    for note in run.get("notes", []):
        print(f"note: {note}")
    for m in declared:
        print(f"{m['name']:<26} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    for error in run["errors"]:
        print(f"oracle: {error}", file=sys.stderr)
    if run.get("invalid"):
        print(f"layerbench: invalid run: {run['invalid']}", file=sys.stderr)
        return 3
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

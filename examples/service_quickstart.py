"""Quickstart: the solver service — coalescing, determinism, metrics.

Boots a :class:`repro.service.SolverService` in-process (no sockets
needed; ``python -m repro.service`` serves the same thing over HTTP),
fires a burst of concurrent single-solve submissions at it, and shows the
coalescing story end to end:

1. the burst's 12 requests ride **one** ``solve_many`` wave;
2. duplicate ``(spec, seed)`` submissions dedup to one engine solve each;
3. every result is **bit-identical** to the direct ``repro.solve`` call
   with the same problem and seed — coalescing amortises dispatch, it
   never changes math;
4. ``/metrics``-style Prometheus output falls out of the same run.

Run:  PYTHONPATH=src python examples/service_quickstart.py
"""

import asyncio

import repro
from repro.service import ServiceConfig, SolverService, problem_from_spec

# Content-addressable specs: the same spec names the same instance
# everywhere, which is what makes dedup and caching sound.
SPECS = [
    {"kind": "mqo", "num_queries": 4, "plans_per_query": 3,
     "sharing_density": 0.4, "instance_seed": i}
    for i in range(3)
]
SA_OPTS = {"num_reads": 16, "num_sweeps": 200}


async def main() -> None:
    service = SolverService(ServiceConfig(
        window_s=0.25,          # hold the first request up to 250 ms for companions
                                # (skipped once recent gaps outlast the window)
        max_wave=16,            # ...or dispatch the moment 16 are pending
        backends=("sa",),
        backend_opts={"sa": dict(SA_OPTS)},
        executor="serial",      # the wave's shards share one Backend.run
    ))
    await service.start()

    # A burst: every (spec, seed) pair submitted twice, all concurrently.
    requests = [(spec, seed) for spec in SPECS for seed in (1, 2)] * 2
    jobs = [service.submit(spec, seed=seed) for spec, seed in requests]
    await asyncio.gather(*[job.future for job in jobs])

    waves = int(service._m["waves"].value())
    unique = int(service._m["unique_solves"].value())
    print(f"{len(jobs)} concurrent requests -> {waves} wave(s), "
          f"{unique} engine solves after dedup\n")

    print(f"{'job':<12}{'seed':>5}{'wave':>6}{'objective':>12}   direct solve")
    for job, (spec, seed) in zip(jobs[:6], requests[:6]):
        direct = repro.solve(problem_from_spec(spec), backend="sa",
                             seed=seed, **SA_OPTS)
        match = "== identical" if direct.objective == job.result.objective else "!!"
        print(f"{job.id:<12}{seed:>5}{job.wave:>6}"
              f"{job.result.objective:>12.4f}   {match}")

    print("\nSelected /metrics lines:")
    for line in service.render_metrics().splitlines():
        if line.startswith(("repro_service_waves_total",
                            "repro_service_deduped_requests_total",
                            "repro_service_wave_unique_solves_total",
                            "repro_backend_capacity")):
            print(" ", line)

    await service.shutdown()
    print("\ndrained and stopped cleanly")


if __name__ == "__main__":
    asyncio.run(main())

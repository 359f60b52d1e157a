#!/usr/bin/env python
"""Backend comparison: one pipeline, three execution transports.

Runs the same two seeded days (a cold day one, then a warm day two that
sheds and carries forward) through each execution backend:

* ``serial``  — everything in one process;
* ``process`` — whole partitions run on a real multiprocessing pool;
* ``cluster`` — whole partitions leased to two localhost worker processes
  over TCP (see ``examples/cluster_run.py`` for the multi-machine flow).

and then demonstrates the two contracts the backends are built around:

1. **results are byte-identical** — cluster labels, signatures and verdicts
   never depend on where the work ran;
2. **one timeline, many wall clocks** — every report carries the same
   virtual timeline of the paper's machine pool (a pure function of the
   costs the run recorded), next to whatever this host measurably took.

Run with::

    python examples/backend_comparison.py
"""

from __future__ import annotations

import datetime

from repro import BackendConfig, Kizzle, KizzleConfig, StreamConfig, \
    TelemetryGenerator
from repro.core.config import IncrementalConfig

KITS = ("nuclear", "angler", "rig", "sweetorange")
DAY_ONE = datetime.date(2014, 8, 5)
DAY_TWO = datetime.date(2014, 8, 6)


def run_backend(kind: str):
    """Two warm-pipeline days on one backend; returns (kizzle, results)."""
    cluster_only = dict(spawn_workers=2) if kind == "cluster" else {}
    generator = TelemetryGenerator(StreamConfig(
        benign_per_day=20,
        kit_daily_counts={"angler": 10, "nuclear": 5, "sweetorange": 5,
                          "rig": 3},
        seed=2014,
    ))
    kizzle = Kizzle(KizzleConfig(
        machines=10,
        incremental=IncrementalConfig(enabled=True),
        backend=BackendConfig(kind=kind, **cluster_only),
    ))
    for kit in KITS:
        kizzle.seed_known_kit(
            kit, [generator.reference_core(kit, DAY_ONE
                                           - datetime.timedelta(days=7))])
    results = []
    with kizzle:  # releases the pool / reaps the spawned workers
        for date in (DAY_ONE, DAY_TWO):
            batch = generator.generate_day(date)
            results.append(kizzle.process_day(
                [(s.sample_id, s.content) for s in batch.samples], date))
    return kizzle, results


def fingerprint(kizzle, results):
    """Everything that must be identical across backends."""
    return {
        "labels": [sorted((tuple(sorted(s.sample_id
                                        for s in report.cluster.samples)),
                           report.kit)
                          for report in result.clusters)
                   for result in results],
        "signatures": [(s.kit, s.created.isoformat(), s.pattern)
                       for s in kizzle.database],
        "shed": [result.shed_count for result in results],
    }


def main() -> None:
    print("The daily pipeline is a stage graph:")
    print()
    reference_graph = Kizzle(KizzleConfig(
        incremental=IncrementalConfig(enabled=True))).day_graph()
    for line in reference_graph.describe().splitlines():
        print(f"    {line}")
    print()

    runs = {}
    for kind in ("serial", "process", "cluster"):
        print(f"running 2 days on --backend {kind} ...")
        runs[kind] = run_backend(kind)
    print()

    # ------------------------------------------------------------------
    # Contract 1: byte-identical results.
    # ------------------------------------------------------------------
    reference = fingerprint(*runs["serial"])
    for kind in ("process", "cluster"):
        assert fingerprint(*runs[kind]) == reference, \
            f"{kind} diverged from serial!"
    day_two = runs["serial"][1][1]
    print(f"identical across backends: {len(reference['signatures'])} "
          f"signatures, {day_two.cluster_count} day-two clusters, "
          f"{day_two.shed_count} day-two samples shed")
    print()

    # ------------------------------------------------------------------
    # Contract 2: one virtual timeline, each backend's own wall clock.
    # ------------------------------------------------------------------
    header = f"{'backend':>8}  {'wall day2':>9}  {'map wall':>9}  " \
             f"{'virtual day2':>12}  {'machines':>8}"
    print(header)
    print("-" * len(header))
    for kind, (kizzle, results) in runs.items():
        result = results[1]
        wall = sum(result.stage_walls.values())
        timing = result.timing
        print(f"{kind:>8}  {wall:>8.2f}s  {timing.map_wall_seconds:>8.3f}s  "
              f"{timing.total_time:>11.1f}s  {timing.machine_count:>8}")
    virtual = {results[1].timing.total_time for _, results in runs.values()}
    assert len(virtual) == 1, "the virtual timeline depended on the backend!"
    print()
    print("per-stage wall clock, day two (serial backend):")
    for stage, seconds in runs["serial"][1][1].stage_walls.items():
        print(f"    {stage:>8}: {seconds:.3f}s")
    print()
    print("Pick a backend with KizzleConfig(backend=BackendConfig(kind=...))")
    print("or on the CLI: kizzle-repro --backend {serial,process,cluster}")


if __name__ == "__main__":
    main()

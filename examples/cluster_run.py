#!/usr/bin/env python
"""Multi-machine execution end to end, on one laptop.

Starts the TCP coordinator (``--backend cluster``), spawns two real worker
*subprocesses* that connect to it over localhost sockets, processes two
seeded days of telemetry on them, and then proves the two properties the
backend is built around:

1. **byte-identity** — labels and signatures match a serial rerun exactly
   (where the map ran never leaks into what came out);
2. **fault tolerance** — a rerun in which one of the two workers is
   SIGKILLed mid-map still matches, with the re-dispatch path visibly
   exercised (``redispatch_count >= 1``).

On a real deployment the workers simply run on other machines::

    # machine A (the coordinator; pick a routable listen address)
    kizzle-repro --backend cluster --listen 0.0.0.0:9200 \\
        --spawn-workers 0 process-day

    # machines B, C, ... (one per core, as many machines as you like)
    python -m repro.exec.worker --connect machine-a:9200

Run this demo with::

    python examples/cluster_run.py
"""

from __future__ import annotations

import datetime

from repro import BackendConfig, Kizzle, KizzleConfig, StreamConfig, \
    TelemetryGenerator
from repro.exec.cluster import spawn_local_worker

KITS = ("nuclear", "angler", "rig", "sweetorange")
DAY_ONE = datetime.date(2014, 8, 5)
DAY_TWO = datetime.date(2014, 8, 6)


def _generator():
    return TelemetryGenerator(StreamConfig(
        benign_per_day=20,
        kit_daily_counts={"angler": 10, "nuclear": 5, "sweetorange": 5,
                          "rig": 3},
        seed=2014,
    ))


def run(kind: str, faulty_worker: bool = False):
    """Two days on one backend; returns (fingerprint, telemetry)."""
    generator = _generator()
    config = KizzleConfig(
        machines=8, partitions=4,
        backend=BackendConfig(
            kind=kind,
            # Workers are spawned by hand below when injecting a fault.
            spawn_workers=0 if (kind != "cluster" or faulty_worker) else 2,
            heartbeat_timeout_s=2.0))
    procs = []
    with Kizzle(config) as kizzle:
        if kind == "cluster" and faulty_worker:
            backend = kizzle.backend
            backend.coordinator.min_workers = 2
            procs = [
                spawn_local_worker(backend.address, heartbeat_interval=0.5),
                spawn_local_worker(backend.address, heartbeat_interval=0.5,
                                   fault="sigkill-mid-task"),
            ]
        for kit in KITS:
            kizzle.seed_known_kit(
                kit, [generator.reference_core(
                    kit, DAY_ONE - datetime.timedelta(days=7))])
        results = []
        for date in (DAY_ONE, DAY_TWO):
            batch = generator.generate_day(date)
            results.append(kizzle.process_day(
                [(s.sample_id, s.content) for s in batch.samples], date))
        fingerprint = {
            "labels": [sorted((tuple(sorted(s.sample_id
                                            for s in report.cluster.samples)),
                               report.kit)
                              for report in result.clusters)
                       for result in results],
            "signatures": [(s.kit, s.created.isoformat(), s.pattern)
                           for s in kizzle.database],
        }
        telemetry = {}
        if kind == "cluster":
            telemetry = {
                "remote_tasks": kizzle.backend.remote_task_count,
                "redispatch": kizzle.backend.redispatch_count,
                "tasks_by_worker":
                    dict(kizzle.backend.coordinator.tasks_by_worker),
                "pairs_by_worker": {
                    worker: stats.pairs
                    for worker, stats in
                    kizzle.clusterer.engine.remote_worker_stats.items()},
            }
        # Leaving the `with` drains the cluster: workers get a shutdown,
        # spawned subprocesses are reaped.
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10.0)
    return fingerprint, telemetry


def main() -> None:
    print("reference run (serial, inline) ...")
    reference, _ = run("serial")

    print("cluster run: coordinator + 2 localhost worker subprocesses ...")
    clustered, telemetry = run("cluster")
    assert clustered == reference, "cluster run diverged from serial!"
    print(f"    byte-identical to serial: "
          f"{len(reference['signatures'])} signatures")
    print(f"    tasks executed remotely: {telemetry['remote_tasks']} "
          f"(per worker: {telemetry['tasks_by_worker']})")
    print(f"    distance pairs decided per worker: "
          f"{telemetry['pairs_by_worker']}")
    print()

    print("fault run: one of the two workers is SIGKILLed mid-map ...")
    faulted, telemetry = run("cluster", faulty_worker=True)
    assert faulted == reference, "recovery diverged from serial!"
    assert telemetry["redispatch"] >= 1, "the fault never fired"
    print(f"    still byte-identical; re-dispatched leases: "
          f"{telemetry['redispatch']}")
    print()
    print("Task execution is pure and results merge in task order - so")
    print("placement, worker count, and mid-map failures can never change")
    print("the day's output.")


if __name__ == "__main__":
    main()

"""Cluster-backend benchmark: the socket-distributed map, gated nightly.

Runs the clustering stage of a cold paper-shape day on the true
multi-machine backend — a TCP coordinator leasing whole partition map
tasks to two real localhost worker subprocesses — and serializes the
distributed map's cost and failure telemetry into the nightly
``BENCH_<date>.json``:

* ``cluster_map_wall_s`` — wall clock of the socket-distributed map
  (lease + remote tokenize/DBSCAN + result collection), gated by
  ``check_regression.py`` via its ``*_wall_s`` series rule so a transport
  or scheduling regression fails the night even if other work masks it;
* ``cluster_redispatch_count`` — re-dispatches observed in the
  fault-recovery pass below, gated via the ``*_count`` rule so workers
  being declared dead more often than the baseline is itself a regression.

The authenticated handshake's round trip (``wire_handshake_seconds``) rides
along ungated in ``extra_info``: it reflects crypto throughput, not
scheduling behaviour.

Two contracts are asserted on every run, not just recorded:

1. the clusters coming back from the socket workers are byte-identical to
   the inline serial run of the very same buckets, and
2. a rerun with one of the two workers SIGKILLed mid-map recovers through
   the re-dispatch path (``cluster_redispatch_count >= 1``) and is *still*
   byte-identical.
"""

from __future__ import annotations

import datetime
import os
import socket
import time

from repro.clustering import ClusteredSample, DistributedClusterer
from repro.distance.engine import DistanceEngineConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.exec import wire
from repro.exec.backend import BackendConfig, create_backend
from repro.exec.cluster import ClusterCoordinator, spawn_local_worker

DAY = datetime.date(2014, 8, 2)
#: Paper-shape day scaled so the three cluster-stage runs (serial
#: reference, clean cluster, faulted cluster) stay tractable nightly.
SAMPLES_PER_DAY = 1_500
PARTITIONS = 8
WORKERS = 2


def _raw_batch():
    generator = TelemetryGenerator(
        StreamConfig.paper_scale(samples_per_day=SAMPLES_PER_DAY))
    batch = generator.generate_day(DAY)
    # Raw samples: tokenization rides the distributed map, exactly the
    # work the paper ships to its cluster machines.
    return [ClusteredSample(sample_id=sample.sample_id,
                            content=sample.content)
            for sample in batch.samples]


def _cluster_key(clusters):
    return [(cluster.cluster_id,
             sorted(sample.sample_id for sample in cluster.samples))
            for cluster in clusters]


def _run_serial(samples):
    backend = create_backend(BackendConfig(kind="serial"))
    try:
        clusterer = DistributedClusterer(
            epsilon=0.10, min_points=3, seed=0,
            engine_config=DistanceEngineConfig(workers=1,
                                               shared_cache=False),
            backend=backend, machines=PARTITIONS)
        clusters, _report = clusterer.run(samples, partitions=PARTITIONS)
        return _cluster_key(clusters)
    finally:
        backend.close()


def _run_on_cluster(samples, fault=None):
    """One cluster-stage run on a 2-worker localhost cluster.

    With ``fault``, the second worker is spawned faulty (and the
    coordinator is told to wait for both, so the faulty one is guaranteed
    a lease before it dies — see the coordinator's first-lease fairness).
    """
    # Generous heartbeat margin: SIGKILL detection rides the dropped
    # socket, not the heartbeat, so a wide window costs nothing here while
    # keeping a busy runner from spuriously declaring the survivor dead
    # (which would flutter the recorded redispatch count).
    backend = create_backend(BackendConfig(
        kind="cluster", spawn_workers=0 if fault else WORKERS,
        heartbeat_timeout_s=10.0, task_deadline_s=120.0))
    procs = []
    if fault:
        backend.coordinator.min_workers = WORKERS
        procs = [spawn_local_worker(backend.address,
                                    heartbeat_interval=0.5),
                 spawn_local_worker(backend.address,
                                    heartbeat_interval=0.5, fault=fault)]
    try:
        clusterer = DistributedClusterer(
            epsilon=0.10, min_points=3, seed=0,
            engine_config=DistanceEngineConfig(workers=1,
                                               shared_cache=False),
            backend=backend, machines=PARTITIONS)
        started = time.perf_counter()
        clusters, report = clusterer.run(samples, partitions=PARTITIONS)
        wall = time.perf_counter() - started
        return (_cluster_key(clusters), report, wall,
                backend.redispatch_count, backend.remote_task_count)
    finally:
        backend.close()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10.0)


def _measure_handshake():
    """A live hello/welcome round trip under a secret (informational)."""
    coordinator = ClusterCoordinator("127.0.0.1", 0, secret="nightly-bench")
    coordinator.start()
    try:
        started = time.perf_counter()
        sock = socket.create_connection(coordinator.address, timeout=5.0)
        codec = wire.FrameCodec("nightly-bench")
        codec.send(sock, ("hello", {"version": wire.WIRE_VERSION, "pid": 0}))
        kind, _body = codec.recv(sock)
        handshake_s = time.perf_counter() - started
        assert kind == "welcome"
        sock.close()
    finally:
        coordinator.close()
    return handshake_s


def test_cluster_backend_map(benchmark):
    samples = _raw_batch()
    serial_key = _run_serial(samples)

    key, report, _wall, redispatched, remote = benchmark.pedantic(
        _run_on_cluster, args=(samples,), rounds=1, iterations=1)
    assert key == serial_key, "socket-distributed map diverged from serial"
    assert remote >= PARTITIONS, \
        "partition tasks did not actually run on the workers"
    assert redispatched == 0, "clean run should not re-dispatch"
    assert report.map_wall_seconds > 0.0

    fault_key, _fault_report, _fault_wall, fault_redispatched, _ = \
        _run_on_cluster(samples, fault="sigkill-mid-task")
    assert fault_key == serial_key, \
        "map diverged after losing a worker mid-map"
    assert fault_redispatched >= 1, \
        "worker loss did not exercise the re-dispatch path"

    benchmark.extra_info["samples"] = len(samples)
    benchmark.extra_info["partitions"] = PARTITIONS
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpu_cores"] = os.cpu_count()
    benchmark.extra_info["cluster_map_wall_s"] = \
        round(report.map_wall_seconds, 3)
    benchmark.extra_info["cluster_redispatch_count"] = fault_redispatched
    benchmark.extra_info["wire_handshake_seconds"] = \
        round(_measure_handshake(), 4)

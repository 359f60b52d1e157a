"""Partition-parallel cluster stage.

The paper's argument for daily web-scale clustering is that the map stage —
tokenize + DBSCAN per partition — is embarrassingly parallel across the
cluster.  This test runs exactly that stage (``DistributedClusterer``
over a cold paper-shape day, raw samples in, merged clusters out) once
inline (``workers=1``) and once on the partition pool at
:data:`PARALLEL_WORKERS` workers, and asserts the merged clusters are
byte-identical.

The ≥1.5× speedup contract compares the two runs of this one test, and is
asserted only when the host actually has ``PARALLEL_WORKERS`` cores: a
smaller box cannot exhibit the parallel speedup, and pretending otherwise
would just make the suite flaky.
"""

from __future__ import annotations

import datetime
import os
import time

from repro.clustering import ClusteredSample, DistributedClusterer
from repro.distance.engine import DistanceEngineConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.exec.backend import BackendConfig, create_backend

DAY = datetime.date(2014, 8, 2)
#: Paper-shape day, scaled to keep two cold cluster-stage runs tractable
#: (the shape — duplicate-heavy grayware — is what matters for the
#: workload, not the absolute count).
SAMPLES_PER_DAY = 3_000
PARTITIONS = 8
PARALLEL_WORKERS = 4
SPEEDUP_FLOOR = 1.5


def _raw_batch():
    generator = TelemetryGenerator(
        StreamConfig.paper_scale(samples_per_day=SAMPLES_PER_DAY))
    batch = generator.generate_day(DAY)
    # Raw samples: tokenization happens inside the per-partition map, which
    # is precisely the work the pool parallelizes.
    return [ClusteredSample(sample_id=sample.sample_id,
                            content=sample.content)
            for sample in batch.samples]


def _run_cluster_stage(samples, workers):
    backend = create_backend(BackendConfig(
        kind="process", workers=workers,
        partition_parallel=workers > 1))
    clusterer = DistributedClusterer(
        epsilon=0.10, min_points=3, seed=0,
        engine_config=DistanceEngineConfig(workers=workers),
        backend=backend, machines=PARTITIONS)
    started = time.perf_counter()
    clusters, report = clusterer.run(samples, partitions=PARTITIONS)
    wall = time.perf_counter() - started
    backend.close()
    key = [(cluster.cluster_id,
            sorted(sample.sample_id for sample in cluster.samples))
           for cluster in clusters]
    return key, report, wall


def test_partition_parallel_cluster_stage():
    samples = _raw_batch()

    inline_key, inline_report, inline_wall = _run_cluster_stage(samples, 1)
    pooled_key, pooled_report, pooled_wall = _run_cluster_stage(
        samples, workers=PARALLEL_WORKERS)

    # Where the map ran must never leak into what came out.
    assert pooled_key == inline_key
    assert inline_report.map_workers == 1
    assert pooled_report.map_workers == PARALLEL_WORKERS
    assert pooled_report.map_wall_seconds > 0.0

    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        speedup = inline_wall / max(pooled_wall, 1e-9)
        assert speedup >= SPEEDUP_FLOOR, (
            f"cluster stage at {PARALLEL_WORKERS} workers: {speedup:.2f}x "
            f"(floor {SPEEDUP_FLOOR}x; inline {inline_wall:.1f}s, "
            f"pooled {pooled_wall:.1f}s)")

"""Cluster-based processing performance (paper, Section IV).

The paper runs the clustering stage on 50 machines, consistently finishing a
daily batch in about 90 minutes, and identifies the single-machine reduce
(cluster reconciliation) step as the bottleneck.  This bench runs the real
distributed-clustering code on the simulated cluster across machine counts
and checks the scaling shape: the map phase parallelizes, the reduce phase
does not, so the reduce fraction grows with the machine count.
"""

from __future__ import annotations

import datetime
import random

from repro.clustering import ClusteredSample, DistributedClusterer
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.evalharness import format_table

DAY = datetime.date(2014, 8, 5)
MACHINE_COUNTS = (1, 5, 10, 25, 50)


def build_batch():
    generator = TelemetryGenerator(StreamConfig(
        benign_per_day=120,
        kit_daily_counts={"angler": 40, "sweetorange": 15, "nuclear": 10,
                          "rig": 6},
        seed=999))
    batch = generator.generate_day(DAY)
    return [ClusteredSample.from_content(sample.sample_id, sample.content)
            for sample in batch.samples]


def run_sweep(samples):
    results = []
    for machines in MACHINE_COUNTS:
        clusterer = DistributedClusterer(
            epsilon=0.10, min_points=3,
            machines=machines)
        partitions = min(machines, max(1, len(samples) // 40))
        clusters, report = clusterer.run(samples, partitions=partitions)
        results.append((machines, partitions, len(clusters), report))
    return results


def test_perf_cluster_scaling(benchmark):
    samples = build_batch()
    results = benchmark.pedantic(run_sweep, args=(samples,), rounds=1,
                                 iterations=1)

    rows = []
    for machines, partitions, cluster_count, report in results:
        summary = report.summary()
        rows.append([machines, partitions, cluster_count,
                     f"{summary['map_s']:.1f}",
                     f"{summary['reduce_s'] + summary['gather_s']:.1f}",
                     f"{summary['total_minutes']:.2f}",
                     f"{summary['reduce_fraction']:.0%}"])
    print()
    print(format_table(
        ["machines", "partitions", "clusters", "map (s)", "reduce (s)",
         "total (min)", "reduce share"],
        rows,
        title="Cluster-based processing performance "
              f"({len(samples)} samples, simulated time)"))

    by_machines = {machines: report
                   for machines, _p, _c, report in results}
    # The map phase parallelizes: more machines, less simulated map time.
    assert by_machines[50].map_time < by_machines[1].map_time
    # The reduce step does not parallelize (it reconciles all per-partition
    # clusters on one machine), so its share of the total grows with the
    # machine count — the bottleneck the paper calls out.  At this batch size
    # the reduce can even dominate the savings of the map phase, which is why
    # the paper flags it as the place to spend further engineering effort.
    assert by_machines[50].reduce_fraction > by_machines[1].reduce_fraction
    # Clustering quality does not degrade with the machine count: the merged
    # cluster count stays in the same range (partitioning can push a few
    # borderline groups below the density threshold, nothing more).
    cluster_counts = [cluster_count for _m, _p, cluster_count, _r in results]
    assert max(cluster_counts) - min(cluster_counts) <= 8

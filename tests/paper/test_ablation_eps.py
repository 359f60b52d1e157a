"""Ablation: the DBSCAN epsilon threshold (paper: 0.10, Section III-A).

The paper chose 0.10 "to generate a reasonably small number of clusters,
while not generating clusters that are too generic".  The ablation clusters
one mixed day at several epsilons and measures cluster count and purity
(fraction of clusters whose members all share one ground-truth family).
"""

from __future__ import annotations

import datetime

from repro.clustering import ClusteredSample, DistributedClusterer
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.evalharness import format_table

DAY = datetime.date(2014, 8, 5)
EPSILONS = (0.02, 0.10, 0.30, 0.60)


def build_labeled_batch():
    generator = TelemetryGenerator(StreamConfig(
        benign_per_day=40,
        kit_daily_counts={"angler": 12, "sweetorange": 7, "nuclear": 5,
                          "rig": 4},
        seed=4242))
    batch = generator.generate_day(DAY)
    labels = {}
    samples = []
    for sample in batch.samples:
        family = sample.kit or f"benign:{sample.benign_family}"
        labels[sample.sample_id] = family
        samples.append(ClusteredSample.from_content(sample.sample_id,
                                                    sample.content))
    return samples, labels


def sweep(samples, labels):
    results = []
    for epsilon in EPSILONS:
        clusterer = DistributedClusterer(
            epsilon=epsilon, min_points=3,
            machines=4)
        clusters, _report = clusterer.run(samples, partitions=2)
        pure = 0
        clustered_samples = 0
        for cluster in clusters:
            families = {labels[sample.sample_id] for sample in cluster.samples}
            clustered_samples += cluster.size
            if len(families) == 1:
                pure += 1
        purity = pure / len(clusters) if clusters else 0.0
        coverage = clustered_samples / len(samples)
        results.append((epsilon, len(clusters), purity, coverage))
    return results


def test_ablation_dbscan_epsilon():
    samples, labels = build_labeled_batch()
    results = sweep(samples, labels)
    rows = [[epsilon, count, f"{purity:.0%}", f"{coverage:.0%}"]
            for epsilon, count, purity, coverage in results]
    print()
    print(format_table(["epsilon", "clusters", "cluster purity", "coverage"],
                       rows,
                       title="Ablation: DBSCAN epsilon (paper uses 0.10)"))

    by_epsilon = {epsilon: (count, purity, coverage)
                  for epsilon, count, purity, coverage in results}
    # At the paper's threshold every cluster is family-pure.
    assert by_epsilon[0.10][1] == 1.0
    # A very loose threshold produces fewer, more generic clusters.
    assert by_epsilon[0.60][0] <= by_epsilon[0.10][0]
    assert by_epsilon[0.60][1] <= by_epsilon[0.10][1]
    # A very tight threshold cannot cover more samples than the paper's
    # setting (identical structure still clusters, near-misses drop out).
    assert by_epsilon[0.02][2] <= by_epsilon[0.10][2] + 1e-9

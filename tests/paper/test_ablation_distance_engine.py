"""Ablation: the distance-engine pruning layers.

The epsilon ablation went from ~56 s to well under a second when the
clustering stack moved onto the pruned bit-parallel engine.  This bench
attributes that speedup layer by layer: the same all-pairs neighbourhood
query runs with every pruning layer enabled, with each layer disabled in
turn, and with the sequential banded metric as the baseline — asserting
along the way that every configuration produces the identical neighbourhood
graph (pruning must never change results, only cost).
"""

from __future__ import annotations

import datetime
import time

from oracle_distance import TokenEditDistance
from repro.clustering import ClusteredSample
from repro.distance import DistanceEngine, DistanceEngineConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.evalharness import format_table

DAY = datetime.date(2014, 8, 5)
EPSILON = 0.10

CONFIGS = (
    ("full engine", {}),
    ("no length filter", {"length_filter": False}),
    ("no bag filter", {"bag_filter": False}),
    ("no prefilters", {"length_filter": False, "bag_filter": False}),
)


def build_points():
    generator = TelemetryGenerator(StreamConfig(
        benign_per_day=40,
        kit_daily_counts={"angler": 12, "sweetorange": 7, "nuclear": 5,
                          "rig": 4},
        seed=4242))
    batch = generator.generate_day(DAY)
    points = [ClusteredSample.from_content(s.sample_id, s.content).tokens
              for s in batch.samples]
    # Deduplicate the way DBSCAN does, so the all-pairs query matches the
    # clustering workload.
    return list(dict.fromkeys(points))


def run_ablation(points):
    results = []
    for label, overrides in CONFIGS:
        config = DistanceEngineConfig(**overrides)
        engine = DistanceEngine(config)
        started = time.perf_counter()
        adjacency, comparisons = engine.neighbourhoods(points, EPSILON)
        elapsed = time.perf_counter() - started
        results.append({
            "label": label,
            "seconds": elapsed,
            "adjacency": adjacency,
            "comparisons": comparisons,
            "stats": engine.stats.as_dict(),
        })

    # Sequential banded-metric baseline: the reference oracle.
    metric = TokenEditDistance(epsilon=EPSILON)
    started = time.perf_counter()
    baseline_adjacency = [
        [other for other in range(len(points))
         if other != index and metric.within(points[index], points[other],
                                             EPSILON)]
        for index in range(len(points))
    ]
    elapsed = time.perf_counter() - started
    results.append({
        "label": "sequential banded metric",
        "seconds": elapsed,
        "adjacency": baseline_adjacency,
        "comparisons": len(points) * (len(points) - 1),
        "stats": {},
    })
    return results


def test_ablation_distance_engine():
    points = build_points()
    results = run_ablation(points)

    rows = []
    for outcome in results:
        stats = outcome["stats"]
        pruned = stats.get("length_pruned", 0) + stats.get("bag_pruned", 0)
        rows.append([
            outcome["label"],
            f"{outcome['seconds'] * 1000:.1f}",
            outcome["comparisons"],
            pruned,
            stats.get("kernel_calls", ""),
        ])
    print()
    print(format_table(
        ["configuration", "ms", "pairs", "pruned", "kernel calls"],
        rows, title=f"Ablation: distance-engine layers (epsilon={EPSILON})"))

    # Pruning must never change the neighbourhood graph.
    reference = results[0]["adjacency"]
    for outcome in results[1:]:
        assert outcome["adjacency"] == reference, outcome["label"]

    # The full engine must beat the sequential banded baseline comfortably.
    full = results[0]["seconds"]
    sequential = results[-1]["seconds"]
    assert full < sequential, (full, sequential)

    # With all filters on, most pairs never reach the kernel.
    stats = results[0]["stats"]
    assert stats["kernel_calls"] < stats["pairs"] / 2

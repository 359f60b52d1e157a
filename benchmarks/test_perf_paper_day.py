"""Paper-scale daily batch benchmark (PR 2).

The paper's pipeline digests 80k-500k samples per day on a 50-machine
cluster.  This benchmark proves the incremental pipeline makes a >=20k-sample
synthetic day tractable on one process: a small warm-up day deploys
signatures and anchors, then one paper-scale day runs end to end through the
warm path.  Per-stage wall-clock timings (shed / cluster / label+compile)
and the shed fraction are serialized into ``BENCH_<date>.json`` via the
benchmark's extra info, so stage-level regressions are visible PR over PR.
"""

from __future__ import annotations

import datetime

from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.ekgen import StreamConfig, TelemetryGenerator

#: Mean configured volume; the seeded draw for August 2 lands at ~21.8k.
PAPER_SAMPLES_PER_DAY = 20_800
MIN_SAMPLES = 20_000


def test_paper_scale_day_end_to_end(benchmark):
    warmup_stream = TelemetryGenerator(StreamConfig(seed=20140801))
    paper_stream = TelemetryGenerator(
        StreamConfig.paper_scale(samples_per_day=PAPER_SAMPLES_PER_DAY))

    kizzle = Kizzle(KizzleConfig(
        machines=50, min_points=3,
        incremental=IncrementalConfig(enabled=True)))
    for kit in ("nuclear", "angler", "rig", "sweetorange"):
        kizzle.seed_known_kit(kit, [warmup_stream.reference_core(
            kit, datetime.date(2014, 7, 31))])

    warmup_day = datetime.date(2014, 8, 1)
    warmup_batch = warmup_stream.generate_day(warmup_day)
    kizzle.process_day(
        [(s.sample_id, s.content) for s in warmup_batch.samples], warmup_day)

    paper_day = datetime.date(2014, 8, 2)
    paper_batch = paper_stream.generate_day(paper_day)
    samples = [(s.sample_id, s.content) for s in paper_batch.samples]
    assert len(samples) >= MIN_SAMPLES

    result = benchmark.pedantic(
        lambda: kizzle.process_day(samples, paper_day),
        rounds=1, iterations=1)

    # End-to-end accounting: every sample is shed, clustered or noise.
    clustered = sum(
        1 for report in result.clusters for sample in report.cluster.samples
        if not sample.sample_id.startswith("sentinel-"))
    assert result.shed_count + clustered + result.noise_count \
        == len(samples)
    # The warm path sheds the bulk of the stream (the paper's "most of the
    # stream is the same grayware every day").
    assert result.shed_count >= 0.4 * len(samples)
    assert result.cluster_count >= 4

    benchmark.extra_info["samples"] = len(samples)
    benchmark.extra_info["shed"] = result.shed_count
    benchmark.extra_info["shed_fraction"] = round(
        result.shed_count / len(samples), 3)
    benchmark.extra_info["clusters"] = result.cluster_count
    benchmark.extra_info["carried_clusters"] = result.carried_cluster_count
    benchmark.extra_info["noise"] = result.noise_count
    benchmark.extra_info["virtual_minutes"] = round(
        result.timing.total_time / 60.0, 2)
    benchmark.extra_info["backend"] = result.backend
    for stage, seconds in sorted(result.stage_walls.items()):
        benchmark.extra_info[f"wall_{stage}_s"] = round(seconds, 3)

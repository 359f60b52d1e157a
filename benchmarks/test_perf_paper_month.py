"""Paper-scale *month* benchmark (nightly).

The paper's pipeline runs nightly for a month over 80k-500k samples/day;
this benchmark runs the full August 2014 window at a downscaled paper-shape
volume (``StreamConfig.paper_scale``, ~1k samples/day — same kit prevalence
ratios, ~17x the default test stream) through the warm stage-graph
pipeline.  Per-stage wall clocks are *aggregated over the month* and
serialized as ``wall_<stage>_s`` extra info, so the nightly regression gate
(``benchmarks/check_regression.py``) catches a slowdown confined to one
stage — shed, cluster, label, compile or finalize — even when the
end-to-end mean hides it.

Contracts asserted:

* steady-state days shed the bulk of the stream (the paper's "most of the
  stream is the same grayware every day");
* the Angler August 13 packer change still produces a new signature
  mid-month (shedding/carry-forward never freeze the signature set);
* every sample is accounted for: shed, clustered or noise, every day.
"""

from __future__ import annotations

import datetime

from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.ekgen import StreamConfig, TelemetryGenerator

AUGUST_START = datetime.date(2014, 8, 1)
DAYS = 31

#: Downscaled paper-shape daily volume (ratios preserved, jitter applies).
PAPER_MONTH_SAMPLES_PER_DAY = 1_000

KITS = ("nuclear", "angler", "rig", "sweetorange")


def test_paper_scale_month_end_to_end(benchmark):
    seed_stream = TelemetryGenerator(StreamConfig(seed=20140801))
    stream = TelemetryGenerator(
        StreamConfig.paper_scale(samples_per_day=PAPER_MONTH_SAMPLES_PER_DAY))

    def run_month():
        kizzle = Kizzle(KizzleConfig(
            machines=50, min_points=3,
            incremental=IncrementalConfig(enabled=True)))
        for kit in KITS:
            kizzle.seed_known_kit(kit, [seed_stream.reference_core(
                kit, AUGUST_START - datetime.timedelta(days=1))])
        results = []
        for offset in range(DAYS):
            date = AUGUST_START + datetime.timedelta(days=offset)
            batch = stream.generate_day(date)
            result = kizzle.process_day(
                [(s.sample_id, s.content) for s in batch.samples], date)
            # Accounting: every sample is shed, clustered or noise.
            clustered = sum(
                1 for report in result.clusters
                for sample in report.cluster.samples
                if not sample.sample_id.startswith("sentinel-"))
            assert result.shed_count + clustered + result.noise_count \
                == result.sample_count, date
            results.append(result)
        return kizzle, results

    kizzle, results = benchmark.pedantic(run_month, rounds=1, iterations=1)

    sample_total = sum(result.sample_count for result in results)
    shed_total = sum(result.shed_count for result in results)
    # Day one is all-novel by construction; the steady state must shed the
    # bulk of the stream.
    steady = results[1:]
    steady_shed = sum(result.shed_count for result in steady)
    steady_samples = sum(result.sample_count for result in steady)
    assert steady_shed >= 0.3 * steady_samples

    # The Angler August 13 update still yields a new signature mid-month.
    angler = kizzle.database.signatures_for(kit="angler")
    assert any(signature.created >= datetime.date(2014, 8, 13)
               for signature in angler), \
        "packer change did not produce a new signature on the warm path"

    benchmark.extra_info["samples"] = sample_total
    benchmark.extra_info["days"] = len(results)
    benchmark.extra_info["backend"] = results[-1].backend
    benchmark.extra_info["shed_fraction"] = round(shed_total / sample_total, 3)
    benchmark.extra_info["signatures"] = len(list(kizzle.database))
    benchmark.extra_info["carried_clusters"] = sum(
        result.carried_cluster_count for result in results)
    # Month-aggregated per-stage walls, gated stage by stage nightly.
    stage_totals = {}
    for result in results:
        for stage, seconds in result.stage_walls.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    for stage, seconds in sorted(stage_totals.items()):
        benchmark.extra_info[f"wall_{stage}_s"] = round(seconds, 3)

#!/usr/bin/env python
"""Quickstart: run Kizzle over one day of synthetic grayware.

This walks through the whole public API in one file:

1. build a synthetic telemetry stream (the stand-in for the paper's IE
   telemetry);
2. seed Kizzle with known unpacked exploit-kit cores;
3. process one day of samples: cluster, label, compile signatures;
4. scan the day's samples with the generated signatures and print what was
   detected.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import datetime

from repro import Kizzle, KizzleConfig, StreamConfig, TelemetryGenerator

KITS = ("nuclear", "angler", "rig", "sweetorange")


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A small synthetic grayware stream (see repro.ekgen for the knobs).
    # ------------------------------------------------------------------
    generator = TelemetryGenerator(StreamConfig(
        benign_per_day=30,
        kit_daily_counts={"angler": 12, "nuclear": 6, "sweetorange": 6,
                          "rig": 4},
        seed=2014,
    ))

    # ------------------------------------------------------------------
    # 2. Kizzle, seeded with unpacked kit cores captured before the study
    #    window (the paper seeds the pipeline the same way).
    # ------------------------------------------------------------------
    kizzle = Kizzle(KizzleConfig(machines=10, min_points=3))
    seed_day = datetime.date(2014, 7, 28)
    for kit in KITS:
        kizzle.seed_known_kit(kit, [generator.reference_core(kit, seed_day)])

    # ------------------------------------------------------------------
    # 3. Process one day.
    # ------------------------------------------------------------------
    day = datetime.date(2014, 8, 5)
    batch = generator.generate_day(day)
    result = kizzle.process_day(
        [(sample.sample_id, sample.content) for sample in batch.samples], day)

    print(f"Processed {result.sample_count} samples for {day}")
    print(f"  clusters found:          {result.cluster_count}")
    print(f"  malicious clusters:      {len(result.malicious_clusters)}")
    print(f"  noise samples:           {result.noise_count}")
    print(f"  virtual cluster time:    {result.timing.total_time / 60:.1f} "
          f"minutes on {result.timing.machine_count} modelled machines")
    print()
    for report in result.clusters:
        verdict = report.kit or "benign"
        print(f"  cluster of {report.size:3d} samples -> {verdict:12s} "
              f"(best family {report.label.best_family}, "
              f"overlap {report.label.overlap:.2f})")
    print()
    print(f"New signatures generated: {len(result.new_signatures)}")
    for signature in result.new_signatures:
        print(f"  [{signature.kit}] {signature.length} chars, "
              f"{signature.token_length} tokens")
        print(f"    {signature.pattern[:100]}...")

    # ------------------------------------------------------------------
    # 4. Scan the day's samples with the freshly compiled signatures.
    # ------------------------------------------------------------------
    detected_by_kit = {}
    totals_by_kit = {}
    false_positives = 0
    for sample in batch.samples:
        hit = kizzle.detects(sample.content)
        if sample.is_malicious:
            totals_by_kit[sample.kit] = totals_by_kit.get(sample.kit, 0) + 1
            if hit:
                detected_by_kit[sample.kit] = detected_by_kit.get(sample.kit, 0) + 1
        elif hit:
            false_positives += 1

    print()
    print("Detection with the generated signatures:")
    for kit in sorted(totals_by_kit):
        detected = detected_by_kit.get(kit, 0)
        print(f"  {kit:12s} {detected:3d} / {totals_by_kit[kit]:3d}")
    print(f"  false positives on benign samples: {false_positives}")


if __name__ == "__main__":
    main()

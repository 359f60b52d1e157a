"""The headline result (abstract, Sections I and VII).

"When evaluated over a four-week period, false-positive rates for Kizzle are
under 0.03%, while the false-negative rates are under 5%", rivalling the
manually-maintained AV signatures.  At our (three orders of magnitude
smaller) stream volume, the shape to preserve is: Kizzle FP at or below the
AV's and in the sub-percent range, Kizzle FN in the single digits and below
the AV's.
"""

from __future__ import annotations

from repro.evalharness import format_table


def test_headline_rates(month_report):
    rates = month_report.overall_rates()
    counts = month_report.cluster_count_range()

    print()
    print(format_table(
        ["metric", "Kizzle", "AV", "paper (Kizzle)"],
        [["false-positive rate", f"{rates['kizzle_fp_rate']:.3%}",
          f"{rates['av_fp_rate']:.3%}", "< 0.03%"],
         ["false-negative rate", f"{rates['kizzle_fn_rate']:.3%}",
          f"{rates['av_fn_rate']:.3%}", "< 5%"]],
        title="Headline accuracy over the four-week window"))
    print(f"Clusters per day: {counts['min']}-{counts['max']} "
          "(paper: 280-1,200 at full telemetry volume)")
    malicious_clusters = [day.malicious_cluster_count
                          for day in month_report.days]
    print(f"Malicious clusters per day: {min(malicious_clusters)}-"
          f"{max(malicious_clusters)} (paper: 'only a handful')")

    # Kizzle's false negatives are in the single digits and below the AV's.
    assert rates["kizzle_fn_rate"] < 0.10
    assert rates["kizzle_fn_rate"] < rates["av_fn_rate"]
    # Kizzle's false positives are tiny and not worse than the AV's by more
    # than a rounding error at this scale.
    assert rates["kizzle_fp_rate"] < 0.02
    assert rates["kizzle_fp_rate"] <= rates["av_fp_rate"] + 0.005
    # Most clusters are benign; only a handful per day are malicious.
    assert max(malicious_clusters) <= 12
    assert counts["max"] > max(malicious_clusters)

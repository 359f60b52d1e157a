"""Figure 11: day-over-day similarity of unpacked kit cores over August 2014.

Nuclear and Angler barely change (>= 99% in the paper), Sweet Orange stays
high, and RIG is the outlier whose short, URL-dominated body churns down to
~50% — the paper's explanation for why RIG is the hardest kit to track.
"""

from __future__ import annotations

import datetime

from repro.ekgen import TelemetryGenerator
from repro.evalharness import format_day_series
from repro.evalharness.similarity import similarity_all_kits

START = datetime.date(2014, 8, 2)
END = datetime.date(2014, 8, 31)


def test_fig11_similarity_over_time(generator: TelemetryGenerator):
    series = similarity_all_kits(generator, START, END)

    print()
    print(format_day_series(
        series["nuclear"].dates,
        {kit: series[kit].similarity
         for kit in ("nuclear", "sweetorange", "angler", "rig")},
        title="Figure 11: unpacked-core similarity over time (max overlap "
              "with all previous days)"))
    for kit in ("nuclear", "sweetorange", "angler", "rig"):
        print(f"  {kit:12s} min {series[kit].minimum():.2%} "
              f"mean {series[kit].mean():.2%}")

    # Figure 11(a)/(c): Nuclear and Angler stay essentially unchanged.
    assert series["nuclear"].minimum() > 0.95
    assert series["angler"].minimum() > 0.95
    # Figure 11(b): Sweet Orange stays high as well.
    assert series["sweetorange"].minimum() > 0.80
    # Figure 11(d): RIG is the outlier with far lower similarity.
    assert series["rig"].mean() < series["nuclear"].mean() - 0.15
    assert series["rig"].minimum() < 0.75
    # ... but RIG never becomes unrecognizable either (the labeler's looser
    # RIG threshold relies on this).
    assert series["rig"].minimum() > 0.2

"""Figure 13: false positives and false negatives over time, Kizzle vs AV.

The paper's qualitative findings: both engines keep FP rates very small;
Kizzle's FN rate stays low all month while the AV's FN rate spikes during
the mid-August Angler window; overall Kizzle's FN is below the AV's.
"""

from __future__ import annotations

import datetime

from repro.evalharness import format_day_series
from repro.evalharness.reporting import sparkline


def test_fig13_fp_fn_over_time(month_report):
    fn = month_report.fn_series()
    fp = month_report.fp_series()
    dates = fn["dates"]

    print()
    print(format_day_series(
        dates, {"AV FP": fp["av"], "Kizzle FP": fp["kizzle"]},
        title="Figure 13(a): false positives over time"))
    print()
    print(format_day_series(
        dates, {"AV FN": fn["av"], "Kizzle FN": fn["kizzle"]},
        title="Figure 13(b): false negatives over time"))
    print()
    print("AV FN trend:    ", sparkline(fn["av"]))
    print("Kizzle FN trend:", sparkline(fn["kizzle"]))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    # (a) FP rates are small for both engines all month.
    assert max(fp["kizzle"]) <= 0.10
    assert max(fp["av"]) <= 0.15
    assert mean(fp["kizzle"]) <= mean(fp["av"]) + 0.01

    # (b) Kizzle's FN stays low; the AV spikes during the Angler window.
    window = [index for index, date in enumerate(dates)
              if datetime.date(2014, 8, 13) <= date <= datetime.date(2014, 8, 18)]
    av_window_mean = mean([fn["av"][i] for i in window])
    kizzle_window_mean = mean([fn["kizzle"][i] for i in window])
    assert av_window_mean > 0.25          # the paper shows ~40%+ spikes
    assert kizzle_window_mean < 0.25
    assert kizzle_window_mean < av_window_mean

    # Month-long means: Kizzle below AV, Kizzle in the single digits.
    assert mean(fn["kizzle"]) < mean(fn["av"])
    assert mean(fn["kizzle"]) < 0.12

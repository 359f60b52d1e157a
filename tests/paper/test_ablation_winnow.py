"""Ablation: winnowing fingerprint parameters (k-gram size and window).

The labeler's precision depends on the fingerprint granularity: small k-grams
inflate the overlap between unrelated code (pushing the benign PluginDetect
library over the labeling threshold — the Figure 15 risk), very large k-grams
make the day-over-day kit similarity brittle.  The ablation sweeps (k, w) and
reports both quantities.
"""

from __future__ import annotations

import datetime

from repro.ekgen import BenignGenerator, TelemetryGenerator
from repro.evalharness import format_table
from repro.winnowing.fingerprint import Fingerprint

import random

DAY = datetime.date(2014, 8, 20)
PREVIOUS = datetime.date(2014, 8, 19)
PARAMS = ((4, 6), (8, 12), (16, 24), (32, 48))


def measure(generator: TelemetryGenerator):
    nuclear_today = generator.reference_core("nuclear", DAY)
    nuclear_yesterday = generator.reference_core("nuclear", PREVIOUS)
    plugindetect = BenignGenerator().generate(
        DAY, random.Random(3), family="plugindetect").unpacked
    analytics = BenignGenerator().generate(
        DAY, random.Random(3), family="analytics").unpacked

    results = []
    for k, window in PARAMS:
        def contains(query, reference):
            fp_query = Fingerprint.of(query, k=k, window=window)
            fp_reference = Fingerprint.of(reference, k=k, window=window)
            if fp_query.size == 0:
                return 0.0
            return fp_query.intersection_size(fp_reference) / fp_query.size

        results.append((
            k, window,
            contains(nuclear_today, nuclear_yesterday),
            contains(plugindetect, nuclear_today),
            contains(analytics, nuclear_today),
        ))
    return results


def test_ablation_winnow_parameters(generator: TelemetryGenerator):
    results = measure(generator)
    rows = [[k, window, f"{self_similarity:.0%}", f"{plug:.0%}", f"{plain:.0%}"]
            for k, window, self_similarity, plug, plain in results]
    print()
    print(format_table(
        ["k", "window", "nuclear day-over-day", "PluginDetect vs nuclear",
         "analytics vs nuclear"],
        rows,
        title="Ablation: winnowing parameters (library default k=8, w=12)"))

    by_params = {(k, window): (self_similarity, plug, plain)
                 for k, window, self_similarity, plug, plain in results}
    default = by_params[(8, 12)]
    # With the default parameters: the kit tracks itself day over day, the
    # plugin prober overlaps substantially (the Figure 15 situation), and
    # unrelated benign code does not.
    assert default[0] > 0.95
    assert 0.4 < default[1] < 0.9
    assert default[2] < 0.2
    # Coarser fingerprints (large k) make unrelated-code overlap drop.
    assert by_params[(32, 48)][2] <= default[2] + 0.02
    # Finer fingerprints (small k) inflate the benign/kit overlap — the
    # false-positive risk the thresholds have to absorb.
    assert by_params[(4, 6)][1] >= default[1] - 0.02

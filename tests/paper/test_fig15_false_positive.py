"""Figure 15: a representative (near-)false-positive.

The paper shows a benign PluginDetect library sharing a very high (79%)
winnow overlap with the Nuclear exploit kit core: legitimate plugin-probing
code looks a lot like a kit's fingerprinting layer.  The bench measures the
overlap of our PluginDetect-like benign family against every kit core and
checks that it is high for Nuclear/Angler (which embed the same fingerprinting
block) yet stays below the labeling threshold, while ordinary benign families
show near-zero overlap.
"""

from __future__ import annotations

import datetime
import random

from repro.ekgen import BenignGenerator, TelemetryGenerator
from repro.evalharness import format_table
from repro.labeling.corpus import DEFAULT_THRESHOLDS
from repro.winnowing import overlap

DAY = datetime.date(2014, 8, 20)


def measure(generator: TelemetryGenerator):
    benign = BenignGenerator()
    plugindetect = benign.generate(DAY, random.Random(15),
                                   family="plugindetect")
    analytics = benign.generate(DAY, random.Random(15), family="analytics")
    rows = []
    overlaps = {}
    for kit in ("nuclear", "angler", "sweetorange", "rig"):
        core = generator.reference_core(kit, DAY)
        plug = overlap(plugindetect.unpacked, core)
        plain = overlap(analytics.unpacked, core)
        overlaps[kit] = plug
        rows.append([kit, f"{plug:.2%}", f"{plain:.2%}",
                     f"{DEFAULT_THRESHOLDS[kit]:.0%}"])
    return rows, overlaps


def test_fig15_false_positive(generator: TelemetryGenerator):
    rows, overlaps = measure(generator)
    print()
    print(format_table(
        ["kit core", "PluginDetect overlap", "analytics overlap",
         "label threshold"],
        rows,
        title="Figure 15: benign plugin-probing code vs kit cores "
              "(paper: 79% overlap with Nuclear)"))

    # The PluginDetect-like library shares a large fraction of its
    # fingerprints with the Nuclear/Angler cores (the paper reports 79%)...
    assert overlaps["nuclear"] > 0.45
    assert overlaps["angler"] > 0.45
    # ... which is exactly why per-family thresholds have to sit above it.
    assert overlaps["nuclear"] < DEFAULT_THRESHOLDS["nuclear"]
    # Ordinary benign families are nowhere near.
    analytics_overlap = float(rows[0][2].rstrip("%")) / 100.0
    assert analytics_overlap < 0.2
    # RIG's compact core shares much less with a generic plugin prober.
    assert overlaps["rig"] < overlaps["nuclear"]

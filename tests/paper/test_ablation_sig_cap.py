"""Ablation: the common-window token cap (paper: 200 tokens, Section III-C).

The cap bounds signature size and generation cost.  The ablation compiles
Nuclear signatures at several caps and measures signature length, whether the
signature still detects unseen same-version samples, and whether it still
rejects benign content and other kits.
"""

from __future__ import annotations

import datetime
import random

from repro.ekgen import BenignGenerator, TelemetryGenerator
from repro.evalharness import format_table
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures import SignatureCompiler, SignatureConfig

DAY = datetime.date(2014, 8, 5)
CAPS = (25, 50, 100, 200, 400)


def build_materials(generator: TelemetryGenerator):
    cluster = [generator.kits["nuclear"].generate(DAY, random.Random(seed)).content
               for seed in range(8)]
    unseen = [normalize_for_scan(
        generator.kits["nuclear"].generate(DAY, random.Random(900 + i)).content)
        for i in range(6)]
    other_kit = normalize_for_scan(
        generator.kits["sweetorange"].generate(DAY, random.Random(7)).content)
    benign = [normalize_for_scan(
        BenignGenerator().generate(DAY, random.Random(i)).content)
        for i in range(8)]
    return cluster, unseen, other_kit, benign


def sweep(materials):
    cluster, unseen, other_kit, benign = materials
    results = []
    for cap in CAPS:
        compiler = SignatureCompiler(SignatureConfig(max_window_tokens=cap))
        signature = compiler.compile_cluster(cluster, "nuclear", DAY)
        detected = sum(1 for text in unseen if signature.matches(text))
        fp = sum(1 for text in benign if signature.matches(text))
        cross = signature.matches(other_kit)
        results.append((cap, signature.token_length, signature.length,
                        detected, len(unseen), fp, cross))
    return results


def test_ablation_signature_cap(generator: TelemetryGenerator):
    materials = build_materials(generator)
    results = sweep(materials)
    rows = [[cap, tokens, chars, f"{detected}/{total}", fp, cross]
            for cap, tokens, chars, detected, total, fp, cross in results]
    print()
    print(format_table(
        ["cap (tokens)", "window", "chars", "unseen detected",
         "benign FP", "matches other kit"],
        rows,
        title="Ablation: common-window token cap (paper uses 200)"))

    by_cap = {cap: row for cap, *row in results}
    # Longer caps produce longer signatures.
    assert by_cap[200][1] > by_cap[25][1]
    # At the paper's cap the signature detects unseen same-version samples
    # and produces no benign false positives or cross-kit matches.
    assert by_cap[200][2] == by_cap[200][3]
    assert by_cap[200][4] == 0
    assert not by_cap[200][5]
    # Even the shortest cap stays free of false positives here — the cost of
    # a small cap is specificity over time, not instant FPs.
    assert by_cap[25][4] == 0

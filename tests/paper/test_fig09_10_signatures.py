"""Figures 9 and 10: signature generation in action and the generated
signatures for Nuclear and Sweet Orange.

The bench builds a day's cluster for each kit, runs the signature compiler
and checks the structural properties the paper highlights: Nuclear's
signature keys on the delimiter-spelled method names and ties repeated
randomized identifiers together with backreferences; Sweet Orange's keys on
the ``Math.sqrt`` integer obfuscation; both are long and very specific, and
both match every sample of the cluster after AV-style normalization.
"""

from __future__ import annotations

import datetime
import random
import re

from repro.ekgen import TelemetryGenerator
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures import SignatureCompiler

DAY = datetime.date(2014, 8, 27)  # Nuclear's UluN delimiter period


def build_cluster(generator, kit, count=8):
    return [generator.kits[kit].generate(DAY, random.Random(seed)).content
            for seed in range(count)]


def compile_for(generator, kit):
    cluster = build_cluster(generator, kit)
    signature = SignatureCompiler().compile_cluster(cluster, kit, DAY)
    return cluster, signature


def test_fig09_10_signatures(generator: TelemetryGenerator):
    nuclear_cluster, nuclear_signature = compile_for(generator, "nuclear")
    sweetorange_cluster, sweetorange_signature = compile_for(
        generator, "sweetorange")

    print()
    for kit, signature in (("nuclear", nuclear_signature),
                           ("sweetorange", sweetorange_signature)):
        print(f"Figure 10 ({kit}): {signature.length} chars, "
              f"{signature.token_length} tokens")
        print(f"  {signature.pattern[:240]}...")
        print()

    # Every cluster sample matches its signature (Figure 9's construction).
    for cluster, signature in ((nuclear_cluster, nuclear_signature),
                               (sweetorange_cluster, sweetorange_signature)):
        assert signature is not None
        for content in cluster:
            assert signature.matches(normalize_for_scan(content))

    # Nuclear: the delimiter-spelled method names (sUluNuUluNb...) are in the
    # signature, and randomized identifiers are tied with backreferences.
    assert "UluN" in nuclear_signature.pattern
    assert "(?P<var0>" in nuclear_signature.pattern
    assert "(?P=var" in nuclear_signature.pattern
    # Nuclear: the per-response payload/key are generalized, not pinned.
    assert re.search(r"\[0-9\]\{\d+,\d+\}", nuclear_signature.pattern)

    # Sweet Orange: the Math.sqrt obfuscation and the charAt selector idiom
    # are part of the signature (Figure 10b keys on exactly these).
    assert r"Math\.sqrt\(" in sweetorange_signature.pattern
    assert "charAt" in sweetorange_signature.pattern

    # Both signatures are long and specific (the paper's observation that
    # this keeps false positives down), with the token cap respected.
    for signature in (nuclear_signature, sweetorange_signature):
        assert signature.token_length <= 200
        assert signature.length > 500

    # Neither signature fires on the other kit or on benign content.
    cross = normalize_for_scan(sweetorange_cluster[0])
    assert not nuclear_signature.matches(cross)
    from repro.ekgen import BenignGenerator

    benign = BenignGenerator().generate(DAY, random.Random(3))
    normalized_benign = normalize_for_scan(benign.content)
    assert not nuclear_signature.matches(normalized_benign)
    assert not sweetorange_signature.matches(normalized_benign)

"""Ablation: structural-signature evasion and the multi-window counter-measure
(paper, Section V "Deployment and avoidance").

The attacker inserts a random number of superfluous statements between the
packer's operations.  The bench measures, on a Nuclear cluster:

* the clean single-window signature stops matching the evaded variants;
* recompiling from the evaded cluster, the single-window signature is left
  with a much shorter (less specific) window, while the multi-window
  extension recovers several windows whose combined token count is higher and
  which keep matching fresh evaded variants with no benign false positives.
"""

from __future__ import annotations

import datetime
import random

from repro.ekgen import BenignGenerator, JunkStatementInserter, \
    TelemetryGenerator
from repro.evalharness import format_table
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures import MultiWindowCompiler, MultiWindowConfig, \
    SignatureCompiler

DAY = datetime.date(2014, 8, 5)


def run_scenario(generator: TelemetryGenerator):
    kit = generator.kits["nuclear"]
    inserter = JunkStatementInserter(density=0.8, max_junk_per_site=2, seed=5)

    clean_cluster = [kit.generate(DAY, random.Random(300 + i)).content
                     for i in range(6)]
    evaded_cluster = [inserter.rewrite(
        kit.generate(DAY, random.Random(900 + i)).content, seed=i)
        for i in range(6)]
    fresh_evaded = [normalize_for_scan(inserter.rewrite(
        kit.generate(DAY, random.Random(990 + i)).content, seed=99 + i))
        for i in range(4)]
    benign = [normalize_for_scan(
        BenignGenerator().generate(DAY, random.Random(i)).content)
        for i in range(6)]

    clean_signature = SignatureCompiler().compile_cluster(
        clean_cluster, "nuclear", DAY)
    single_after = SignatureCompiler().compile_cluster(
        evaded_cluster, "nuclear", DAY)
    multi_after = MultiWindowCompiler(MultiWindowConfig(
        max_windows=6, max_tokens_per_window=40)).compile_cluster(
            evaded_cluster, "nuclear", DAY)

    def detection(signature):
        if signature is None:
            return 0
        return sum(1 for text in fresh_evaded if signature.matches(text))

    def false_positives(signature):
        if signature is None:
            return 0
        return sum(1 for text in benign if signature.matches(text))

    return {
        "clean": clean_signature,
        "single": single_after,
        "multi": multi_after,
        "clean_detects": detection(clean_signature),
        "single_detects": detection(single_after),
        "multi_detects": detection(multi_after),
        "multi_fp": false_positives(multi_after),
        "fresh_count": len(fresh_evaded),
    }


def test_ablation_evasion(generator: TelemetryGenerator):
    outcome = run_scenario(generator)
    clean = outcome["clean"]
    single = outcome["single"]
    multi = outcome["multi"]

    rows = [
        ["clean cluster, single window", clean.token_length,
         f"{outcome['clean_detects']}/{outcome['fresh_count']}"],
        ["evaded cluster, single window",
         single.token_length if single else 0,
         f"{outcome['single_detects']}/{outcome['fresh_count']}"],
        ["evaded cluster, multi window",
         sum(multi.token_lengths) if multi else 0,
         f"{outcome['multi_detects']}/{outcome['fresh_count']}"],
    ]
    print()
    print(format_table(
        ["signature", "matched tokens", "detects fresh evaded variants"],
        rows,
        title="Ablation: junk-statement evasion vs multi-window signatures "
              "(Section V)"))

    # The evasion defeats the signature compiled before it appeared.
    assert outcome["clean_detects"] == 0
    # Recompiling single-window still works but with far less structure to
    # pin down; the multi-window extension recovers more matched tokens, at
    # least as much detection, and no benign false positives.  (Fresh evaded
    # variants re-randomize the junk placement, so an occasional variant can
    # still slip past a window boundary — the paper's point is the recovered
    # specificity, not perfection against an adaptive attacker.)
    assert multi is not None
    assert multi.window_count >= 2
    single_tokens = single.token_length if single else 0
    assert single_tokens < clean.token_length
    assert sum(multi.token_lengths) > single_tokens
    assert outcome["multi_detects"] >= outcome["single_detects"]
    assert outcome["multi_detects"] >= outcome["fresh_count"] - 1
    assert outcome["multi_fp"] == 0

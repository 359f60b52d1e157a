"""Failure-injection and robustness tests.

A production grayware pipeline sees truncated captures, hostile input crafted
to break parsers, byte noise and outright garbage every day.  These tests
feed damaged and adversarial samples through each stage and check that the
pipeline degrades gracefully (skips, labels benign, or reports an error)
instead of crashing or mislabeling.
"""

from __future__ import annotations

import datetime
import random

import pytest

from repro import Kizzle, KizzleConfig
from repro.clustering import ClusteredSample, DistributedClusterer
from repro.ekgen import TelemetryGenerator, StreamConfig
from repro.jstoken import abstract_token_string, tokenize
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures import SignatureCompiler
from repro.unpack import default_registry

D = datetime.date(2014, 8, 5)


def truncate(content: str, fraction: float) -> str:
    return content[:int(len(content) * fraction)]


class TestTruncatedSamples:
    @pytest.fixture(scope="class")
    def kit_sample(self, kits):
        return kits["nuclear"].generate(D, random.Random(1)).content

    @pytest.mark.parametrize("fraction", [0.9, 0.5, 0.1, 0.01])
    def test_tokenizer_survives_truncation(self, kit_sample, fraction):
        tokens = tokenize(truncate(kit_sample, fraction))
        assert isinstance(tokens, list)

    @pytest.mark.parametrize("fraction", [0.9, 0.5, 0.1])
    def test_normalizer_survives_truncation(self, kit_sample, fraction):
        assert isinstance(normalize_for_scan(truncate(kit_sample, fraction)),
                          str)

    @pytest.mark.parametrize("fraction", [0.6, 0.3])
    def test_unpack_registry_does_not_crash_on_truncation(self, kit_sample,
                                                          fraction):
        payload, applied = default_registry().unpack(
            truncate(kit_sample, fraction))
        # Either the unpacker still recovers something or it leaves the
        # sample alone; it must not raise.
        assert isinstance(payload, str)
        assert isinstance(applied, list)


class TestHostileInputs:
    HOSTILE = [
        "",
        "   \n\t  ",
        "<html><body>no scripts at all</body></html>",
        "<script>" + "(" * 2000 + "</script>",
        "<script>var a = \"" + "\\" * 999 + "\";</script>",
        "<script>/* unterminated comment " + "x" * 500 + "</script>",
        "\x00\x01\x02 binary garbage \xff\xfe",
        "<script>var πυ = 'unicode identifiers';</script>",
        "<script>" + "a=1;" * 5000 + "</script>",
    ]

    @pytest.mark.parametrize("content", HOSTILE)
    def test_tokenizer_handles_hostile_input(self, content):
        tokens = abstract_token_string(content)
        assert isinstance(tokens, tuple)

    @pytest.mark.parametrize("content", HOSTILE)
    def test_scanner_normalization_handles_hostile_input(self, content):
        assert isinstance(normalize_for_scan(content), str)

    @pytest.mark.parametrize("content", HOSTILE)
    def test_unpackers_ignore_hostile_input(self, content):
        payload, applied = default_registry().unpack(content)
        assert applied == []
        assert payload == content

    def test_signature_compiler_rejects_degenerate_cluster(self):
        compiler = SignatureCompiler()
        assert compiler.compile_cluster(["", ""], "x", D) is None
        assert compiler.compile_cluster(["<p>html only</p>"] * 3, "x", D) is None


class TestPipelineWithDamagedBatch:
    def test_pipeline_survives_mixed_damage(self, kits):
        """A daily batch containing truncated kit samples, empty documents
        and binary noise still processes end to end."""
        generator = TelemetryGenerator(StreamConfig(
            benign_per_day=6, kit_daily_counts={"angler": 5}, seed=3))
        batch = generator.generate_day(D)
        samples = [(sample.sample_id, sample.content)
                   for sample in batch.samples]
        samples.append(("truncated",
                        truncate(batch.malicious[0].content, 0.4)))
        samples.append(("empty", ""))
        samples.append(("garbage", "\x00\xff not javascript at all \x7f"))
        samples.append(("htmlonly", "<html><body><p>hi</p></body></html>"))

        kizzle = Kizzle(KizzleConfig(machines=4, min_points=3))
        kizzle.seed_known_kit(
            "angler", [generator.reference_core("angler", D)])
        result = kizzle.process_day(samples, D)
        assert result.sample_count == len(samples)
        # The damaged samples do not poison the clusters: the angler cluster
        # is still found and labeled.
        assert any(report.kit == "angler"
                   for report in result.malicious_clusters)

    def test_clusterer_isolates_empty_token_strings(self):
        samples = [ClusteredSample(sample_id=str(i), content="", tokens=())
                   for i in range(5)]
        samples += [ClusteredSample(sample_id=f"x{i}", content="var a;",
                                    tokens=("var", "Identifier", ";"))
                    for i in range(5)]
        clusterer = DistributedClusterer(
            min_points=3, machines=2)
        clusters, _report = clusterer.run(samples, partitions=1)
        # Both groups are internally identical, so both may cluster, but the
        # empty and non-empty groups never merge.
        for cluster in clusters:
            token_sets = {sample.tokens for sample in cluster.samples}
            assert len(token_sets) == 1

    def test_corrupted_sample_does_not_become_false_positive(self, kits):
        """A malicious sample damaged beyond recognition must not cause the
        benign-vs-malicious decision to flip for unrelated benign clusters."""
        generator = TelemetryGenerator(StreamConfig(
            benign_per_day=9, kit_daily_counts={"nuclear": 4}, seed=8))
        batch = generator.generate_day(D)
        kizzle = Kizzle(KizzleConfig(machines=2, min_points=3))
        kizzle.seed_known_kit("nuclear",
                              [generator.reference_core("nuclear", D)])
        samples = [(sample.sample_id, sample.content)
                   for sample in batch.samples]
        samples.append(("mangled", batch.malicious[0].content.replace("var", "vrr")[:800]))
        result = kizzle.process_day(samples, D)
        for report in result.benign_clusters:
            assert report.signature is None

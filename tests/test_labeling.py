"""Tests for corpus management and cluster labeling."""

from __future__ import annotations

import datetime
import random

import pytest

from repro.clustering import Cluster, ClusteredSample
from repro.labeling import ClusterLabeler, KnownKitCorpus
from repro.labeling.corpus import DEFAULT_THRESHOLDS, FALLBACK_THRESHOLD
from repro.winnowing.histogram import WinnowHistogram

D = datetime.date(2014, 8, 5)


class TestCorpus:
    def test_add_and_query(self):
        corpus = KnownKitCorpus()
        corpus.add("nuclear", "function f() { return 1; }" * 20)
        assert corpus.kits() == ["nuclear"]
        assert len(corpus) == 1
        assert len(corpus.entries_for("nuclear")) == 1
        assert corpus.entries_for("rig") == []

    def test_add_many(self):
        corpus = KnownKitCorpus()
        corpus.add_many("rig", ["var a = 1;" * 30, "var b = 2;" * 30])
        assert len(corpus) == 2

    def test_add_takes_a_histogram_built_with_its_parameters(self):
        text = "function f() { return 1; }" * 20
        corpus = KnownKitCorpus()
        built = WinnowHistogram.of(text, k=corpus.k, window=corpus.window)
        entry = corpus.add("nuclear", text, histogram=built)
        assert entry.histogram.fingerprint is built.fingerprint
        assert entry == KnownKitCorpus().add("nuclear", text)
        assert built.label is None       # the caller's object is not relabelled

    def test_add_fingerprints_the_text_when_parameters_differ(self):
        text = "function f() { return 1; }" * 20
        corpus = KnownKitCorpus()
        foreign = WinnowHistogram.of(text, k=corpus.k + 1,
                                     window=corpus.window)
        entry = corpus.add("nuclear", text, histogram=foreign)
        assert entry == KnownKitCorpus().add("nuclear", text)
        assert (entry.histogram.fingerprint.k,
                entry.histogram.fingerprint.window) == (corpus.k,
                                                        corpus.window)

    def test_thresholds(self):
        corpus = KnownKitCorpus()
        assert corpus.threshold_for("rig") == DEFAULT_THRESHOLDS["rig"]
        assert corpus.threshold_for("unknownkit") == FALLBACK_THRESHOLD

    def test_custom_thresholds(self):
        corpus = KnownKitCorpus(thresholds={"nuclear": 0.5})
        assert corpus.threshold_for("nuclear") == 0.5


class TestLabeler:
    def seeded_corpus(self, generator):
        corpus = KnownKitCorpus()
        seed_day = datetime.date(2014, 7, 28)
        for kit in ("nuclear", "rig", "angler", "sweetorange"):
            corpus.add(kit, generator.reference_core(kit, seed_day),
                       collected=seed_day)
        return corpus

    def make_cluster(self, contents):
        samples = [ClusteredSample.from_content(f"s{i}", content)
                   for i, content in enumerate(contents)]
        return Cluster(cluster_id=0, samples=samples)

    @pytest.mark.parametrize("kit", ["nuclear", "rig", "angler", "sweetorange"])
    def test_kit_clusters_labeled_correctly(self, small_generator, kits, kit):
        labeler = ClusterLabeler(self.seeded_corpus(small_generator))
        contents = [kits[kit].generate(D, random.Random(i)).content
                    for i in range(3)]
        label = labeler.label_cluster(self.make_cluster(contents))
        assert label.kit == kit
        assert label.is_malicious
        assert label.layers == 1
        assert label.overlap >= 0.4

    def test_benign_cluster_labeled_benign(self, small_generator, august_day):
        from repro.ekgen import BenignGenerator

        labeler = ClusterLabeler(self.seeded_corpus(small_generator))
        generator = BenignGenerator()
        contents = [generator.generate(august_day, random.Random(i),
                                       family="analytics").content
                    for i in range(3)]
        label = labeler.label_cluster(self.make_cluster(contents))
        assert label.kit is None
        assert not label.is_malicious

    def test_plugindetect_high_overlap_but_below_threshold(
            self, small_generator, august_day):
        """The Figure 15 situation: a benign plugin prober shares a lot of
        code with the Nuclear core.  With default thresholds it stays benign,
        but the measured overlap is high."""
        from repro.ekgen import BenignGenerator

        labeler = ClusterLabeler(self.seeded_corpus(small_generator))
        sample = BenignGenerator().generate(august_day, random.Random(0),
                                            family="plugindetect")
        label = labeler.label_prototype(sample.content)
        assert label.best_family == "nuclear"
        assert label.overlap > 0.4

    def test_empty_corpus_labels_everything_benign(self, kits):
        labeler = ClusterLabeler(KnownKitCorpus())
        sample = kits["nuclear"].generate(D, random.Random(1))
        label = labeler.label_prototype(sample.content)
        assert label.kit is None
        assert label.best_family is None
        assert label.overlap == 0.0

    def test_labeling_is_threshold_sensitive(self, small_generator, kits):
        corpus = self.seeded_corpus(small_generator)
        corpus.thresholds["nuclear"] = 1.01  # impossible threshold
        labeler = ClusterLabeler(corpus)
        sample = kits["nuclear"].generate(D, random.Random(1))
        label = labeler.label_prototype(sample.content)
        assert label.kit is None
        assert label.best_family == "nuclear"

    def test_unpacked_payload_exposed(self, small_generator, kits):
        labeler = ClusterLabeler(self.seeded_corpus(small_generator))
        sample = kits["rig"].generate(D, random.Random(1))
        label = labeler.label_prototype(sample.content)
        assert "launchExploits" in label.unpacked

"""Tests for the incremental day-over-day pipeline (PR 2).

Covers the warm path end to end: the split's normal form, detection on
commented pages, the soundness of the compiled
signatures' literal anchors, the indexed signature database,
sentinel-weighted clustering, known-sample shedding (which must never drop
an unmatched sample), carry-forward label inheritance, and the
warm-versus-cold equivalence of signature evolution and per-day FP/FN
metrics across a window containing a packer change.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import random
import re
from unittest import mock

import pytest

from test_scan_normal_form import commented
import repro.clustering.partition as partition
import repro.scanner.normalizer as scanner_normalizer
import repro.signatures.alignment as alignment
from repro.clustering.carryforward import CarryForwardIndex, ClusterAnchor
from repro.clustering.dbscan import DBSCAN
from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.distsim import MapReduceReport
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.evalharness import ExperimentConfig, MonthExperiment
from repro.exec.backend import BackendConfig
from repro.labeling.corpus import CorpusEntry
from repro.scanner.engine import ScanEngine, SignatureDatabase
from repro.scanner.normalizer import fast_normalize, normalize_for_scan
from repro.signatures.signature import Signature
from repro.winnowing.histogram import WinnowHistogram

D = datetime.date
KITS = ("nuclear", "angler", "rig", "sweetorange")


def _seeded_kizzle(generator, incremental=None, machines=6):
    kizzle = Kizzle(KizzleConfig(
        machines=machines, min_points=3,
        incremental=incremental or IncrementalConfig()))
    for kit in KITS:
        cores = [generator.reference_core(
            kit, D(2014, 7, 31) - datetime.timedelta(days=i))
            for i in range(3)]
        kizzle.seed_known_kit(kit, cores)
    return kizzle


def _warm_config(**overrides):
    return IncrementalConfig(enabled=True, **overrides)


@contextlib.contextmanager
def lexer_spy():
    """Count the samples lexed in this process: abstract token strings built
    (by the cluster map or by compile; most lex by one ``findall``, the rest
    run the lexer) and the scan normal form's lexer runs.  Yields a reader
    of the count."""
    with mock.patch.object(partition, "abstract_token_string",
                           wraps=partition.abstract_token_string) as a, \
            mock.patch.object(alignment, "abstract_token_string",
                              wraps=alignment.abstract_token_string) as b, \
            mock.patch.object(scanner_normalizer, "tokenize_sample",
                              wraps=scanner_normalizer.tokenize_sample) as c:
        yield lambda: a.call_count + b.call_count + c.call_count


# ----------------------------------------------------------------------
# the split's normal form
# ----------------------------------------------------------------------
class TestFastNormalize:
    def test_strips_whitespace_outside_strings(self):
        assert fast_normalize("var  a =\n 1;") == "vara=1;"

    def test_preserves_string_interiors(self):
        assert fast_normalize('a = "x  y";') == "a=x  y;"
        assert fast_normalize("a = 'p q';") == "a=p q;"

    def test_handles_escaped_quotes(self):
        assert fast_normalize(r'a = "x\"y z";') == r'a=x\"y z;'


class TestCommentedPages:
    """A warm serial month over Aug 1-3 deploys five signatures; Aug 4's
    kit pages are detected alike with and without a comment on every
    statement, which the lexer drops and the split hands over to it."""

    DAY = D(2014, 8, 4)

    @pytest.fixture(scope="class")
    def setup(self):
        config = ExperimentConfig(
            start=D(2014, 8, 1), end=D(2014, 8, 3),
            stream=StreamConfig(seed=20140801),
            kizzle=KizzleConfig(machines=10, incremental=_warm_config(),
                                backend=BackendConfig(kind="serial")))
        with MonthExperiment(config) as experiment:
            experiment.run()
            batch = experiment.generator.generate_day(self.DAY)
        kizzle = experiment.kizzle
        assert len(kizzle.database) == 5
        pages = [sample.content for sample in batch.samples if sample.kit]
        assert len(pages) == 46
        return kizzle, pages

    def detected(self, database, pages):
        engine = ScanEngine(database)
        return sum(engine.scan("page", page, as_of=self.DAY).detected
                   for page in pages)

    def test_plain_pages(self, setup):
        kizzle, pages = setup
        assert self.detected(kizzle.database, pages) == 42

    def test_commented_pages(self, setup):
        kizzle, pages = setup
        with_comments = [commented(page) for page in pages]
        assert with_comments != pages
        assert self.detected(kizzle.database, with_comments) == 42
        assert sum(bool(kizzle.kits_matching(page, self.DAY))
                   for page in with_comments) == 42


class _CommentedGenerator(TelemetryGenerator):
    """The same stream with every page passed through :func:`commented`."""

    def generate_day(self, date):
        batch = super().generate_day(date)
        batch.samples = [dataclasses.replace(sample,
                                             content=commented(sample.content))
                         for sample in batch.samples]
        return batch


class TestCommentedStream:
    def test_warm_month_is_blind_to_comments(self):
        """A warm serial month over Aug 1-4 compiles the same signatures,
        sheds the same samples and scores the same Kizzle FP/FN on the
        commented stream as on the plain one."""
        stream = StreamConfig(seed=20140801)

        def run(generator):
            config = ExperimentConfig(
                start=D(2014, 8, 1), end=D(2014, 8, 4), stream=stream,
                kizzle=KizzleConfig(machines=10, incremental=_warm_config(),
                                    backend=BackendConfig(kind="serial")))
            with MonthExperiment(config, generator=generator) as experiment:
                report = experiment.run()
            signatures = [(signature.kit, signature.created, signature.pattern)
                          for signature in experiment.kizzle.database]
            days = [(day.date, day.shed_count,
                     day.kizzle.confusion.false_positives,
                     day.kizzle.confusion.false_negatives)
                    for day in report.days]
            return signatures, days

        plain = run(TelemetryGenerator(stream))
        assert plain[0] and sum(shed for _, shed, _, _ in plain[1])
        assert run(_CommentedGenerator(stream)) == plain


# ----------------------------------------------------------------------
# compiled literal anchors
# ----------------------------------------------------------------------
class TestCompiledAnchors:
    def test_anchor_is_required_on_real_signatures(self, small_generator):
        """The anchor the compiler records appears in every text the
        signature matches: the gate can never reject a matching sample."""
        kizzle = _seeded_kizzle(small_generator)
        day = D(2014, 8, 1)
        batch = small_generator.generate_day(day)
        kizzle.process_day(
            [(s.sample_id, s.content) for s in batch.samples], day)
        signatures = list(kizzle.database)
        assert signatures
        assert all(signature.literal_anchor for signature in signatures)
        matched = 0
        for sample in batch.samples:
            normalized = normalize_for_scan(sample.content)
            for signature in signatures:
                if signature.matches(normalized):
                    matched += 1
                    assert signature.literal_anchor in normalized
        assert matched


# ----------------------------------------------------------------------
# indexed signature database
# ----------------------------------------------------------------------
class TestSignatureDatabaseIndex:
    @staticmethod
    def _reference_signatures_for(entries, kit, as_of):
        selected = entries
        if kit is not None:
            selected = [s for s in selected if s.kit == kit]
        if as_of is not None:
            selected = [s for s in selected if s.created <= as_of]
        return list(selected)

    def test_matches_reference_semantics(self):
        rng = random.Random(7)
        kits = ["angler", "rig", "nuclear"]
        entries = []
        database = SignatureDatabase()
        for index in range(40):
            signature = Signature(
                kit=rng.choice(kits), pattern=f"pattern{index}",
                created=D(2014, 8, rng.randint(1, 28)))
            entries.append(signature)
            database.add(signature)
        dates = [None] + [D(2014, 8, day) for day in (1, 5, 14, 28)]
        for kit in [None] + kits:
            for as_of in dates:
                reference = self._reference_signatures_for(entries, kit, as_of)
                got = database.signatures_for(kit=kit, as_of=as_of)
                assert sorted(s.signature_id for s in got) == \
                    sorted(s.signature_id for s in reference)
        # latest_for ties break like max(key=created): first inserted wins.
        for kit in kits:
            for as_of in dates:
                reference = self._reference_signatures_for(entries, kit, as_of)
                expected = max(reference, key=lambda s: s.created) \
                    if reference else None
                got = database.latest_for(kit, as_of=as_of)
                if expected is None:
                    assert got is None
                else:
                    assert got.signature_id == expected.signature_id

    def test_insertion_order_preserved_without_date_filter(self):
        database = SignatureDatabase()
        later = Signature(kit="angler", pattern="b", created=D(2014, 8, 9))
        earlier = Signature(kit="angler", pattern="a", created=D(2014, 8, 2))
        database.add(later)
        database.add(earlier)
        assert [s.pattern for s in database.signatures_for()] == ["b", "a"]
        assert [s.pattern for s in database.signatures_for(kit="angler")] \
            == ["b", "a"]

    def test_generation_counter(self):
        database = SignatureDatabase()
        assert database.generation == 0
        database.add(Signature(kit="rig", pattern="x", created=D(2014, 8, 1)))
        assert database.generation == 1


# ----------------------------------------------------------------------
# weighted clustering primitives
# ----------------------------------------------------------------------
class TestWeights:
    def test_dbscan_external_weights_match_duplicates(self):
        points = [("a", "b", "c"), ("a", "b", "c"), ("a", "b", "c"),
                  ("x", "y", "z")]
        collapsed = [("a", "b", "c"), ("x", "y", "z")]
        expanded = DBSCAN(epsilon=0.1, min_points=3).fit(points)
        weighted = DBSCAN(epsilon=0.1, min_points=3).fit(
            collapsed, weights=[3, 1])
        assert expanded.labels[0] == weighted.labels[0] == 0
        assert expanded.labels[3] == weighted.labels[1] == -1

    def test_dbscan_weights_length_mismatch(self):
        with pytest.raises(ValueError):
            DBSCAN().fit([("a",)], weights=[1, 2])

    def test_weighted_prototype_matches_expanded(self):
        from repro.clustering.prototypes import select_prototype

        template = tuple("abcdefgh")
        drifted = tuple("abcdefxy")
        expanded = [template] * 5 + [drifted]
        collapsed = [template, drifted]
        expanded_choice = expanded[select_prototype(expanded)]
        collapsed_choice = collapsed[select_prototype(collapsed,
                                                     weights=[5, 1])]
        assert expanded_choice == collapsed_choice == template


# ----------------------------------------------------------------------
# carry-forward index
# ----------------------------------------------------------------------
class TestCarryForward:
    def test_match_and_ttl(self):
        index = CarryForwardIndex(epsilon=0.10, ttl_days=2)
        tokens = tuple("abcdefghij")
        index.anchors = [ClusterAnchor(
            tokens=tokens, kit="angler", overlap=0.9, best_family="angler",
            layers=1, last_seen=D(2014, 8, 1), weight=5)]
        assert index.match(tokens) is not None
        assert index.match(tuple("zzzzzzzzzz")) is None
        # Not re-observed for > ttl days: dropped on update.
        index.update([], D(2014, 8, 4))
        assert index.anchors == []

    def test_refresh_kits_keeps_anchor_alive(self):
        index = CarryForwardIndex(epsilon=0.10, ttl_days=2)
        tokens = tuple("abcdefghij")
        index.anchors = [ClusterAnchor(
            tokens=tokens, kit="angler", overlap=0.9, best_family="angler",
            layers=1, last_seen=D(2014, 8, 1), weight=5)]
        index.refresh_kits(["angler"], D(2014, 8, 4))
        index.update([], D(2014, 8, 5))
        assert len(index.anchors) == 1

    def test_max_anchors_bound(self):
        index = CarryForwardIndex(max_anchors=2, ttl_days=30)
        for day in (1, 2, 3):
            index.anchors.append(ClusterAnchor(
                tokens=(str(day),) * 10, kit=None, overlap=0.0,
                best_family=None, layers=0, last_seen=D(2014, 8, day),
                weight=day))
        index.update([], D(2014, 8, 4))
        assert len(index.anchors) == 2
        assert {a.last_seen.day for a in index.anchors} == {2, 3}


# ----------------------------------------------------------------------
# the warm pipeline
# ----------------------------------------------------------------------
class TestWarmPipeline:
    @pytest.fixture(scope="class")
    def generator(self):
        return TelemetryGenerator(StreamConfig(
            benign_per_day=10,
            kit_daily_counts={"angler": 6, "nuclear": 4, "sweetorange": 4,
                              "rig": 3},
            seed=99))

    def test_drift_free_repeated_day_is_equivalent(self, generator):
        """Processing the same day twice: the warm second pass sheds the
        known stream, carries every cluster forward, and ends with exactly
        the same deployed signatures as the cold second pass."""
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        samples = [(s.sample_id, s.content) for s in batch.samples]

        cold = _seeded_kizzle(generator)
        warm = _seeded_kizzle(generator, incremental=_warm_config())
        for kizzle in (cold, warm):
            kizzle.process_day(samples, day)
            kizzle.process_day(samples, day + datetime.timedelta(days=1))

        cold_db = [(s.kit, s.created, s.pattern) for s in cold.database]
        warm_db = [(s.kit, s.created, s.pattern) for s in warm.database]
        assert cold_db == warm_db

    def test_repeated_day_sheds_and_carries(self, generator):
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        samples = [(s.sample_id, s.content) for s in batch.samples]
        warm = _seeded_kizzle(generator, incremental=_warm_config())
        first = warm.process_day(samples, day)
        second = warm.process_day(samples, day + datetime.timedelta(days=1))
        assert first.shed_count == 0
        # Second pass: every sample is either shed (signature-covered) or
        # re-clustered, benign repeats included; nothing novel.
        assert second.shed_count > 0
        assert second.new_signatures == []
        assert second.carried_cluster_count == len(second.clusters)
        # Every cluster is pure sentinel weight or re-observed samples.
        labeled = {record.sample_id for record in second.shed}
        assert labeled.issubset({sample_id for sample_id, _ in samples})

    def test_shedding_never_drops_unmatched_sample(self, generator):
        """A sample no deployed signature matches and whose content was
        never labeled must reach the clustering stage."""
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        samples = [(s.sample_id, s.content) for s in batch.samples]
        warm = _seeded_kizzle(generator, incremental=_warm_config())
        warm.process_day(samples, day)

        novel_id = "novel-0"
        novel_content = "<script>var zz = totallyNovelFunction(1,2,3);" \
            "zz.unseen();</script>"
        result = warm.process_day(
            samples + [(novel_id, novel_content)],
            day + datetime.timedelta(days=1))
        shed_ids = {record.sample_id for record in result.shed}
        assert novel_id not in shed_ids
        # Every shed sample really is known: matched by a deployed
        # signature.
        engine = ScanEngine(warm.database)
        content_by_id = dict(samples)
        for record in result.shed:
            if record.reason == "signature":
                verdict = engine.scan(record.sample_id,
                                      content_by_id[record.sample_id],
                                      as_of=result.date)
                assert verdict.detected

    def test_warm_cold_metrics_identical_across_packer_change(self):
        """Eight days spanning the Angler August 13 update: identical
        per-day FP/FN for both engines, and substantially less lexer work
        on the warm path."""
        stream = StreamConfig(
            benign_per_day=8,
            kit_daily_counts={"angler": 6, "nuclear": 4, "sweetorange": 4,
                              "rig": 3},
            seed=20140801)

        def run(incremental):
            config = ExperimentConfig(
                start=D(2014, 8, 9), end=D(2014, 8, 16), seed_days=2,
                stream=stream,
                kizzle=KizzleConfig(
                    machines=6, min_points=3,
                    incremental=IncrementalConfig(enabled=incremental),
                    backend=BackendConfig(kind="serial")))
            experiment = MonthExperiment(config)
            with lexer_spy() as lexes:
                report = experiment.run()
            return report, experiment.kizzle, lexes()

        cold_report, cold_kizzle, cold_lexes = run(False)
        warm_report, warm_kizzle, warm_lexes = run(True)

        for cold_day, warm_day in zip(cold_report.days, warm_report.days):
            assert cold_day.kizzle.confusion.false_positives == \
                warm_day.kizzle.confusion.false_positives, cold_day.date
            assert cold_day.kizzle.confusion.false_negatives == \
                warm_day.kizzle.confusion.false_negatives, cold_day.date
            assert cold_day.av.confusion.false_positives == \
                warm_day.av.confusion.false_positives, cold_day.date
            assert cold_day.av.confusion.false_negatives == \
                warm_day.av.confusion.false_negatives, cold_day.date

        # The packer change still produced new signatures on the warm path,
        # covering the same kits.  (Signature *counts* may differ by a
        # borderline coverage call — sentinel collapse versus expanded
        # duplicates — without affecting any verdict; the per-day metric
        # equality above is the contract.)
        assert warm_kizzle.database.kits() == cold_kizzle.database.kits()
        assert warm_kizzle.database.signatures_for(as_of=D(2014, 8, 16))
        # Work metric: the warm path lexes only what survives shedding (in
        # the cluster stage's map; the serial backend keeps it in this
        # process, where the spy sees it); the cold path lexes every sample
        # in the map and again in every exact scan.
        assert warm_lexes < sum(day.sample_count for day in warm_report.days)
        assert warm_lexes < cold_lexes

    def test_shed_accounting_and_stage_charging(self, generator):
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        samples = [(s.sample_id, s.content) for s in batch.samples]
        warm = _seeded_kizzle(generator, incremental=_warm_config())
        warm.process_day(samples, day)
        result = warm.process_day(samples, day + datetime.timedelta(days=1))
        assert result.shed_count == sum(result.shed_by_kit().values())
        assert result.summary()["shed_samples"] == result.shed_count
        timing: MapReduceReport = result.timing
        assert "shed" in timing.stage_seconds
        assert "carry_forward" in timing.stage_seconds
        assert timing.total_time >= sum(timing.stage_seconds.values())
        assert "shed" in timing.wall_stage_seconds
        summary = timing.summary()
        assert "stage_shed_s" in summary
        assert "wall_cluster_s" in summary

    def test_scan_engine_modes_agree(self, generator):
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        samples = [(s.sample_id, s.content) for s in batch.samples]
        warm = _seeded_kizzle(generator, incremental=_warm_config())
        warm.process_day(samples, day)
        exact_engine = ScanEngine(warm.database, mode="exact")
        fast_engine = ScanEngine(warm.database, mode="fast")
        for sample in batch.samples[:20]:
            exact = exact_engine.scan(sample.sample_id, sample.content,
                                      as_of=day)
            fast = fast_engine.scan(sample.sample_id, sample.content,
                                    as_of=day)
            assert exact.detected == fast.detected
            assert exact.kits == fast.kits

    @pytest.mark.parametrize("incremental", [None, _warm_config()],
                             ids=["cold", "warm"])
    def test_each_unpacked_text_is_fingerprinted_once(self, generator,
                                                      monkeypatch,
                                                      incremental):
        """A day that compiles signatures builds one winnow histogram per
        labelled prototype and none for the corpus feedback, and the entry
        fed back is the one fingerprinting the text would have built."""
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        kizzle = _seeded_kizzle(generator, incremental=incremental)
        seeded = len(kizzle.corpus)

        fingerprinted = []
        original = WinnowHistogram.of.__func__

        def counting(cls, text, *args, **kwargs):
            fingerprinted.append(text)
            return original(cls, text, *args, **kwargs)

        monkeypatch.setattr(WinnowHistogram, "of", classmethod(counting))
        result = kizzle.process_day(
            [(s.sample_id, s.content) for s in batch.samples], day)
        monkeypatch.undo()

        compiled = [report for report in result.clusters
                    if report.signature is not None]
        assert compiled
        assert result.carried_cluster_count == 0
        assert fingerprinted == [report.label.unpacked
                                 for report in result.clusters]
        fed_back = kizzle.corpus.entries[seeded:]
        assert fed_back == [
            CorpusEntry(kit=report.label.kit,
                        histogram=WinnowHistogram.of(
                            report.label.unpacked, label=report.label.kit,
                            k=kizzle.corpus.k, window=kizzle.corpus.window),
                        collected=day)
            for report in compiled]

    def test_same_id_samples_keep_their_own_digests(self, generator):
        """Two samples that share an id but not a page: the day record is
        keyed by content, so each page keeps its own entry and kit."""
        day = D(2014, 8, 5)
        by_kit = generator.generate_day(day).by_kit()
        angler, nuclear = by_kit["angler"], by_kit["nuclear"]
        samples = [("dup", angler[0].content), ("dup", nuclear[0].content)]
        samples += [(s.sample_id, s.content)
                    for s in angler[1:] + nuclear[1:]]
        warm = _seeded_kizzle(generator, incremental=_warm_config())
        warm.process_day(samples, day)
        second = warm.process_day(samples, day + datetime.timedelta(days=1))
        for sample, kit in ((angler[0], "angler"), (nuclear[0], "nuclear")):
            assert {signature.kit
                    for signature in warm._record[sample.content]} == {kit}
            assert warm.kits_matching(sample.content, second.date) == {kit}
        assert sorted(record.kit for record in second.shed
                      if record.sample_id == "dup") == ["angler", "nuclear"]

    @pytest.mark.parametrize("incremental", [None, _warm_config()],
                             ids=["cold", "warm"])
    def test_members_and_noise_add_up_with_a_duplicated_id(self, generator,
                                                           incremental):
        """Noise is the survivors less the clustered *members*: two
        clustered samples that share an id are two members, not one."""
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        by_kit = batch.by_kit()
        shared, renamed = by_kit["angler"][0].sample_id, by_kit["nuclear"][0]
        samples = [(shared if sample is renamed else sample.sample_id,
                    sample.content) for sample in batch.samples]
        kizzle = _seeded_kizzle(generator, incremental=incremental)
        result = kizzle.process_day(samples, day)
        members = [sample.sample_id for report in result.clusters
                   for sample in report.cluster.samples]
        assert members.count(shared) == 2
        assert result.shed_count == 0
        assert len(members) + result.noise_count == result.sample_count \
            == len(samples)

    def test_disabled_incremental_unchanged(self, generator):
        """With the feature off, the result carries no warm-path fields."""
        day = D(2014, 8, 5)
        batch = generator.generate_day(day)
        cold = _seeded_kizzle(generator)
        result = cold.process_day(
            [(s.sample_id, s.content) for s in batch.samples], day)
        assert result.shed == []
        assert result.absorbed_count == 0
        assert result.carried_cluster_count == 0
        assert "shed_samples" not in result.summary()


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestConfigAndCache:
    def test_invalid_incremental_config(self):
        with pytest.raises(ValueError):
            IncrementalConfig(anchor_ttl_days=0)
        with pytest.raises(ValueError):
            IncrementalConfig(max_anchors=0)

    def test_paper_scale_stream_config(self):
        config = StreamConfig.paper_scale(samples_per_day=20_800)
        assert config.mean_daily_volume >= 20_000
        ratios = config.kit_daily_counts
        assert ratios["angler"] > ratios["sweetorange"] > ratios["rig"]
        with pytest.raises(ValueError):
            StreamConfig.paper_scale(samples_per_day=0)

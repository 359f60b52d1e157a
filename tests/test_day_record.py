"""The day record against a fresh scan, and how often content is normalised.

Shed scans every content of the day once and keeps the verdict as the day
record (``Kizzle._record``).  :meth:`Kizzle.kits_matching` extends a
recorded verdict with the signatures deployed since, and scans in full
whatever the record does not hold.  The property here is that the two
together answer exactly what a fresh, cache-less :class:`ScanEngine` does —
same ``kits``, same ``detected`` — across random deploy sequences.  The spy
tests pin what the record buys: a coverage check after shed normalises
nothing unless its kit deployed since, and a warm month day normalises each
content at most twice (shed, then evaluation).
"""

from __future__ import annotations

import contextlib
import datetime
import re
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
import repro.evalharness.timeline as timeline
import repro.scanner.avbaseline as avbaseline
import repro.scanner.engine as scan_engine
from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.distance.engine import DistanceEngineConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.evalharness import ExperimentConfig, MonthExperiment
from repro.evalharness.groundtruth import GroundTruth
from repro.exec.backend import BackendConfig
from repro.scanner.engine import ScanEngine
from repro.scanner.normalizer import fast_normalize, normalize_for_scan
from repro.signatures.signature import Signature

D = datetime.date
ONE_DAY = datetime.timedelta(days=1)
SHED_DATE = D(2014, 8, 5)
KITS = ("angler", "nuclear", "rig")

#: Script fragments the split decides on its own.
FRAGMENTS = ("alpha(1);", "alpha(42);", "beta(22);", "var g=3;", "eval(x);",
             "k='s p';", "gamma(x,y);")
PATTERNS = tuple(re.escape(normalize_for_scan(fragment))
                 for fragment in FRAGMENTS) + (
    r"alpha\(\d+\);", r"beta\(\d+\);eval", r"g=\d;", r"eval\(x\);.*k=s p;")


@contextlib.contextmanager
def normal_form_spy():
    """Record the content of every scanner normalisation, through every
    ``normalize_for_scan`` binding that scans; yields the list of
    contents."""
    seen = []
    patches = []
    for module in (scan_engine, pipeline, timeline, avbaseline):
        original = module.normalize_for_scan

        def spy(content, _original=original):
            seen.append(content)
            return _original(content)

        patches.append(mock.patch.object(module, "normalize_for_scan", spy))
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield seen


def _kizzle() -> Kizzle:
    """A warm pipeline with an empty corpus: every cluster is benign, so a
    day compiles nothing and only the test deploys."""
    return Kizzle(KizzleConfig(
        machines=2, min_points=3,
        distance=DistanceEngineConfig(workers=1),
        incremental=IncrementalConfig(enabled=True),
        backend=BackendConfig(kind="serial")))


contents = st.lists(
    st.tuples(st.sampled_from(["", " ", "\n", "  \t"]),
              st.sampled_from(FRAGMENTS)),
    min_size=1, max_size=5).map(
        lambda parts: "<script>" + "".join(space + fragment
                                           for space, fragment in parts)
        + "</script>")
signatures = st.builds(
    Signature, kit=st.sampled_from(KITS), pattern=st.sampled_from(PATTERNS),
    created=st.integers(1, 9).map(lambda day: D(2014, 8, day)))


def test_fragments_normalise_alike():
    for fragment in FRAGMENTS:
        assert fast_normalize(fragment) == normalize_for_scan(fragment)


class TestRecordProperty:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(before=st.lists(signatures, max_size=5),
           after=st.lists(signatures, max_size=4),
           pool=st.lists(contents, min_size=1, max_size=6, unique=True),
           picks=st.lists(st.tuples(st.sampled_from("abc"),
                                    st.integers(0, 5)),
                          min_size=1, max_size=12),
           stranger=contents)
    def test_record_plus_extension_is_a_fresh_scan(self, before, after, pool,
                                                   picks, stranger):
        # Ids repeat across pages and pages repeat across ids.
        samples = [(sample_id, pool[index % len(pool)])
                   for sample_id, index in picks]
        distinct = {content for _sample_id, content in samples}
        kizzle = _kizzle()
        for signature in before:
            kizzle.database.add(signature)
        with normal_form_spy() as normalised:
            result = kizzle.process_day(samples, SHED_DATE)
        assert result.new_signatures == []
        # Shed scans each distinct page once, repeats included, and only
        # when something is deployed to shed by.
        if before:
            assert Counter(normalised) == Counter(distinct)
            assert set(kizzle._record) == distinct
        else:
            assert normalised == []
            assert kizzle._record == {}

        for signature in after:
            kizzle.database.add(signature)
        fresh = ScanEngine(kizzle.database)
        as_ofs = (SHED_DATE, SHED_DATE + ONE_DAY, SHED_DATE - 2 * ONE_DAY,
                  None)
        for content in sorted(distinct | {stranger}):
            for as_of in as_ofs:
                expected = fresh.scan("fresh", content, as_of=as_of)
                assert kizzle.kits_matching(content, as_of) == expected.kits
                assert kizzle.detects(content, as_of) == expected.detected
                assert kizzle.kits_matching(
                    content, as_of,
                    normalized=normalize_for_scan(content)) == expected.kits
                for kit in KITS:
                    assert (kit in kizzle.kits_matching(
                        content, as_of, kit=kit)) == (kit in expected.kits)

        # A recorded page is re-normalised only when a signature deployed
        # since shed could still change its verdict as of shed's date.
        if before and not any(signature.created <= SHED_DATE
                              for signature in after):
            with normal_form_spy() as normalised:
                for content in distinct:
                    kizzle.kits_matching(content, SHED_DATE)
            assert normalised == []


class TestNormalisationSpies:
    STREAM = StreamConfig(
        benign_per_day=8,
        kit_daily_counts={"angler": 6, "nuclear": 4, "sweetorange": 4,
                          "rig": 3},
        seed=20140801)

    def test_coverage_check_reads_the_record(self):
        """After shed, ``_already_covered`` for kit K answers from the
        record and normalises nothing unless a signature of K itself
        deployed since, and a recorded hit never needs a probe."""
        generator = TelemetryGenerator(self.STREAM)
        kizzle = Kizzle(KizzleConfig(
            machines=6, min_points=3,
            incremental=IncrementalConfig(enabled=True),
            backend=BackendConfig(kind="serial")))
        for kit in ("nuclear", "angler", "rig", "sweetorange"):
            kizzle.seed_known_kit(
                kit, [generator.reference_core(kit, D(2014, 7, 31))])
        first = D(2014, 8, 1)
        for date in (first, first + ONE_DAY):
            batch = generator.generate_day(date)
            result = kizzle.process_day(
                [(s.sample_id, s.content) for s in batch.samples], date)
        content_by_id = {s.sample_id: s.content for s in batch.samples}
        by_kit = {}
        for record in result.shed:
            by_kit.setdefault(record.kit, []).append(
                content_by_id[record.sample_id])
        kit, other = sorted(by_kit)[:2]
        covered, foreign = by_kit[kit], by_kit[other][:1]
        assert kit not in {signature.kit
                           for signature in kizzle._record[foreign[0]]}

        def check(expected_normalisations):
            with normal_form_spy() as normalised:
                assert kizzle._already_covered(covered, kit, result.date)
                assert not kizzle._already_covered(foreign, kit, result.date)
            assert len(normalised) == expected_normalisations

        check(0)
        # Another kit's deploy is not probed for K.
        kizzle.database.add(Signature(
            kit=other, pattern=r"no such page", created=result.date))
        check(0)
        # K's own deploy is probed, but only where the record has no K hit.
        kizzle.database.add(Signature(
            kit=kit, pattern=r"no such page", created=result.date))
        check(len(foreign))

    def test_warm_month_day_normalises_each_content_at_most_twice(self):
        experiment = MonthExperiment(ExperimentConfig(
            start=D(2014, 8, 9), end=D(2014, 8, 14), seed_days=2,
            stream=self.STREAM,
            kizzle=KizzleConfig(
                machines=6, min_points=3,
                incremental=IncrementalConfig(enabled=True),
                backend=BackendConfig(kind="serial"))))
        experiment.seed()
        truth = GroundTruth()
        date = experiment.config.start
        shed_total = 0
        while date <= experiment.config.end:
            with normal_form_spy() as normalised:
                record = experiment.run_day(date, truth)
            counts = Counter(normalised)
            assert max(counts.values()) <= 2, date
            assert len(counts) == record.sample_count
            shed_total += record.shed_count
            date += ONE_DAY
        assert shed_total > 0

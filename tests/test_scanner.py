"""Tests for scanner normalization, the scan engine and the AV baseline."""

from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scanner import (
    ManualSignatureRule,
    ScanEngine,
    SignatureDatabase,
    SimulatedCommercialAV,
    default_av_baseline,
    normalize_for_scan,
)
from repro.signatures import Signature

D = datetime.date


class TestNormalization:
    def test_whitespace_removed(self):
        assert normalize_for_scan("var a   =  1 ;") == "vara=1;"

    def test_quotes_removed(self):
        assert normalize_for_scan('f("abc");') == "f(abc);"
        assert normalize_for_scan("f('xyz');") == "f(xyz);"

    def test_comments_removed(self):
        assert normalize_for_scan("var a; // comment\nvar b;") == "vara;varb;"

    def test_html_scripts_extracted(self):
        document = "<html><script>var a = 'q';</script></html>"
        assert normalize_for_scan(document) == "vara=q;"

    def test_paper_style_normalization(self):
        """Figure 10(b) shows signatures over text like ``varaa=xx.join``."""
        normalized = normalize_for_scan('var aa = xx.join("");')
        assert normalized == "varaa=xx.join();"

    def test_empty(self):
        assert normalize_for_scan("") == ""


class TestSignatureDatabase:
    def make_signature(self, kit, created, pattern="abc"):
        return Signature(kit=kit, pattern=pattern, created=created)

    def test_add_and_len(self):
        database = SignatureDatabase()
        database.add(self.make_signature("rig", D(2014, 8, 1)))
        assert len(database) == 1

    def test_filter_by_kit(self):
        database = SignatureDatabase([
            self.make_signature("rig", D(2014, 8, 1)),
            self.make_signature("angler", D(2014, 8, 2)),
        ])
        assert len(database.signatures_for(kit="rig")) == 1

    def test_filter_by_date(self):
        database = SignatureDatabase([
            self.make_signature("rig", D(2014, 8, 1)),
            self.make_signature("rig", D(2014, 8, 10)),
        ])
        assert len(database.signatures_for(as_of=D(2014, 8, 5))) == 1

    def test_latest_for(self):
        database = SignatureDatabase([
            self.make_signature("rig", D(2014, 8, 1), "first"),
            self.make_signature("rig", D(2014, 8, 10), "second"),
        ])
        assert database.latest_for("rig").pattern == "second"
        assert database.latest_for("rig", as_of=D(2014, 8, 5)).pattern == "first"
        assert database.latest_for("angler") is None

    def test_kits(self):
        database = SignatureDatabase([
            self.make_signature("rig", D(2014, 8, 1)),
            self.make_signature("angler", D(2014, 8, 1)),
        ])
        assert database.kits() == {"rig", "angler"}


class TestScanEngine:
    def test_scan_matches(self):
        database = SignatureDatabase([
            Signature(kit="rig", pattern=r"vara=\d+;", created=D(2014, 8, 1))])
        engine = ScanEngine(database)
        result = engine.scan("s1", "<script>var a = 42;</script>")
        assert result.detected
        assert result.kits == {"rig"}

    def test_scan_respects_as_of(self):
        database = SignatureDatabase([
            Signature(kit="rig", pattern="vara=42;", created=D(2014, 8, 10))])
        engine = ScanEngine(database)
        assert not engine.scan("s1", "var a = 42;", as_of=D(2014, 8, 5)).detected
        assert engine.scan("s1", "var a = 42;", as_of=D(2014, 8, 15)).detected

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_probe_plan_follows_deploys_and_dates(self, mode):
        """The cached per-kit probe lists are rebuilt on every deployment
        and for every ``as_of``: each scan agrees with matching every
        signature deployed at that moment, ungated, reduced per kit.  The
        engine still accepts either ``mode``, which selects nothing."""
        documents = {"rig": "var a = 42;", "angler": "var b = 'x y';",
                     "both": "var a = 42; var b = 'x y';", "none": "var c;"}
        database = SignatureDatabase([
            Signature(kit="rig", pattern="vara=4", created=D(2014, 8, 1),
                      literal_anchor="vara=4"),
            Signature(kit="rig", pattern="vara=42;", created=D(2014, 8, 10))])
        engine = ScanEngine(database, mode=mode)

        def assert_scans_match_deployed(as_of):
            deployed = database.signatures_for(as_of=as_of)
            for sample_id, content in documents.items():
                normalized = normalize_for_scan(content)
                expected = [signature for signature in deployed
                            if signature.matches(normalized)]
                result = engine.scan(sample_id, content, as_of=as_of)
                assert result.kits == {s.kit for s in expected}
                assert result.detected == bool(expected)
                assert set(map(id, result.matched_signatures)) \
                    <= set(map(id, deployed))

        dates = (None, D(2014, 7, 31), D(2014, 8, 5), D(2014, 8, 15))
        for as_of in dates + dates[::-1]:
            assert_scans_match_deployed(as_of)
        database.add(Signature(kit="angler", pattern="varb=x y;",
                               created=D(2014, 8, 12)))
        database.add(Signature(kit="rig", pattern="varc;",
                               created=D(2014, 8, 3)))
        for as_of in dates:
            assert_scans_match_deployed(as_of)
        assert engine.scan("none", documents["none"]).kits == {"rig"}
        assert engine.scan("both", documents["both"],
                           as_of=D(2014, 8, 15)).kits == {"rig", "angler"}


class TestAVBaseline:
    def test_rules_built_for_every_kit(self):
        av = default_av_baseline()
        kits = {rule.kit for rule in av.rules}
        assert kits == {"nuclear", "rig", "angler", "sweetorange"}

    def test_initial_rules_available_at_study_start(self):
        av = default_av_baseline()
        deployed = av.rules_deployed(D(2014, 8, 1))
        assert {rule.kit for rule in deployed} == {"nuclear", "rig", "angler",
                                                   "sweetorange"}

    def test_rules_for_new_packer_arrive_with_lag(self):
        av = default_av_baseline()
        # Nuclear's delimiter change on Aug 17 -> rule lands lag days later.
        before = len(av.rules_deployed(D(2014, 8, 17)))
        after = len(av.rules_deployed(D(2014, 8, 17)
                                      + datetime.timedelta(days=av.lag_days["nuclear"])))
        assert after > before

    def test_detects_current_kits_at_study_start(self, kits):
        av = default_av_baseline()
        day = D(2014, 8, 2)
        for name in ("nuclear", "rig", "angler", "sweetorange"):
            sample = kits[name].generate(day, random.Random(3))
            verdict = av.scan(sample.sample_id, sample.content, as_of=day)
            assert verdict.detected, f"AV should detect {name} on {day}"
            assert name in verdict.kits

    def test_angler_window_of_vulnerability(self, kits):
        """Example 1 / Figure 6: the Angler change of August 13 breaks the
        deployed AV signature until the analyst responds."""
        av = default_av_baseline()
        inside_window = D(2014, 8, 15)
        sample = kits["angler"].generate(inside_window, random.Random(4))
        assert not av.scan(sample.sample_id, sample.content,
                           as_of=inside_window).detected
        after_response = D(2014, 8, 20)
        sample_late = kits["angler"].generate(after_response, random.Random(4))
        assert av.scan(sample_late.sample_id, sample_late.content,
                       as_of=after_response).detected

    def test_nuclear_missed_after_delimiter_rotation(self, kits):
        av = default_av_baseline()
        day = D(2014, 8, 18)  # delimiter rotated on the 17th, lag is 6 days
        sample = kits["nuclear"].generate(day, random.Random(5))
        assert not av.scan(sample.sample_id, sample.content, as_of=day).detected

    def test_benign_usually_not_flagged(self, august_day):
        from repro.ekgen import BenignGenerator

        av = default_av_baseline()
        generator = BenignGenerator()
        flagged = 0
        for seed in range(20):
            sample = generator.generate(august_day, random.Random(seed))
            if av.scan(sample.sample_id, sample.content,
                       as_of=august_day).detected:
                flagged += 1
        assert flagged <= 2

    def test_gates_are_necessary(self, small_generator):
        """A rule that matches a page finds its stated gates in it on the
        days around Angler's August 13 change: the gate never changes a
        verdict."""
        av = SimulatedCommercialAV(timeline=small_generator.timeline)
        fired = set()
        for day in range(11, 15):
            batch = small_generator.generate_day(D(2014, 8, day))
            for sample in batch.samples:
                raw = sample.content
                normalized = normalize_for_scan(raw)
                for rule in av.rules:
                    if rule.matches(raw, normalized):
                        fired.add(rule.name)
                        assert rule.could_match(raw, normalized), rule.name
        # Every kit's rules, before and after Angler's change, took part.
        assert {"ANGLER.sig1", "ANGLER.sig3", "NUCLEAR.sig1", "RIG.sig4",
                "SWEETORANGE.sig2"} <= fired, fired

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gates_hold_on_every_match(self, data):
        """Any text a rule's pattern matches, drawn from the pattern itself,
        passes the rule's gates on either side."""
        rule = data.draw(st.sampled_from(default_av_baseline().rules))
        text = data.draw(st.from_regex(rule.compiled, fullmatch=True))
        assert rule.could_match(text, "") and rule.could_match("", text)

    def test_release_dates_reported(self):
        av = default_av_baseline()
        dates = av.signature_release_dates()
        assert dates == sorted(dates)
        assert av.signature_release_dates(kit="angler")

    def test_heuristic_rule_optional(self):
        av = SimulatedCommercialAV(include_fp_heuristic=False)
        assert all(not rule.heuristic for rule in av.rules)

    def test_manual_rule_matching(self):
        rule = ManualSignatureRule(kit="x", name="test", pattern="abc",
                                   released=D(2014, 8, 1))
        assert rule.matches("xxabcxx", "nothing")
        assert rule.matches("nothing", "xxabcxx")
        assert not rule.matches("no", "no")

"""Tests for the exploit-kit corpus simulator."""

from __future__ import annotations

import datetime
import hashlib
import random

import pytest

from repro.ekgen import (
    AnglerKit,
    BenignGenerator,
    CVE_INVENTORY,
    NuclearKit,
    RigKit,
    StreamConfig,
    SweetOrangeKit,
    TelemetryGenerator,
    cve_list_for_kit,
    default_timeline,
    exploit_snippet,
)
from repro.ekgen.angler import ANGLER_JAVA_MARKER, hex_decode, hex_encode
from repro.ekgen.cves import AV_CHECK_CODE, components_for_kit
from repro.ekgen.evolution import KitEvent
from repro.ekgen.identifiers import (
    random_crypt_key,
    random_delimiter,
    random_identifier,
    random_identifiers,
    random_url,
)
from repro.ekgen.nuclear import decrypt_payload, delimit_word, encrypt_payload
from repro.ekgen.sweetorange import insert_junk, remove_junk

D = datetime.date


class TestCves:
    def test_inventory_matches_figure_2(self):
        assert "CVE-2014-0515" in cve_list_for_kit("sweetorange")
        assert "CVE-2013-0074" in cve_list_for_kit("angler")
        assert "CVE-2010-0188" in cve_list_for_kit("nuclear")
        assert "CVE-2013-2551" in cve_list_for_kit("rig")

    def test_ie_cve_shared_by_all_kits(self):
        """CVE-2013-2551 appears in every kit of Figure 2."""
        for kit in CVE_INVENTORY:
            assert "CVE-2013-2551" in cve_list_for_kit(kit)

    def test_unknown_kit_raises(self):
        with pytest.raises(KeyError):
            cve_list_for_kit("blackhole")

    def test_components_for_kit(self):
        assert "flash" in components_for_kit("nuclear")
        assert "reader" in components_for_kit("nuclear")

    def test_exploit_snippet_deterministic(self):
        a = exploit_snippet("CVE-2013-2551", "ie")
        b = exploit_snippet("CVE-2013-2551", "ie")
        assert a == b

    def test_exploit_snippet_mentions_cve(self):
        snippet = exploit_snippet("CVE-2014-0515", "flash")
        assert "CVE-2014-0515" in snippet
        assert "function run_cve_2014_0515" in snippet

    def test_exploit_snippet_unknown_component(self):
        with pytest.raises(ValueError):
            exploit_snippet("CVE-1-1", "toaster")

    @pytest.mark.parametrize("component", ["flash", "silverlight", "java",
                                           "reader", "ie"])
    def test_all_components_have_snippets(self, component):
        assert len(exploit_snippet("CVE-2013-0000", component)) > 100


class TestIdentifiers:
    def test_identifier_charset(self, rng):
        for _ in range(50):
            name = random_identifier(rng)
            assert name[0].isalpha() or name[0] in "_$"
            assert 4 <= len(name) <= 8

    def test_identifiers_distinct(self, rng):
        names = random_identifiers(rng, 30)
        assert len(set(names)) == 30

    def test_delimiter_length(self, rng):
        for _ in range(20):
            assert 2 <= len(random_delimiter(rng)) <= 4

    def test_crypt_key_has_no_repeats(self, rng):
        key = random_crypt_key(rng)
        assert len(set(key)) == len(key)
        assert '"' not in key and "\\" not in key

    def test_url_shape(self, rng):
        url = random_url(rng, "rig")
        assert url.startswith("http://")
        assert ".php?" in url


class TestNuclearEncryption:
    def test_roundtrip(self, rng):
        key = random_crypt_key(rng)
        core = "function f() { return 'payload'; }\nvar x = 1;"
        assert decrypt_payload(encrypt_payload(core, key), key) == core

    def test_payload_is_digits(self, rng):
        payload = encrypt_payload("abc", random_crypt_key(rng))
        assert payload.isdigit()
        assert len(payload) == 9

    def test_different_keys_different_payloads(self):
        core = "var x = 'same core';"
        key_a = random_crypt_key(random.Random(1))
        key_b = random_crypt_key(random.Random(2))
        assert encrypt_payload(core, key_a) != encrypt_payload(core, key_b)

    def test_bad_payload_length(self):
        with pytest.raises(ValueError):
            decrypt_payload("1234", "key")

    def test_delimit_word(self):
        assert delimit_word("substr", "UluN") == "sUluNuUluNbUluNsUluNtUluNr"


class TestAnglerHex:
    def test_roundtrip(self):
        text = "if (a < b) { document.write('x'); }"
        assert hex_decode(hex_encode(text)) == text

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            hex_decode("abc")


class TestSweetOrangeJunk:
    def test_roundtrip(self):
        core = "var a = 1; function f() { return a; }"
        polluted = insert_junk(core, "JUNKTOKEN", 7)
        assert remove_junk(polluted, "JUNKTOKEN") == core
        assert "JUNKTOKEN" in polluted

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            insert_junk("abc", "J", 0)


class TestKitGeneration:
    @pytest.mark.parametrize("name", ["rig", "nuclear", "angler", "sweetorange"])
    def test_generate_produces_html_sample(self, kits, august_day, name):
        sample = kits[name].generate(august_day, random.Random(0))
        assert sample.kit == name
        assert sample.content.startswith("<html>")
        assert "<script" in sample.content
        assert sample.unpacked and sample.unpacked != sample.content

    @pytest.mark.parametrize("name", ["rig", "nuclear", "angler", "sweetorange"])
    def test_core_is_deterministic_per_day(self, kits, august_day, name):
        kit = kits[name]
        version = kit.version_for(august_day)
        assert kit.core_source(version) == kit.core_source(version)

    @pytest.mark.parametrize("name", ["rig", "nuclear", "angler", "sweetorange"])
    def test_packed_differs_per_sample(self, kits, august_day, name):
        kit = kits[name]
        a = kit.generate(august_day, random.Random(1)).content
        b = kit.generate(august_day, random.Random(2)).content
        assert a != b

    def test_core_contains_cve_payloads(self, kits, august_day):
        core = kits["nuclear"].core_source(
            kits["nuclear"].version_for(august_day))
        assert "run_cve_2010_0188" in core
        assert "detectPlugins" in core

    def test_av_check_borrowed_code_is_identical(self, kits, august_day):
        """The AV-check block Nuclear borrowed from RIG is byte-identical
        (Section II-B, code borrowing)."""
        nuclear_core = kits["nuclear"].core_source(
            kits["nuclear"].version_for(august_day))
        rig_core = kits["rig"].core_source(kits["rig"].version_for(august_day))
        assert AV_CHECK_CODE.strip() in nuclear_core
        assert AV_CHECK_CODE.strip() in rig_core

    def test_nuclear_had_no_av_check_in_june(self, kits):
        core = kits["nuclear"].core_source(
            kits["nuclear"].version_for(D(2014, 6, 15)))
        assert "detectSecuritySuites" not in core

    def test_nuclear_silverlight_cve_appended_in_late_august(self, kits):
        before = kits["nuclear"].core_source(
            kits["nuclear"].version_for(D(2014, 8, 20)))
        after = kits["nuclear"].core_source(
            kits["nuclear"].version_for(D(2014, 8, 28)))
        assert "cve_2013_0074" not in before
        assert "run_cve_2013_0074" in after

    def test_rig_urls_rotate_daily(self, kits):
        core_a = kits["rig"].core_source(kits["rig"].version_for(D(2014, 8, 5)))
        core_b = kits["rig"].core_source(kits["rig"].version_for(D(2014, 8, 6)))
        assert core_a != core_b

    def test_angler_marker_in_html_before_change(self, kits):
        sample = kits["angler"].generate(D(2014, 8, 10), random.Random(0))
        script_free_html = sample.content.split("<script")[0]
        assert ANGLER_JAVA_MARKER in script_free_html

    def test_angler_marker_hidden_after_change(self, kits):
        sample = kits["angler"].generate(D(2014, 8, 15), random.Random(0))
        assert ANGLER_JAVA_MARKER not in sample.content
        assert ANGLER_JAVA_MARKER in __import__(
            "repro.unpack.registry", fromlist=["unpack_sample"]
        ).unpack_sample(sample.content)

    def test_nuclear_packer_changes_change_packed_text(self, kits):
        """The eval-obfuscation rotation (Figure 5) shows up in the packed
        sample text."""
        before = kits["nuclear"].generate(D(2014, 8, 16), random.Random(3))
        after = kits["nuclear"].generate(D(2014, 8, 18), random.Random(3))
        assert "esa1asv" not in before.content
        assert "esa1asv" in after.content

    def test_unknown_kit_name_rejected(self, timeline):
        class Bogus(NuclearKit):
            name = "bogus"

        with pytest.raises(ValueError):
            Bogus(timeline)


class TestEvolutionTimeline:
    def test_nuclear_has_13_packer_changes(self, timeline):
        changes = timeline.packer_change_dates("nuclear")
        assert len(changes) == 13  # 12 superficial + 1 semantic (Figure 5)

    def test_version_tag_advances(self, timeline):
        early = timeline.version_for("nuclear", D(2014, 6, 1))
        late = timeline.version_for("nuclear", D(2014, 8, 30))
        assert early.version_tag == "v0"
        assert late.version_tag != early.version_tag

    def test_events_for_until_filter(self, timeline):
        events = timeline.events_for("nuclear", until=D(2014, 7, 1))
        assert all(event.date <= D(2014, 7, 1) for event in events)

    def test_unknown_kit(self, timeline):
        with pytest.raises(KeyError):
            timeline.version_for("blackhole", D(2014, 8, 1))
        with pytest.raises(KeyError):
            timeline.events_for("blackhole")

    def test_av_check_event_applies(self, timeline):
        assert not timeline.version_for("nuclear", D(2014, 7, 28)).av_check
        assert timeline.version_for("nuclear", D(2014, 7, 30)).av_check

    def test_custom_event_kind_rejected(self, timeline):
        timeline_copy = default_timeline()
        timeline_copy.add_event("rig", KitEvent(
            date=D(2014, 8, 2), kind="mystery"))
        with pytest.raises(ValueError):
            timeline_copy.version_for("rig", D(2014, 8, 3))

    def test_add_event_unknown_kit(self, timeline):
        with pytest.raises(KeyError):
            default_timeline().add_event("unknown", KitEvent(
                date=D(2014, 8, 1), kind="packer"))

    def test_angler_html_flag_flips_august_13(self, timeline):
        before = timeline.version_for("angler", D(2014, 8, 12))
        after = timeline.version_for("angler", D(2014, 8, 13))
        assert before.packer_params["exploit_string_in_html"] is True
        assert after.packer_params["exploit_string_in_html"] is False

    def test_rig_delimiter_rotation(self, timeline):
        first = timeline.version_for("rig", D(2014, 8, 2))
        second = timeline.version_for("rig", D(2014, 8, 6))
        assert first.packer_params["delimiter"] != \
            second.packer_params["delimiter"]


class TestBenignGenerator:
    def test_families_available(self):
        generator = BenignGenerator()
        assert "plugindetect" in generator.family_names()
        assert len(generator.family_names()) >= 6

    def test_family_subset(self):
        generator = BenignGenerator(families=["analytics", "ad_rotator"])
        assert generator.family_names() == ["ad_rotator", "analytics"]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            BenignGenerator(families=["adware"])

    def test_generate_is_benign(self, august_day, rng):
        sample = BenignGenerator().generate(august_day, rng)
        assert sample.kit is None
        assert not sample.is_malicious
        assert sample.benign_family is not None

    def test_specific_family(self, august_day, rng):
        sample = BenignGenerator().generate(august_day, rng,
                                            family="plugindetect")
        assert sample.benign_family == "plugindetect"
        assert "detectPlugins" in sample.content

    def test_samples_of_same_family_share_structure(self, august_day):
        from repro.jstoken import abstract_token_string

        generator = BenignGenerator()
        a = generator.generate(august_day, random.Random(1), family="analytics")
        b = generator.generate(august_day, random.Random(2), family="analytics")
        tokens_a = abstract_token_string(a.content)
        tokens_b = abstract_token_string(b.content)
        assert tokens_a == tokens_b


class TestTelemetryGenerator:
    def test_day_batch_composition(self, small_generator, august_day):
        batch = small_generator.generate_day(august_day)
        assert len(batch.benign) >= 10
        kits_seen = set(batch.by_kit())
        assert kits_seen == {"angler", "nuclear", "rig", "sweetorange"}

    def test_batch_is_deterministic(self, august_day):
        config = StreamConfig(benign_per_day=5,
                              kit_daily_counts={"rig": 2}, seed=9)
        a = TelemetryGenerator(config).generate_day(august_day)
        b = TelemetryGenerator(config).generate_day(august_day)
        assert [s.sample_id for s in a.samples] == [s.sample_id for s in b.samples]
        assert [s.content for s in a.samples] == [s.content for s in b.samples]

    def test_generate_range(self, small_generator):
        batches = list(small_generator.generate_range(D(2014, 8, 1),
                                                      D(2014, 8, 3)))
        assert [batch.date for batch in batches] == [
            D(2014, 8, 1), D(2014, 8, 2), D(2014, 8, 3)]

    def test_generate_range_invalid(self, small_generator):
        with pytest.raises(ValueError):
            list(small_generator.generate_range(D(2014, 8, 2), D(2014, 8, 1)))

    def test_unknown_kit_in_config(self, august_day):
        generator = TelemetryGenerator(StreamConfig(
            benign_per_day=1, kit_daily_counts={"blackhole": 3}))
        with pytest.raises(KeyError):
            generator.generate_day(august_day)

    def test_reference_core(self, small_generator, august_day):
        core = small_generator.reference_core("nuclear", august_day)
        assert "launchExploits" in core

    def test_scaled_config(self):
        config = StreamConfig(benign_per_day=60,
                              kit_daily_counts={"rig": 10}).scaled(0.5)
        assert config.benign_per_day == 30
        assert config.kit_daily_counts["rig"] == 5

    def test_rollout_mixes_versions_on_change_day(self):
        """On the day of a packer change some samples still use the previous
        configuration (the gradual roll-out behind the paper's same-day FN
        bumps)."""
        generator = TelemetryGenerator(StreamConfig(
            benign_per_day=0, kit_daily_counts={"nuclear": 40},
            count_jitter=0.0, transition_fraction=0.5, seed=7))
        batch = generator.generate_day(D(2014, 8, 17))
        with_new = sum(1 for s in batch.samples if "esa1asv" in s.content)
        assert 0 < with_new < len(batch.samples)


#: sha256 of the default stream's first week (``StreamConfig(seed=20140801)``,
#: Aug 1-7; see :func:`stream_digest`).  Every page the generator writes
#: feeds every golden figure and ``output_digest``, so a change to the byte
#: stream must be deliberate.
WEEK_DIGEST = "4245c16b660e1d2b22d2e8c1be91e316facbbf5a62eee2e76309d224c8addd4d"


def stream_digest(batches) -> str:
    """sha256 over each sample's id and content, in stream order."""
    digest = hashlib.sha256()
    for batch in batches:
        for sample in batch.samples:
            digest.update(sample.sample_id.encode() + b"\0")
            digest.update(sample.content.encode("utf-8", "surrogatepass")
                          + b"\0")
    return digest.hexdigest()


class TestByteStream:
    def test_default_stream_week_is_pinned(self):
        generator = TelemetryGenerator(StreamConfig(seed=20140801))
        week = [generator.generate_day(D(2014, 8, day)) for day in range(1, 8)]
        digest = stream_digest(week)
        assert digest == WEEK_DIGEST, (
            f"the generated byte stream changed: week digest {digest}, "
            f"pinned {WEEK_DIGEST}.  If the change is intended, every golden "
            f"figure and bench output_digest moves with it; re-pin by setting "
            f"WEEK_DIGEST in tests/test_ekgen.py to the new value.")

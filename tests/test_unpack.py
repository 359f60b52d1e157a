"""Tests for the per-kit unpackers and the registry."""

from __future__ import annotations

import datetime
import random
import re
import time

import pytest

from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.unpack import (
    AnglerUnpacker,
    NuclearUnpacker,
    RigUnpacker,
    SweetOrangeUnpacker,
    UnpackError,
    UnpackerRegistry,
    default_registry,
    unpack_sample,
)

UNPACKERS = {
    "rig": RigUnpacker,
    "nuclear": NuclearUnpacker,
    "angler": AnglerUnpacker,
    "sweetorange": SweetOrangeUnpacker,
}


class TestPerKitRoundTrip:
    @pytest.mark.parametrize("name", sorted(UNPACKERS))
    def test_recognize_and_unpack_own_kit(self, kits, august_day, name):
        sample = kits[name].generate(august_day, random.Random(11))
        unpacker = UNPACKERS[name]()
        assert unpacker.recognizes(sample.content)
        assert unpacker.unpack(sample.content).strip() == sample.unpacked.strip()

    @pytest.mark.parametrize("name", sorted(UNPACKERS))
    def test_does_not_recognize_other_kits(self, kits, august_day, name):
        unpacker = UNPACKERS[name]()
        for other_name, kit in kits.items():
            if other_name == name:
                continue
            sample = kit.generate(august_day, random.Random(12))
            assert not unpacker.recognizes(sample.content), \
                f"{name} unpacker wrongly recognizes {other_name}"

    @pytest.mark.parametrize("name", sorted(UNPACKERS))
    def test_does_not_recognize_benign(self, august_day, rng, name):
        from repro.ekgen import BenignGenerator

        sample = BenignGenerator().generate(august_day, rng)
        assert not UNPACKERS[name]().recognizes(sample.content)

    @pytest.mark.parametrize("name", sorted(UNPACKERS))
    def test_roundtrip_across_versions(self, kits, name):
        """Unpackers keep working as packers rotate through the month."""
        import datetime

        for day in (datetime.date(2014, 8, 2), datetime.date(2014, 8, 15),
                    datetime.date(2014, 8, 29)):
            sample = kits[name].generate(day, random.Random(13))
            payload = UNPACKERS[name]().unpack(sample.content)
            assert payload.strip() == sample.unpacked.strip()


class TestUnpackErrors:
    def test_rig_without_collect(self):
        unpacker = RigUnpacker()
        with pytest.raises(UnpackError):
            unpacker.unpack("var x = 'nothing to see';")

    def test_nuclear_without_payload(self):
        unpacker = NuclearUnpacker()
        with pytest.raises(UnpackError):
            unpacker.unpack("var a = 'abc'; a.charCodeAt(0);")

    def test_angler_without_hex(self):
        unpacker = AnglerUnpacker()
        with pytest.raises(UnpackError):
            unpacker.unpack('window["ev" + "al"](x);')

    def test_sweetorange_without_junk_table(self):
        unpacker = SweetOrangeUnpacker()
        with pytest.raises(UnpackError):
            unpacker.unpack('var xx = ["a"]; xx.join("");')

    def test_try_unpack_returns_none_when_unrecognized(self):
        assert RigUnpacker().try_unpack("var benign = true;") is None

    def test_rig_corrupted_charcodes(self, kits, august_day):
        sample = kits["rig"].generate(august_day, random.Random(3))
        corrupted = sample.content.replace("String.fromCharCode",
                                           "String.fromCharCode")  # no-op
        # Corrupt the buffer so a non-numeric piece shows up.
        corrupted = corrupted.replace('("4', '("x4', 1)
        unpacker = RigUnpacker()
        if unpacker.recognizes(corrupted):
            with pytest.raises(UnpackError):
                unpacker.unpack(corrupted)

    @pytest.mark.parametrize("code", ["1114112", "99999999999999999999"])
    def test_rig_char_code_out_of_range(self, kits, august_day, code):
        """A code past U+10FFFF (``chr`` raises ``ValueError``) or past the
        C ``int`` range (``OverflowError``) fails the unpack instead of
        escaping ``try_unpack`` and the registry."""
        content = kits["rig"].generate(august_day, random.Random(3)).content
        collect = re.search(r"function (\w+)\(", content).group(1)
        page, edits = re.subn(rf'\b{collect}\("\d+', f'{collect}("{code}',
                              content, count=1)
        assert edits == 1
        unpacker = RigUnpacker()
        assert unpacker.recognizes(page)
        with pytest.raises(UnpackError):
            unpacker.unpack(page)
        assert unpacker.try_unpack(page) is None
        assert default_registry().unpack(page) == (page, [])

    def test_nuclear_payload_ending_in_newline(self, kits, august_day):
        """``$`` in the payload regex matches before a final newline, so a
        digit literal ending in ``\\n`` is still taken as the payload.  Its
        last triple reads through ``int``, which skips the blank: ``"ab\\n"``
        decodes as ``"0ab"`` does.  With the newline added to a whole
        payload the length is no multiple of 3 and the unpack fails."""
        content = kits["nuclear"].generate(august_day, random.Random(5)).content
        payload = max(re.findall(r'"(\d{30,})"', content), key=len)

        def with_payload(new):
            return content.replace(f'"{payload}"', f'"{new}"', 1)

        unpacker = NuclearUnpacker()
        blank_last = with_payload(payload[:-1] + "\n")
        zero_first = with_payload(payload[:-3] + "0" + payload[-3:-1])
        assert unpacker.recognizes(blank_last)
        assert unpacker.unpack(blank_last) == unpacker.unpack(zero_first)
        assert unpacker.try_unpack(with_payload(payload + "\n")) is None


class TestRegistry:
    def test_default_registry_has_four_unpackers(self):
        registry = default_registry()
        assert {unpacker.kit for unpacker in registry.unpackers} == \
            {"rig", "nuclear", "angler", "sweetorange"}

    @pytest.mark.parametrize("name", sorted(UNPACKERS))
    def test_registry_unpacks_every_kit(self, kits, august_day, name):
        registry = default_registry()
        sample = kits[name].generate(august_day, random.Random(21))
        payload, applied = registry.unpack(sample.content)
        assert applied == [name]
        assert payload.strip() == sample.unpacked.strip()

    def test_registry_passes_through_unpacked_content(self):
        registry = default_registry()
        payload, applied = registry.unpack("var perfectly = 'benign';")
        assert applied == []
        assert payload == "var perfectly = 'benign';"

    def test_unpack_sample_convenience(self, kits, august_day):
        sample = kits["nuclear"].generate(august_day, random.Random(5))
        assert unpack_sample(sample.content).strip() == sample.unpacked.strip()

    def test_max_layers_respected(self):
        class Endless(RigUnpacker):
            kit = "endless"

            def recognizes(self, content):
                return True

            def unpack(self, content):
                return content + "x"

        registry = UnpackerRegistry(max_layers=3)
        registry.register(Endless())
        payload, applied = registry.unpack("seed")
        assert len(applied) == 3
        assert payload == "seedxxx"

    def test_registration_order_respected(self, kits, august_day):
        registry = UnpackerRegistry()
        registry.register(NuclearUnpacker())
        registry.register(RigUnpacker())
        sample = kits["rig"].generate(august_day, random.Random(2))
        _payload, applied = registry.unpack(sample.content)
        assert applied == ["rig"]


class TestBrokenAnglerChunks:
    """One non-hex character in a chunk of Angler's hex concatenation once
    sent the concatenation pattern into exponential backtracking: its
    separator split ``" +\\n  "`` several ways per chunk, so breaking the
    9th / 10th / 11th of this page's 707 chunks took 0.2 / 0.9 / 4.8 s, and
    a later chunk hung the label stage."""

    CEILING_SECONDS = 1.0

    @pytest.fixture(scope="class")
    def page(self):
        generator = TelemetryGenerator(StreamConfig(seed=5))
        return next(sample.content for sample in generator.generate_day(
            datetime.date(2014, 8, 6)).samples if sample.kit == "angler")

    @pytest.mark.parametrize("chunk", [11, -1], ids=["12th", "last"])
    def test_broken_chunk_is_declined_under_the_ceiling(self, page, chunk):
        unpacker = AnglerUnpacker()
        assert unpacker.recognizes(page)
        chunks = [match.start() for match in
                  re.finditer(r'"[0-9a-fA-F]+"(?=\s*[+;])', page)]
        assert len(chunks) > 100
        at = chunks[chunk] + 1
        broken = page[:at] + ")" + page[at + 1:]
        for operation in (unpacker.recognizes, unpacker.try_unpack):
            started = time.perf_counter()
            result = operation(broken)
            assert time.perf_counter() - started < self.CEILING_SECONDS
            assert not result

"""Differential tests: the generator's C-level payload encoders against the
per-character functions they replaced.

``tests/oracle_ekgen.py`` holds Angler's hex encoder, Nuclear's digit
encoder and RIG's char-code join as they were before their loops moved into
C.  The encoders write every kit page of the stream (and through the pages
every ``output_digest`` of ``bench/``), so they must agree character for
character on any text and any key, astral code points and lone surrogates
included.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_ekgen
from repro.ekgen.angler import hex_encode
from repro.ekgen.nuclear import encrypt_payload
from repro.ekgen.rig import encode_char_codes

SETTINGS = settings(max_examples=500, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Any code point: ASCII-heavy draws, the whole range up to U+10FFFF, and
#: lone surrogates (which ``st.text()`` leaves out).
any_char = st.one_of(st.characters(max_codepoint=0x7F),
                     st.characters(exclude_categories=()),
                     st.characters(categories=["Cs"]))
any_text = st.lists(any_char, max_size=80).map("".join)


class TestEncoders:
    @SETTINGS
    @given(any_text)
    def test_hex_encode(self, text):
        assert hex_encode(text) == oracle_ekgen.hex_encode(text)

    @SETTINGS
    @given(any_text, any_text)
    def test_encrypt_payload(self, core, key):
        assert encrypt_payload(core, key) == \
            oracle_ekgen.encrypt_payload(core, key)

    @SETTINGS
    @given(any_text, any_text)
    def test_encode_char_codes(self, core, delimiter):
        assert encode_char_codes(core, delimiter) == \
            oracle_ekgen.encode_char_codes(core, delimiter)

    @pytest.mark.parametrize("text", [
        "", "\x00", "\xff", "Ā", "\ud800", "\udfff", "\U0010ffff",
        "a\ud800\U0001f600z"])
    def test_edge_code_points(self, text):
        assert hex_encode(text) == oracle_ekgen.hex_encode(text)
        assert encrypt_payload(text, "k") == \
            oracle_ekgen.encrypt_payload(text, "k")
        assert encode_char_codes(text, "y6") == \
            oracle_ekgen.encode_char_codes(text, "y6")

"""Differential tests: the buffer-sliced k-gram hashing and the sliding
winnowing minimum against the functions they replaced.

``tests/oracle_winnow.py`` holds ``_hash_kgram``/``kgram_hashes``/``winnow``
as they were in ``repro.winnowing.fingerprint`` until ASCII text was hashed
from one ``bytes`` buffer and the window minimum started sliding; it is the
reference here.  Fingerprint values feed every label threshold (and through
the labels every signature and ``output_digest`` of ``bench/``), so the two
must agree hash for hash and ``(hash, position)`` for ``(hash, position)``.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_winnow
from repro.winnowing.fingerprint import (
    Fingerprint,
    kgram_hashes,
    normalize_text,
    winnow,
)

SETTINGS = settings(max_examples=500, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ks = st.integers(min_value=1, max_value=9)
windows = st.integers(min_value=1, max_value=15)

ASCII = list("abcxyz019(){};=.\"' \t\n\x00\x7f")
NON_ASCII = ["é", "ß", "中", "\U0001f600", "\ud800", "\udfff",
             "İ", " ", "\x80", "\xff"]
ascii_text = st.lists(st.sampled_from(ASCII), max_size=60).map("".join)
mixed_text = st.lists(st.sampled_from(ASCII + NON_ASCII),
                      max_size=60).map("".join)

#: Few distinct values, so windows are full of ties and the rightmost-minimum
#: rule is what decides.
tied_hashes = st.lists(st.integers(min_value=0, max_value=3), max_size=60)
wide_hashes = st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                       max_size=60)


def assert_same_fingerprint(text, k, window):
    normalized = normalize_text(text)
    hashes = kgram_hashes(normalized, k)
    assert hashes == oracle_winnow.kgram_hashes(normalized, k)
    selected = winnow(hashes, window)
    assert selected == oracle_winnow.winnow(hashes, window)
    counts = {}
    for value, _position in selected:
        counts[value] = counts.get(value, 0) + 1
    assert Fingerprint.of(text, k=k, window=window).hashes == counts


class TestKgramHashes:
    @SETTINGS
    @given(ascii_text, ks)
    def test_ascii_text(self, text, k):
        assert kgram_hashes(text, k) == oracle_winnow.kgram_hashes(text, k)

    @SETTINGS
    @given(mixed_text, ks)
    def test_non_ascii_and_surrogate_text(self, text, k):
        assert kgram_hashes(text, k) == oracle_winnow.kgram_hashes(text, k)

    @SETTINGS
    @given(st.text(max_size=40), ks)
    def test_arbitrary_unicode(self, text, k):
        assert kgram_hashes(text, k) == oracle_winnow.kgram_hashes(text, k)

    @pytest.mark.parametrize("text", ["", "abc", "é", "a\ud800b"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_is_rejected_as_before(self, text, k):
        with pytest.raises(ValueError):
            oracle_winnow.kgram_hashes(text, k)
        with pytest.raises(ValueError):
            kgram_hashes(text, k)

    def test_text_shorter_than_k(self):
        assert kgram_hashes("abc", 8) == oracle_winnow.kgram_hashes("abc", 8) \
            == []


class TestWinnow:
    @SETTINGS
    @given(tied_hashes, windows)
    def test_ties(self, hashes, window):
        assert winnow(hashes, window) == oracle_winnow.winnow(hashes, window)

    @SETTINGS
    @given(wide_hashes, windows)
    def test_distinct_hashes(self, hashes, window):
        assert winnow(hashes, window) == oracle_winnow.winnow(hashes, window)

    @pytest.mark.parametrize("window", [1, 2, 5, 12, 15])
    @pytest.mark.parametrize("length", [1, 2, 11, 12, 13, 40])
    def test_monotone_and_constant_sequences(self, length, window):
        # Increasing: the minimum leaves the window at every step (a rescan
        # each time).  Decreasing: the entering hash always wins.  Constant:
        # every entering hash ties, and the rightmost must be taken.
        for hashes in (list(range(length)), list(range(length, 0, -1)),
                       [7] * length):
            assert winnow(hashes, window) == \
                oracle_winnow.winnow(hashes, window)

    @pytest.mark.parametrize("length", [1, 5, 12])
    def test_window_at_least_the_length(self, length):
        hashes = [3, 1, 2, 1, 5, 1, 9, 4, 4, 8, 6, 1][:length]
        for window in (length, length + 1, 100):
            assert winnow(hashes, window) == \
                oracle_winnow.winnow(hashes, window)

    def test_tuples_are_accepted_as_before(self):
        hashes = (5, 3, 3, 8, 1, 1, 9, 2)
        assert winnow(hashes, 3) == oracle_winnow.winnow(hashes, 3)

    @pytest.mark.parametrize("window", [0, -3])
    def test_non_positive_window_is_rejected_as_before(self, window):
        with pytest.raises(ValueError):
            oracle_winnow.winnow([1, 2, 3], window)
        with pytest.raises(ValueError):
            winnow([1, 2, 3], window)

    def test_empty(self):
        assert winnow([], 4) == oracle_winnow.winnow([], 4) == []


class TestWholeFingerprint:
    @SETTINGS
    @given(mixed_text, ks, windows)
    def test_text_to_fingerprint(self, text, k, window):
        assert_same_fingerprint(text, k, window)

    def test_every_unpacked_kit_payload_of_one_day(self, small_generator):
        batch = small_generator.generate_day(datetime.date(2014, 8, 14))
        payloads = {sample.unpacked for sample in batch.malicious}
        assert len(payloads) >= 4
        for payload in payloads:
            assert_same_fingerprint(payload, oracle_winnow.DEFAULT_K,
                                    oracle_winnow.DEFAULT_WINDOW)

"""Tests for winnowing fingerprints, histograms and similarity."""

from __future__ import annotations

import pytest

from repro.winnowing import (
    Fingerprint,
    WinnowHistogram,
    containment,
    jaccard,
    kgram_hashes,
    kgrams,
    overlap,
    winnow,
)
from repro.winnowing.fingerprint import normalize_text


class TestKgrams:
    def test_basic(self):
        assert list(kgrams("abcde", 3)) == ["abc", "bcd", "cde"]

    def test_text_shorter_than_k(self):
        assert list(kgrams("ab", 5)) == []

    def test_text_equal_to_k(self):
        assert list(kgrams("abc", 3)) == ["abc"]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            list(kgrams("abc", 0))

    def test_hashes_are_deterministic(self):
        assert kgram_hashes("hello world", 4) == kgram_hashes("hello world", 4)

    def test_hashes_differ_for_different_text(self):
        assert kgram_hashes("aaaaaa", 3) != kgram_hashes("aaaaab", 3)


class TestWinnow:
    def test_empty(self):
        assert winnow([]) == []

    def test_short_sequence_selects_global_minimum(self):
        hashes = [5, 3, 9]
        selected = winnow(hashes, window=10)
        assert selected == [(3, 1)]

    def test_density_guarantee(self):
        """Expected density of selected fingerprints is about 2/(w+1)."""
        hashes = kgram_hashes("the quick brown fox jumps over the lazy dog" * 20, 5)
        window = 10
        selected = winnow(hashes, window=window)
        density = len(selected) / len(hashes)
        assert 0.5 / (window + 1) < density < 4 / (window + 1)

    def test_positions_increase(self):
        hashes = kgram_hashes("abcdefghijklmnopqrstuvwxyz" * 5, 4)
        positions = [position for _h, position in winnow(hashes, 8)]
        assert positions == sorted(positions)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            winnow([1, 2, 3], window=0)

    def test_shared_substring_guarantee(self):
        """Any shared run of length >= w + k - 1 shares a fingerprint."""
        k, w = 5, 8
        shared = "thisisacommonsubstringlongenoughtoguarantee"
        a = "prefixAAAA" + shared + "suffixBBBB"
        b = "zzzz" + shared + "qqqqqq"
        fa = Fingerprint.of(a, k=k, window=w)
        fb = Fingerprint.of(b, k=k, window=w)
        assert fa.intersection_size(fb) > 0


class TestFingerprint:
    def test_normalize_text(self):
        assert normalize_text("A b\tC\nd") == "abcd"

    def test_identical_documents_full_overlap(self):
        text = "function foo(a, b) { return a + b; }" * 10
        fa = Fingerprint.of(text)
        fb = Fingerprint.of(text)
        assert fa.intersection_size(fb) == fa.size

    def test_whitespace_irrelevant(self):
        a = Fingerprint.of("var x = 1; var y = 2;" * 10)
        b = Fingerprint.of("var  x=1;\n\nvar   y =  2;" * 10)
        assert a.intersection_size(b) == a.size

    def test_disjoint_documents(self):
        a = Fingerprint.of("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
        b = Fingerprint.of("bbbbbbbbbbbbbbbbbbbbbbbbbbbbb")
        assert a.intersection_size(b) == 0

    def test_intersection_is_the_multiset_intersection(self):
        a = Fingerprint(hashes={1: 3, 2: 1, 3: 2, 4: 5})
        b = Fingerprint(hashes={1: 1, 3: 4, 4: 5, 9: 7})
        assert a.intersection_size(b) == b.intersection_size(a) == 1 + 2 + 5
        assert a.intersection_size(Fingerprint()) == 0

    def test_merge(self):
        a = Fingerprint.of("first document body" * 5)
        b = Fingerprint.of("second document body" * 5)
        merged = a.merge(b)
        assert merged.size == a.size + b.size

    def test_incompatible_parameters_rejected(self):
        a = Fingerprint.of("text one" * 10, k=5)
        b = Fingerprint.of("text two" * 10, k=7)
        with pytest.raises(ValueError):
            a.intersection_size(b)

    def test_empty_document(self):
        fp = Fingerprint.of("")
        assert fp.size == 0


class TestSimilarity:
    def test_overlap_self(self):
        text = "var pluginReport = { flash: null };" * 20
        assert overlap(text, text) == pytest.approx(1.0)

    def test_overlap_subset(self):
        """A document embedded in a larger one has high containment in it."""
        small = "function detectPlugins() { return navigator.plugins.length; }" * 10
        large = small + ("function other() { return 42; }" * 30)
        assert overlap(small, large) > 0.9
        assert overlap(large, small) < 0.6

    def test_containment_alias(self):
        a, b = "shared body of text" * 10, "shared body of text" * 10
        assert containment(a, b) == overlap(a, b)

    def test_jaccard_bounds(self):
        shared = "function sharedHelper(x) { return x * 2; }" * 5
        a = shared + "function onlyInA() { return 1; }" * 5
        b = shared + "var totallyDifferentTail = 'zzzz';" * 5
        value = jaccard(a, b)
        assert 0.0 < value < 1.0

    def test_jaccard_identical(self):
        text = "identical content here" * 10
        assert jaccard(text, text) == pytest.approx(1.0)

    def test_empty_query_overlap_zero(self):
        assert overlap("", "some reference text" * 5) == 0.0


class TestWinnowHistogram:
    def test_of_and_size(self):
        histogram = WinnowHistogram.of("var a = 1;" * 30, label="benign")
        assert histogram.size > 0
        assert histogram.label == "benign"

    def test_overlap_with_known_kit(self, kits, august_day):
        """A kit core has near-total overlap with itself on the next day
        (slow inner-layer change, the paper's key observation)."""
        import datetime

        kit = kits["nuclear"]
        day1 = kit.core_source(kit.version_for(august_day))
        day2 = kit.core_source(kit.version_for(
            august_day + datetime.timedelta(days=1)))
        h1 = WinnowHistogram.of(day1)
        h2 = WinnowHistogram.of(day2)
        assert h1.overlap(h2) > 0.95

    def test_symmetric_overlap(self):
        small = WinnowHistogram.of("shared shared shared text body" * 5)
        large = WinnowHistogram.of("shared shared shared text body" * 5
                                   + "and much more other content" * 20)
        assert large.symmetric_overlap(small) == small.symmetric_overlap(large)

    def test_empty_histogram_overlap(self):
        empty = WinnowHistogram.of("")
        other = WinnowHistogram.of("content" * 20)
        assert empty.overlap(other) == 0.0
        assert other.symmetric_overlap(empty) == 0.0

"""Tests for the reference edit distances the engine is checked against."""

from __future__ import annotations

import pytest

from oracle_distance import (
    TokenEditDistance,
    banded_edit_distance,
    edit_distance,
    length_lower_bound,
    normalized_edit_distance,
)


class TestEditDistance:
    def test_identical(self):
        assert edit_distance(["a", "b"], ["a", "b"]) == 0

    def test_empty_vs_nonempty(self):
        assert edit_distance([], ["a", "b", "c"]) == 3
        assert edit_distance(["a"], []) == 1

    def test_both_empty(self):
        assert edit_distance([], []) == 0

    def test_single_substitution(self):
        assert edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_insertion(self):
        assert edit_distance(["a", "c"], ["a", "b", "c"]) == 1

    def test_deletion(self):
        assert edit_distance(["a", "b", "c"], ["a", "c"]) == 1

    def test_classic_strings(self):
        assert edit_distance("kitten", "sitting") == 3
        assert edit_distance("flaw", "lawn") == 2

    def test_symmetry(self):
        a, b = list("abcdef"), list("azced")
        assert edit_distance(a, b) == edit_distance(b, a)

    def test_works_on_token_tuples(self):
        a = ("var", "Identifier", "=", "String", ";")
        b = ("var", "Identifier", "=", "Identifier", ";")
        assert edit_distance(a, b) == 1


class TestBandedEditDistance:
    def test_exact_when_within_band(self):
        a, b = list("kitten"), list("sitting")
        assert banded_edit_distance(a, b, 3) == 3
        assert banded_edit_distance(a, b, 5) == 3

    def test_none_when_exceeding_band(self):
        a, b = list("aaaa"), list("bbbb")
        assert banded_edit_distance(a, b, 2) is None

    def test_length_difference_shortcut(self):
        assert banded_edit_distance(list("ab"), list("abcdefgh"), 3) is None

    def test_zero_band_identical(self):
        assert banded_edit_distance(list("xyz"), list("xyz"), 0) == 0

    def test_zero_band_different(self):
        assert banded_edit_distance(list("xyz"), list("xyw"), 0) is None

    def test_negative_band(self):
        assert banded_edit_distance(list("a"), list("a"), -1) is None

    def test_empty_sequences(self):
        assert banded_edit_distance([], [], 0) == 0
        assert banded_edit_distance([], list("ab"), 2) == 2
        assert banded_edit_distance([], list("ab"), 1) is None

    @pytest.mark.parametrize("a,b", [
        ("abcdefgh", "abdefgh"),
        ("aaaabbbb", "aaabbbbb"),
        ("tokenize", "tokeniser"),
        ("xxxxx", "yxxxxy"),
    ])
    def test_agrees_with_full_dp(self, a, b):
        exact = edit_distance(list(a), list(b))
        assert banded_edit_distance(list(a), list(b), exact) == exact
        assert banded_edit_distance(list(a), list(b), exact + 2) == exact


class TestNormalizedDistance:
    def test_range(self):
        assert normalized_edit_distance(list("abc"), list("abc")) == 0.0
        assert normalized_edit_distance(list("abc"), list("xyz")) == 1.0

    def test_empty_both(self):
        assert normalized_edit_distance([], []) == 0.0

    def test_thresholded_returns_one_above_cutoff(self):
        a, b = list("aaaaaaaaaa"), list("bbbbbbbbbb")
        assert normalized_edit_distance(a, b, max_normalized=0.1) == 1.0

    def test_thresholded_exact_below_cutoff(self):
        a = list("aaaaaaaaaa")
        b = list("aaaaaaaaab")
        assert normalized_edit_distance(a, b, max_normalized=0.2) == \
            pytest.approx(0.1)


class TestMetrics:
    def test_token_edit_distance_within(self):
        metric = TokenEditDistance(epsilon=0.10)
        a = tuple("abcdefghij")
        b = tuple("abcdefghiX")
        assert metric.within(a, b, 0.10)
        c = tuple("XXXdefghij")
        assert not metric.within(a, c, 0.10)

    def test_token_edit_distance_prefilter_length(self):
        metric = TokenEditDistance(epsilon=0.10)
        a = tuple("a" * 10)
        b = tuple("a" * 30)
        assert metric.distance(a, b) == 1.0
        assert not metric.within(a, b, 0.10)

    def test_token_edit_distance_prefilter_histogram(self):
        metric = TokenEditDistance(epsilon=0.10, prefilter=True)
        a = tuple("aaaaabbbbb")
        b = tuple("cccccddddd")
        assert metric.distance(a, b) == 1.0

    def test_prefilter_never_rejects_close_pairs(self):
        metric = TokenEditDistance(epsilon=0.2, prefilter=True)
        a = tuple("abcabcabca")
        b = tuple("abcabcabcx")
        assert metric.within(a, b, 0.2)

    def test_length_lower_bound(self):
        assert length_lower_bound("aaaa", "aa") == 0.5
        assert length_lower_bound("", "") == 0.0
        assert length_lower_bound("abc", "abc") == 0.0

    def test_identical_kit_samples_have_zero_distance(self, kits, august_day):
        """Same-version kit samples differ only in identifiers, which the
        abstraction removes, so the metric sees them at distance 0."""
        import random

        from repro.jstoken import abstract_token_string

        kit = kits["sweetorange"]
        a = abstract_token_string(kit.generate(august_day, random.Random(5)).content)
        b = abstract_token_string(kit.generate(august_day, random.Random(6)).content)
        metric = TokenEditDistance(epsilon=0.10)
        assert metric.distance(a, b) <= 0.02

"""Tests for the signature generation layer."""

from __future__ import annotations

import datetime
import hashlib
import random
import re
import string
import time

import pytest

from repro.jstoken import abstract_token_string
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures import (
    Signature,
    SignatureCompiler,
    SignatureConfig,
    align_cluster,
    build_pattern,
    common_token_window,
    generalize_column,
)
from repro.signatures.alignment import TokenColumn
from repro.signatures.subsequence import _find_window_of_length

D = datetime.date(2014, 8, 5)


class TestCommonWindow:
    def test_identical_sequences(self):
        tokens = tuple("abcdefghij")
        window = common_token_window([tokens, tokens, tokens])
        assert window is not None
        assert window.length == 10
        assert window.positions == [0, 0, 0]

    def test_shared_middle_section(self):
        a = tuple("xx" + "commonpart" + "yy")
        b = tuple("qqq" + "commonpart" + "zz")
        window = common_token_window([a, b])
        assert window is not None
        assert "".join(window.window).find("commonpart") != -1

    def test_respects_cap(self):
        tokens = tuple("a" * 50 + "bcdefgh" + "a" * 50)
        window = common_token_window([tokens, tokens], max_tokens=20)
        assert window is not None
        assert window.length <= 20

    def test_uniqueness_constraint(self):
        """A window must occur exactly once in every sample."""
        a = tuple("abcabc")  # every 3-gram of 'abc' occurs twice
        b = tuple("abcabc")
        window = common_token_window([a, b])
        assert window is not None
        # the selected window must be unique in each sample
        joined = "".join(a)
        assert joined.count("".join(window.window)) == 1

    def test_no_common_window(self):
        assert common_token_window([tuple("aaaa"), tuple("bbbb")]) is None

    def test_empty_inputs(self):
        assert common_token_window([]) is None
        assert common_token_window([tuple("abc"), ()]) is None

    def test_find_window_of_length_none_cases(self):
        assert _find_window_of_length([tuple("ab")], 5) is None
        assert _find_window_of_length([tuple("ab")], 0) is None

    def test_positions_point_at_window(self):
        a = tuple("prefix" + "SIGNAL" + "tail")
        b = tuple("pp" + "SIGNAL" + "longertailhere")
        window = common_token_window([a, b])
        assert window is not None
        for sample, position in zip([a, b], window.positions):
            assert sample[position:position + window.length] == window.window


class TestGeneralization:
    def test_constant_column_is_literal(self):
        assert generalize_column(["eval", "eval", "eval"]) == "eval"

    def test_literal_is_escaped(self):
        fragment = generalize_column(["a(b)", "a(b)"])
        assert re.fullmatch(fragment, "a(b)")

    def test_lowercase_template(self):
        fragment = generalize_column(["abc", "defg"])
        assert fragment == "[a-z]{3,4}"

    def test_digit_template(self):
        fragment = generalize_column(["123", "98765"])
        assert fragment == "[0-9]{3,5}"

    def test_alphanumeric_template(self):
        fragment = generalize_column(["a1B2", "Zz9"])
        assert fragment.startswith("[0-9a-zA-Z]")

    def test_identifier_template(self):
        fragment = generalize_column(["a_b$1", "c_d$2345"])
        assert fragment.startswith("[0-9a-zA-Z_$]")

    def test_fixed_length_quantifier(self):
        fragment = generalize_column(["abc", "xyz"])
        assert fragment == "[a-z]{3}"

    def test_fallback_dot_pattern(self):
        fragment = generalize_column(["has space", "other text!"])
        assert fragment.startswith(".{")

    def test_empty_value_fallback(self):
        fragment = generalize_column(["", "abc"])
        assert fragment == ".{0,3}"

    def test_trailing_newline_is_not_a_digit(self):
        """``$`` matches before a trailing newline; the template check must
        not (it used to pick ``[0-9]{1,2}``, which misses ``'0\\n'``)."""
        fragment = generalize_column(["0", "0\n"])
        assert fragment == ".{1,2}"
        for value in ("0", "0\n"):
            assert re.fullmatch(fragment, value, re.DOTALL)

    def test_generated_fragment_matches_all_observed(self):
        values = ["Euur1V", "jkb0hA", "QB0Xk"]
        fragment = generalize_column(values)
        for value in values:
            assert re.fullmatch(fragment, value), (fragment, value)

    def test_paper_figure9_shape(self):
        """The Figure 9 example: identifiers generalize, punctuation stays."""
        columns = [
            TokenColumn(0, "Identifier", ["Euur1V", "jkb0hA", "QB0Xk"]),
            TokenColumn(1, "=", ["=", "=", "="]),
            TokenColumn(2, "this", ["this", "this", "this"]),
            TokenColumn(3, "[", ["[", "[", "["]),
            TokenColumn(4, "String", ["l9D", "uqA", "k3LSC"]),
            TokenColumn(5, "]", ["]", "]", "]"]),
            TokenColumn(6, "(", ["(", "(", "("]),
            TokenColumn(7, "String", ["ev#333399al", "ev#ccff00al",
                                      "ev#33cc00al"]),
            TokenColumn(8, ")", [")", ")", ")"]),
            TokenColumn(9, ";", [";", ";", ";"]),
        ]
        pattern = build_pattern(columns)
        for text in ("Euur1V=this[l9D](ev#333399al);",
                     "jkb0hA=this[uqA](ev#ccff00al);",
                     "QB0Xk=this[k3LSC](ev#33cc00al);"):
            assert re.search(pattern, text), pattern

    def test_backreferences_tie_repeated_identifiers(self):
        columns = [
            TokenColumn(0, "Identifier", ["aaa", "bbb"]),
            TokenColumn(1, "(", ["(", "("]),
            TokenColumn(2, "Identifier", ["aaa", "bbb"]),
            TokenColumn(3, ")", [")", ")"]),
        ]
        pattern = build_pattern(columns, use_backreferences=True)
        assert "(?P<var0>" in pattern and "(?P=var0)" in pattern
        assert re.search(pattern, "aaa(aaa)")
        assert re.search(pattern, "bbb(bbb)")
        assert not re.search(pattern, "aaa(bbb)")

    def test_backreferences_disabled(self):
        columns = [
            TokenColumn(0, "Identifier", ["aaa", "bbb"]),
            TokenColumn(1, "(", ["(", "("]),
            TokenColumn(2, "Identifier", ["aaa", "bbb"]),
            TokenColumn(3, ")", [")", ")"]),
        ]
        pattern = build_pattern(columns, use_backreferences=False)
        assert "(?P=" not in pattern
        assert re.search(pattern, "aaa(bbb)")


def seeded_columns(members, width=200, seed=20160628):
    """Randomized identifiers (five of them reused across offsets, as a packer
    reuses its variable names), numbers, strings with blanks and empties, and
    constants."""
    rng = random.Random(seed)
    names = [["".join(rng.choice(string.ascii_letters)
                      for _ in range(rng.randint(3, 9)))
              for _ in range(members)] for _ in range(5)]
    columns = []
    for offset in range(width):
        kind = offset % 5
        if kind == 0:
            values = [";"] * members
        elif kind in (1, 2):
            values = list(names[rng.randrange(5)])
        elif kind == 3:
            values = [str(rng.randrange(10 ** rng.randint(1, 6)))
                      for _ in range(members)]
        else:
            values = [rng.choice(["", "a b", "x", "#fff", "http://a/b?c=1"])
                      for _ in range(members)]
        columns.append(TokenColumn(offset, "Identifier", values))
    return columns


class TestBuildPatternAtClusterSize:
    """``build_pattern`` deduplicated with ``value not in list`` and scanned
    every backreference per column: quadratic in the cluster size (3.8 s for
    these columns at 2,000 members; the paper's clusters hold hundreds).  The
    digests are of the patterns that implementation emitted for them."""

    PARENT = {
        (3, True, 0.25): "04a7eed89076d373",
        (3, False, 0.0): "6580fabbc7d2d2d8",
        (50, True, 0.25): "e4dc3a73bddced51",
        (50, False, 0.0): "71c50d790f7744b0",
        (2000, True, 0.25): "d324dded2aa5e6a9",
        (2000, False, 0.0): "71c50d790f7744b0",
    }
    #: A hang tripwire, not a performance gate: linear work takes ~0.1 s.
    CEILING_SECONDS = 30.0

    @pytest.mark.parametrize("members,backreferences,slack", sorted(PARENT))
    def test_pattern_is_the_parents_under_the_ceiling(self, members,
                                                      backreferences, slack):
        columns = seeded_columns(members)
        started = time.perf_counter()
        pattern = build_pattern(columns, use_backreferences=backreferences,
                                length_slack=slack)
        assert time.perf_counter() - started < self.CEILING_SECONDS
        assert hashlib.sha256(pattern.encode()).hexdigest()[:16] \
            == self.PARENT[members, backreferences, slack]
        re.compile(pattern)

    def test_distinct_values_keep_first_occurrence_order(self):
        column = TokenColumn(0, "Identifier", ["b", "a", "b", "c", "a"])
        assert column.distinct_values == ["b", "a", "c"]
        assert not column.is_constant
        assert TokenColumn(0, ";", [";"] * 4).is_constant


class TestAlignment:
    def test_align_simple_cluster(self):
        contents = ['var aa = f("x1");', 'var bb = f("y22");',
                    'var cc = f("z333");']
        columns = align_cluster(contents)
        assert columns is not None
        classes = [column.token_class for column in columns]
        assert classes[0] == "var"
        string_columns = [c for c in columns if c.token_class == "String"]
        # quotes are stripped in the collected values
        assert all('"' not in value
                   for column in string_columns for value in column.values)

    def test_align_no_common_window(self):
        assert align_cluster(["var a = 1;", "function b() {}"]) is None or \
            len(align_cluster(["var a = 1;", "function b() {}"])) < 5

    def test_distinct_values_and_is_constant(self):
        column = TokenColumn(0, "String", ["a", "a", "b"])
        assert column.distinct_values == ["a", "b"]
        assert not column.is_constant
        assert TokenColumn(0, "=", ["=", "="]).is_constant


class TestSignatureModel:
    def test_matches_normalized(self):
        signature = Signature(kit="rig", pattern=r"vara=\[0-9]{2}",
                              created=D)
        assert signature.length == len(signature.pattern)

    def test_matches_sample_normalizes(self):
        signature = Signature(kit="test", pattern=r"varx=abc;", created=D)
        assert signature.matches_sample('<html><script>var x = "abc";</script></html>')

    def test_signature_id_deterministic(self):
        a = Signature(kit="rig", pattern="abc", created=D)
        b = Signature(kit="rig", pattern="abc", created=D)
        assert a.signature_id == b.signature_id

    def test_compiled_is_cached(self):
        signature = Signature(kit="x", pattern="abc", created=D)
        assert signature.compiled is signature.compiled


class TestSignatureCompiler:
    def make_cluster(self, kit, kits, count=6, day=None):
        day = day or datetime.date(2014, 8, 5)
        return [kits[kit].generate(day, random.Random(100 + i)).content
                for i in range(count)]

    @pytest.mark.parametrize("kit", ["rig", "nuclear", "angler", "sweetorange"])
    def test_signature_matches_cluster_samples(self, kits, kit):
        contents = self.make_cluster(kit, kits)
        signature = SignatureCompiler().compile_cluster(contents, kit, D)
        assert signature is not None
        for content in contents:
            assert signature.matches(normalize_for_scan(content))

    @pytest.mark.parametrize("kit", ["rig", "nuclear", "sweetorange"])
    def test_signature_does_not_match_benign(self, kits, kit, august_day):
        from repro.ekgen import BenignGenerator

        contents = self.make_cluster(kit, kits)
        signature = SignatureCompiler().compile_cluster(contents, kit, D)
        generator = BenignGenerator()
        for seed in range(10):
            benign = generator.generate(august_day, random.Random(seed))
            assert not signature.matches(normalize_for_scan(benign.content))

    def test_signature_does_not_match_other_kits(self, kits):
        nuclear_sig = SignatureCompiler().compile_cluster(
            self.make_cluster("nuclear", kits), "nuclear", D)
        for other in ("rig", "angler", "sweetorange"):
            sample = kits[other].generate(datetime.date(2014, 8, 5),
                                          random.Random(55)).content
            assert not nuclear_sig.matches(normalize_for_scan(sample))

    def test_signature_generalizes_to_unseen_samples_same_version(self, kits):
        contents = self.make_cluster("nuclear", kits, count=10)
        signature = SignatureCompiler().compile_cluster(contents, "nuclear", D)
        unseen = kits["nuclear"].generate(datetime.date(2014, 8, 5),
                                          random.Random(999)).content
        assert signature.matches(normalize_for_scan(unseen))

    def test_signature_breaks_when_packer_changes(self, kits):
        """A Nuclear signature built before the delimiter rotation no longer
        matches samples after it — the adversarial cycle that forces a new
        signature (Figures 5 and 12)."""
        before = self.make_cluster("nuclear", kits, count=6,
                                   day=datetime.date(2014, 8, 10))
        signature = SignatureCompiler().compile_cluster(before, "nuclear", D)
        after = kits["nuclear"].generate(datetime.date(2014, 8, 20),
                                         random.Random(1)).content
        assert not signature.matches(normalize_for_scan(after))

    def test_token_cap_respected(self, kits):
        contents = self.make_cluster("angler", kits)
        signature = SignatureCompiler(SignatureConfig(max_window_tokens=50)) \
            .compile_cluster(contents, "angler", D)
        assert signature is not None
        assert signature.token_length <= 50

    def test_short_windows_discarded(self):
        compiler = SignatureCompiler(SignatureConfig(min_window_tokens=10))
        assert compiler.compile_cluster(["var a;", "var b;"], "x", D) is None

    def test_empty_cluster(self):
        assert SignatureCompiler().compile_cluster([], "x", D) is None

    def test_created_date_recorded(self, kits):
        signature = SignatureCompiler().compile_cluster(
            self.make_cluster("rig", kits), "rig", D)
        assert signature.created == D
        assert signature.source == "kizzle"

"""Differential tests: the abstract token string's fast path against the lexer.

``abstract_token_string`` builds the clustering input without a ``Token``:
one ``findall`` of ``_KEYS`` (the lexer's own token shapes) and one table
lookup per token.  It declines to the lexer on a page with a ``/`` key (a
regex literal, a division or a comment) and on scripts that, less trailing
ASCII blanks, end in a blank that can continue an identifier.  Here it is
held to ``oracle_abstract`` over ``tests/oracle_lexer.py``'s tokens on inputs
aimed at its edges; :func:`takes_fast_path` shows which pages it decided,
and the decline rule is asserted exactly, so no comparison passes vacuously.
The hostile families of the lexer's hang tripwire run through it too.
"""

from __future__ import annotations

import collections
import datetime
import operator
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_lexer
from test_jstoken_lexer import TestNoHang as LexerNoHang
from test_lexer_differential import oracle_abstract
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.jstoken import abstract_token_string, normalizer, strip_html, \
    tokenize, tokenize_sample
from repro.jstoken.normalizer import abstract_tokens_of

SETTINGS = settings(max_examples=1000, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

ASCII_BLANKS = [" ", "\t", "\v", "\f", "\n", "\r"]
#: Blanks that also continue an identifier: a page ending in one declines.
WORD_BLANKS = ["\u00a0", "\ufeff", "\u2028", "\u2029"]
BLANKS = ASCII_BLANKS + WORD_BLANKS


def oracle_abstract_string(document):
    """The abstract token string derived the old way from oracle tokens."""
    return oracle_abstract(
        [token for token in oracle_lexer.tokenize(strip_html(document))
         if oracle_lexer.is_significant(token)])


def takes_fast_path(document):
    """Whether ``abstract_token_string`` decides ``document`` without the
    lexer's ``tokenize_sample``."""
    with mock.patch.object(normalizer, "tokenize_sample",
                           wraps=normalizer.tokenize_sample) as lex:
        abstract_token_string(document)
    return not lex.called


def should_decline(document):
    """The documented decline rule, read off the lexer's tokens."""
    scripts = strip_html(document)
    return (any(token.value.startswith("/")
                for token in tokenize(scripts, keep_comments=True))
            or scripts.rstrip("".join(ASCII_BLANKS)).endswith(
                tuple(WORD_BLANKS)))


def assert_fast_path_exact(document):
    assert abstract_token_string(document) \
        == oracle_abstract_string(document), repr(document[:120])
    assert takes_fast_path(document) != should_decline(document), \
        repr(document[:120])


# ----------------------------------------------------------------------
# hypothesis: the fast path's edges
# ----------------------------------------------------------------------
EDGE_PIECES = (
    # words: keywords, astral and lone-surrogate identifiers, word blanks
    ["a", "var", "in", "this", "\u00e9", "\U0001f600", "\ud800", "\udfff",
     "x\ud800", "\u0661"]
    # quotes, unterminated or not, and words against them
    + ["'", '"', "`", "\\", "${", "}", "a'", "'a", 'b"', '"b', "c`", "`c",
       "'x'", '"y"', "`z`"]
    # dots and numbers
    + [".5", "...", ".x", ".", "..", "5.", "0x", "1e5", "0b1", "9"]
    # stray characters and punctuators
    + ["\x00", "\x1c", "\x7f", "#", "@", "?.", "=", "=>", ";", "(", ")",
       "{", "+", "++", ">>>="]
    + BLANKS
    # the tokens that decline
    + ["/", "//", "/*", "*/"])
edge_shaped = st.builds(
    operator.add,
    st.lists(st.sampled_from(EDGE_PIECES), max_size=30).map("".join),
    st.lists(st.sampled_from(BLANKS), max_size=6).map("".join))


class TestEdges:
    @SETTINGS
    @given(edge_shaped)
    def test_edge_shaped_strings(self, document):
        assert_fast_path_exact(document)

    @SETTINGS
    @given(st.text(max_size=60))
    def test_arbitrary_unicode(self, document):
        assert_fast_path_exact(document)

    @pytest.mark.parametrize("document", [
        "a \t\n", "a\u00a0 x", ".5...x", "...5", "..5", "a.5", "'abc",
        '"abc\ndef', "`a${b", "'a\\", "a'b'c", "\x00\x00", "\ud800 \U0001f600",
        "var\u00a0x", "x = 1 ?. y", "<script>a</script>"])
    def test_pages_the_fast_path_decides(self, document):
        assert takes_fast_path(document)
        assert_fast_path_exact(document)

    @pytest.mark.parametrize("document", [
        "a / b", "x = /re/", "// c", "/* c */ a", "a /= 2", "a\u00a0",
        "var\u00a0 \n", "a \u2028\t", "'abc\ufeff"])
    def test_pages_that_decline(self, document):
        assert not takes_fast_path(document)
        assert_fast_path_exact(document)

    def test_pattern_needs_nothing_newer_than_python_39(self):
        pattern = normalizer._KEYS.__self__.pattern
        for newer in ("*+", "++", "?+", "}+", "(?>"):
            assert newer not in pattern
        assert normalizer._KEYS.__self__.groups == 1


# ----------------------------------------------------------------------
# the hostile families: linear, whichever way a page goes
# ----------------------------------------------------------------------
FAMILIES = {
    **LexerNoHang.FAMILIES,
    **{f"word then U+{ord(blank):04X}": (lambda n, blank=blank:
                                          "a" + blank * n)
       for blank in BLANKS},
}


class TestNoHang:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_under_the_ceiling(self, family):
        source = FAMILIES[family](LexerNoHang.SIZE)
        started = time.perf_counter()
        abstract = abstract_token_string(source)
        assert time.perf_counter() - started < LexerNoHang.CEILING_SECONDS
        assert abstract == abstract_tokens_of(tokenize_sample(source))


# ----------------------------------------------------------------------
# the default stream's first week: who takes the fast path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def default_week():
    generator = TelemetryGenerator(StreamConfig(seed=20140801))
    return [sample
            for day in range(1, 8)
            for sample in generator.generate_day(
                datetime.date(2014, 8, day)).samples]


class TestGeneratedWeek:
    def test_every_kit_page_takes_the_fast_path(self, default_week):
        fast = collections.Counter()
        declined = collections.Counter()
        for sample in default_week:
            page = sample.content
            assert abstract_token_string(page) \
                == abstract_tokens_of(tokenize_sample(page)), sample.sample_id
            taken = takes_fast_path(page)
            assert taken != should_decline(page), sample.sample_id
            (fast if taken else declined)[sample.kit or "benign"] += 1
        assert set(fast) == {"angler", "nuclear", "sweetorange", "rig",
                             "benign"}, fast
        # Only benign pages hold a regex literal, a division or a comment.
        assert set(declined) == {"benign"}, declined

"""Differential tests: the table-driven scanner against the lexer it replaced.

``tests/oracle_lexer.py`` is the character-by-character ``Lexer`` that lived
in ``repro.jstoken.lexer`` until the one-regex-pass scanner took its place; it
is the reference here.  Every comparison is on ``(cls, value, position,
line)`` in all four ``keep_comments x strict`` modes, raised ``LexerError``
text included, and the consumer loops that were rewritten with the scanner
(``abstract_token_string``, ``normalize_for_scan``, ``tokenize_sample``,
``strip_html``) are compared with values derived the old way from the oracle's
tokens.  ``tests/test_abstract_fast_path.py`` aims at the edges of
``abstract_token_string``'s lexer-free fast path.

The bounded lex the signature generator reads concrete values from
(``tokenize(..., limit=n)`` / ``leading_tokens``) is held to its definition
here too: the first ``n`` tokens of the unbounded run, whatever sits at the
cut.
"""

from __future__ import annotations

import datetime
import itertools
import random
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_lexer
import test_failure_injection as failure_injection
from test_jstoken_lexer import TestNoHang as LexerNoHang
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.jstoken import (LexerError, TokenClass, abstract_token_string,
                           leading_tokens, lexer, strip_html, tokenize,
                           tokenize_sample)
from repro.jstoken.normalizer import abstract_tokens_of
from repro.scanner import normalizer
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures.alignment import abstract_of

MODES = list(itertools.product((False, True), repeat=2))
SETTINGS = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

WEEK_START = datetime.date(2014, 8, 11)     # spans the Aug 13 Angler update
WEEK_SEED = 20160628


# ----------------------------------------------------------------------
# the old way, kept verbatim as the reference
# ----------------------------------------------------------------------
_SCRIPT_RE = re.compile(r"<script\b[^>]*>(.*?)</script\s*>",
                        re.IGNORECASE | re.DOTALL)
_SRC_ATTR_RE = re.compile(r"\bsrc\s*=", re.IGNORECASE)
_TAG_OPEN_RE = re.compile(r"<script\b[^>]*>", re.IGNORECASE)


def oracle_strip_html(document):
    if "<script" not in document.lower():
        return document
    bodies = []
    for match in _SCRIPT_RE.finditer(document):
        opening_tag = _TAG_OPEN_RE.search(document, match.start(), match.end())
        if opening_tag is not None and _SRC_ATTR_RE.search(opening_tag.group(0)):
            if not match.group(1).strip():
                continue
        bodies.append(match.group(1))
    if not bodies:
        return ""
    return "\n".join(bodies)


def oracle_abstract(tokens):
    parts = []
    for token in tokens:
        if token.cls in (TokenClass.KEYWORD, TokenClass.PUNCTUATION):
            parts.append(token.value)
        else:
            cls = token.cls
            if cls in (TokenClass.NUMBER, TokenClass.REGEX,
                       TokenClass.TEMPLATE):
                cls = TokenClass.STRING
            parts.append(cls.value)
    return tuple(parts)


def oracle_normal_form(tokens):
    parts = []
    for token in tokens:
        value = token.value
        if token.cls is TokenClass.STRING and len(value) >= 2 \
                and value[0] in "'\"" and value[-1] == value[0]:
            value = value[1:-1]
        elif token.cls is TokenClass.TEMPLATE and len(value) >= 2 \
                and value[0] == "`" and value[-1] == "`":
            value = value[1:-1]
        parts.append(value)
    return "".join(parts)


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def outcome(tokenizer, error, source, keep_comments, strict):
    """The token tuples, or the error a strict run raised."""
    try:
        tokens = tokenizer(source, keep_comments=keep_comments, strict=strict)
    except error as exc:
        return ("LexerError", str(exc), exc.position, exc.line)
    return [(token.cls, token.value, token.position, token.line)
            for token in tokens]


def assert_same_tokens(source, modes=MODES):
    for keep_comments, strict in modes:
        expected = outcome(oracle_lexer.tokenize, oracle_lexer.LexerError,
                           source, keep_comments, strict)
        actual = outcome(tokenize, LexerError, source, keep_comments, strict)
        assert actual == expected, (
            f"keep_comments={keep_comments} strict={strict} "
            f"source={source[:120]!r}")


def assert_same_derived_forms(document):
    """The sample-level functions against the old loops over oracle tokens."""
    assert strip_html(document) == oracle_strip_html(document)
    significant = [token for token
                   in oracle_lexer.tokenize(oracle_strip_html(document))
                   if oracle_lexer.is_significant(token)]
    assert abstract_token_string(document) == oracle_abstract(significant)
    assert normalize_for_scan(document) == oracle_normal_form(significant)
    assert [token.value for token in tokenize_sample(document)] \
        == [token.value for token in significant]


def assert_prefixes(document, every_cut=False):
    """``limit=n`` is ``[:n]`` of the unbounded run, comments kept or not,
    and ``leading_tokens`` is that over ``tokenize_sample``."""
    source = strip_html(document)
    for keep_comments in (False, True):
        full = tokenize(source, keep_comments=keep_comments)
        cuts = range(len(full) + 2) if every_cut \
            else {0, 1, len(full) // 2, len(full), len(full) + 1}
        for count in cuts:
            assert tokenize(source, keep_comments=keep_comments,
                            limit=count) == full[:count], (count, source[:120])
    significant = tokenize_sample(document)
    for count in {0, 1, len(significant) // 2, len(significant),
                  len(significant) + 1}:
        assert leading_tokens(document, count) == significant[:count]


# ----------------------------------------------------------------------
# hypothesis: a JavaScript-shaped alphabet
# ----------------------------------------------------------------------
JS_ALPHABET = (
    ["'", '"', "`", "\\", "/", "*", "=", "[", "]", "(", ")", "{", "}",
     "++", "--", "+", "-", ";", ",", "<", ">", "!", "&", "|", "?", ":", "#"]
    + [" ", "\t", "\v", "\f", "\u00a0", "\ufeff",       # the eight blanks
       "\n", "\r", "\u2028", "\u2029"]                  # and line terminators
    + list("0179xXeEbBoO.") + ["a", "g", "_", "$", "\u00e9", "\u4e2d",
                               "\x00", "\x7f", "\x80", "\ud800"]
    + [keyword + " " for keyword in sorted(lexer._REGEX_PRECEDING_KEYWORDS)]
    + ["var ", "this", "function "])
js_shaped = st.lists(st.sampled_from(JS_ALPHABET), max_size=24).map("".join)

HTML_FRAGMENTS = [
    "<script", "<SCRIPT", "<ScRiPt", "<\u017fcript", "<scripts", ">", " ",
    " src=", " SRC = 'x.js'", "</script>", "</script >", "</SCRIPT\n>",
    "</scr", "</\u017fcript>", "var a = 1;", "<", "\n", "x"]
html_shaped = st.lists(st.sampled_from(HTML_FRAGMENTS),
                       max_size=16).map("".join)


class TestGeneratedStrings:
    @SETTINGS
    @given(js_shaped)
    def test_js_shaped_strings(self, source):
        assert_same_tokens(source)

    @SETTINGS
    @given(st.text(max_size=60))
    def test_arbitrary_unicode(self, source):
        assert_same_tokens(source)

    @SETTINGS
    @given(html_shaped)
    def test_strip_html(self, document):
        assert strip_html(document) == oracle_strip_html(document)

    @SETTINGS
    @given(st.one_of(js_shaped, st.text(max_size=60), html_shaped))
    def test_bounded_lex_is_a_prefix(self, document):
        assert_prefixes(document)

    @SETTINGS
    @given(js_shaped)
    def test_one_spelling_of_abstract_token(self, source):
        # ``signatures/alignment.py`` and ``jstoken/normalizer.py`` each
        # spell "abstract token"; the window check compares across the two.
        tokens = tokenize(source)
        assert tuple(abstract_of(token) for token in tokens) \
            == abstract_tokens_of(tokens) == abstract_token_string(source)


# ----------------------------------------------------------------------
# every rule the scanner had to reproduce, one input each
# ----------------------------------------------------------------------
RULES = [
    # blanks: the eight characters, not \s; only "\n" advances the line
    "a \u00a0", "\u00a0x", "x\u00a0y", "\ufeffvar a", "a\u2028b\u2029c",
    "a\x1cb\x85c\u2003d", "a\r\nb\rc\nd\u2028e", "  \t\n\r  ",
    # identifiers and digits
    "\u0661\u0662 + \u00e9\u0661", "\ud800 a\ud800", "$_ = _$9", "3abc",
    # numbers
    "0x", "0b", "0xZ1", "0XfF.g", "0b19", "0o7", "00x1", "1.e5", ".5", ".5.5",
    "5.e", "1e+", "1e-3e4", "1..toString()", "a.5", "1.5E+10.2",
    # strings, templates and the backslash
    "'abc\ndef'", '"abc\rdef', "'a\\\nb'", '"a\\\u2028b"', '"abc\\',
    "'\\", "`a\nb\\`c`", "`a\\", "`${a}` `", "'a\\'b' \"c\\\"\" \"\"",
    # comments win over regex literals and never change what a slash means
    "//", "// x\r y", "/*/", "/**/", "/* x", "/* a */ /* b", "x = // c\n /re/",
    "x = /* c */ /re/", "x /* c */ /re/", ") // c\n /re/", "/**//re/",
    # regex literals against division
    "/re/g", "a / b / c", "f(x) / 2 / y", "a[0] /2/ 1", "} /re/", "a++ /re/ 1",
    "a-- /re/ 1", "a + /re/.test(b)", "return /re/", "typeof /re/ in /x/",
    "this /re/ 1", "x = /[/]/g", "x = /[a\\]/]/", "x = /a\\/b/", "x = /[[]/ + 1",
    "x = /a]/", "x = /a/gimsuy_$9\u00e9", "x = /abc\n", "x = /=abc\n", "= /abc",
    "= /[abc", "= /a\\", "= /a\\\nb/", "= /[a\\\n]/", "= /[a\nb]/", "/=/",
    # punctuators and stray characters
    ">>>= >>> === !== **= ... => ?? ?. ++ -- <<= >>=", "a>>>=b===c!==d",
    "+++ --- .... =>> ?.. ??=", "# @ \\ \x00 \x7f", "<!-- x -->",
    # the known super-linear input, at a size that costs nothing
    "/[" * 60 + "\n",
]


class TestNamedRules:
    @pytest.mark.parametrize("source", RULES)
    def test_rule(self, source):
        assert_same_tokens(source)

    @pytest.mark.parametrize("source", RULES + [
        # the cut falls on a ``/`` whose reading hangs on the token before it
        "a / b / c", "x = /re/ / 2 / /re/", ") /re/ 1", "return /re/ / 2",
        # comments never count towards the bound
        "/* c */ a // d\n /* e */ b /* f */", "// only\n/* comments */",
        # an unterminated literal is the last token wanted
        "a = 'abc", 'a = "abc\nb', "a = `abc", "a = /abc", "a = /[abc",
        "<script>a = 1</script><script>b = /re/</script>"])
    def test_bounded_lex_at_every_cut(self, source):
        assert_prefixes(source, every_cut=True)

    def test_patterns_need_nothing_newer_than_python_39(self):
        for pattern in (lexer._MASTER.__self__.pattern,
                        lexer._REGEX_BODY.__self__.pattern,
                        normalizer._SPLIT_RE.pattern,
                        normalizer._TO_SPECIAL.__self__.pattern):
            for newer in ("*+", "++", "?+", "}+", "(?>"):
                assert newer not in pattern


# ----------------------------------------------------------------------
# the fixtures of tests/test_failure_injection.py
# ----------------------------------------------------------------------
class TestFailureInjectionInputs:
    @pytest.mark.parametrize("content",
                             failure_injection.TestHostileInputs.HOSTILE)
    def test_hostile_input(self, content):
        assert_same_tokens(content)
        assert_same_tokens(strip_html(content))
        assert_same_derived_forms(content)
        assert_prefixes(content)

    @pytest.mark.parametrize("fraction", [0.9, 0.6, 0.5, 0.3, 0.1, 0.01])
    def test_truncated_kit_sample(self, kits, fraction):
        sample = kits["nuclear"].generate(failure_injection.D,
                                          random.Random(1)).content
        content = failure_injection.truncate(sample, fraction)
        assert_same_tokens(strip_html(content))
        assert_same_derived_forms(content)


# ----------------------------------------------------------------------
# the hostile families: a bound changes neither the tokens nor the ceiling
# ----------------------------------------------------------------------
class TestNoHang:
    @pytest.mark.parametrize("family", sorted(LexerNoHang.FAMILIES))
    def test_bounded_lex_under_the_ceiling(self, family):
        source = LexerNoHang.FAMILIES[family](LexerNoHang.SIZE)
        full = tokenize(source)
        count = len(full) // 2 + 1
        started = time.perf_counter()
        bounded = tokenize(source, limit=count)
        assert time.perf_counter() - started < LexerNoHang.CEILING_SECONDS
        assert bounded == full[:count]


# ----------------------------------------------------------------------
# one seeded week of generated telemetry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def week_of_pages():
    generator = TelemetryGenerator(StreamConfig(seed=WEEK_SEED))
    return [sample.content
            for offset in range(7)
            for sample in generator.generate_day(
                WEEK_START + datetime.timedelta(days=offset)).samples]


@pytest.mark.slow
class TestGeneratedWeek:
    def test_every_page_in_every_mode(self, week_of_pages):
        assert len(week_of_pages) > 500
        for document in week_of_pages:
            assert_same_tokens(strip_html(document))
            assert_same_derived_forms(document)

    def test_five_random_truncations_per_page(self, week_of_pages):
        rng = random.Random(WEEK_SEED)
        for document in week_of_pages:
            source = strip_html(document)
            for cut in range(5):
                # One mode per cut, so every page meets all four.
                assert_same_tokens(source[:rng.randrange(len(source) + 1)],
                                   modes=[MODES[cut % len(MODES)]])
            # Cutting the HTML instead also cuts tags and closers.
            assert_same_derived_forms(
                document[:rng.randrange(len(document) + 1)])

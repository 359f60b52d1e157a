"""Differential tests: the one-pass ``fast_normalize`` against the loop it replaced.

``tests/oracle_fast_normalize.py`` is the ``finditer`` loop that was
``repro.scanner.normalizer.fast_normalize`` until the ``re.split`` form took
its place; it is the reference here.  ``fast_normalize`` now declines
(returns ``None``) wherever the split alone cannot give the lexer's normal
form; wherever it returns a string, the two must agree character for
character.  ``tests/test_scan_normal_form.py`` holds the whole scan normal
form, declines included, to the lexer's.

``fast_normalize`` has two forms: the bulk ``str.split('"')`` form for
scripts whose literals are all double-quoted, single-line and escape-free,
and the ``re.split`` for the rest.  Both are held to the oracle here, and
:func:`takes_bulk_path` shows which one decided, so neither passes
vacuously.
"""

from __future__ import annotations

import datetime
import random
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_fast_normalize
import test_failure_injection as failure_injection
from test_jstoken_lexer import TestNoHang as LexerNoHang
from test_lexer_differential import WEEK_SEED, WEEK_START
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.jstoken.normalizer import strip_html
from repro.scanner import normalizer
from repro.scanner.normalizer import fast_normalize, normalize_for_scan

SETTINGS = settings(max_examples=1000, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_same_normal_form(content):
    """Where the split decides ``content``'s scripts, it is the oracle's
    form of them; returns whether it decided."""
    scripts = strip_html(content)
    normal_form = fast_normalize(scripts)
    if normal_form is not None:
        assert normal_form == oracle_fast_normalize.fast_normalize(scripts), \
            repr(content[:120])
    return normal_form is not None


def takes_bulk_path(scripts):
    """Whether ``fast_normalize`` decides ``scripts`` by its bulk
    ``str.split`` form, without running ``_SPLIT_RE``."""
    with mock.patch.object(normalizer, "_SPLIT_RE",
                           wraps=normalizer._SPLIT_RE) as split_re:
        normal_form = fast_normalize(scripts)
    return normal_form is not None and not split_re.split.called


# ----------------------------------------------------------------------
# hypothesis: everything the two patterns treat specially, and then some
# ----------------------------------------------------------------------
ALPHABET = (
    ['"', "'", "`", "\\", "${", "}"]
    + [" ", "\t", "\n", "\r", "\v", "\f"]            # the six deleted blanks
    + ["\u00a0", "\u2028", "\u2029", "\ufeff",       # blanks that are kept
       "\x00", "\x1c", "\x85", "\ud800"]
    + ["a", "Z", "0", ";", "=", "/", "*", "<", ">", "\u00e9", "\u4e2d"])
literal_shaped = st.lists(st.sampled_from(ALPHABET), max_size=24).map("".join)


class TestGeneratedStrings:
    @SETTINGS
    @given(literal_shaped)
    def test_literal_shaped_strings(self, content):
        assert_same_normal_form(content)

    @SETTINGS
    @given(st.text(max_size=60))
    def test_arbitrary_unicode(self, content):
        assert_same_normal_form(content)


# ----------------------------------------------------------------------
# hypothesis: scripts whose only quote is ``"``, the bulk form's traffic
# ----------------------------------------------------------------------
LETTERS = ["a", "Z", "0", ";", "=", "(", ")", "+", "\u00e9"]
BLANKS = [" ", "\t", "\n", "\r", "\v", "\f"]
#: Outside a literal, U+00A0 and ``\\`` make the bulk form decline, and a
#: lone ``"`` shifts every later literal or leaves one unterminated.
OUTSIDE = LETTERS + BLANKS + ["\u00a0", "\\", '"']
#: Inside, only a line terminator or ``\\`` does.
INSIDE = LETTERS + BLANKS + ["\u00a0", "\\", "'", "`", "/"]
#: What the bulk form always takes: no line terminator or ``\\`` inside,
#: no U+00A0 or ``\\`` outside.
CLEAN_OUTSIDE = LETTERS + BLANKS
CLEAN_INSIDE = LETTERS + [" ", "\t", "\v", "\f", "\u00a0", "'", "`", "/"]


def quoted_scripts(outside, inside):
    """Text from ``outside`` with literals of ``inside`` text between
    pairs of ``"``."""
    text = st.lists(st.sampled_from(outside), max_size=6).map("".join)
    body = st.lists(st.sampled_from(inside), max_size=6).map("".join)
    return st.tuples(text, st.lists(st.tuples(body, text), max_size=6)).map(
        lambda pieces: pieces[0] + "".join(f'"{literal}"{after}'
                                           for literal, after in pieces[1]))


class TestDoubleQuotedScripts:
    @SETTINGS
    @given(quoted_scripts(OUTSIDE, INSIDE))
    def test_double_quoted_scripts(self, scripts):
        assert_same_normal_form(scripts)

    @SETTINGS
    @given(quoted_scripts(CLEAN_OUTSIDE, CLEAN_INSIDE))
    def test_clean_scripts_take_the_bulk_path(self, scripts):
        assert takes_bulk_path(scripts)
        assert fast_normalize(scripts) \
            == oracle_fast_normalize.fast_normalize(scripts)


# ----------------------------------------------------------------------
# every rule the split had to reproduce, one input each
# ----------------------------------------------------------------------
RULES = [
    # escapes: a backslash takes the next character, newline included
    '"a\\"', '"a\\""', 'x = "a\\"b" + 1', '"a\\\nb"', "'a\\\nb' c", '"\\',
    '"a\\\\" b "c"', "'\\\\\\' '", "\\\"a b\\\"", "a \\ b",
    # empty and adjacent literals
    '""', "''", "``", '"" \'\' ``', '"a"\'b\'`c`"d"', '"a" "b"', "'' ''",
    # a quote of another kind is plain text inside a literal
    '"it\'s `x`" y', "'say \"hi\"' y", "`a \"b\" 'c'` d",
    # unterminated openers: the split declines
    '"abc', "'abc def", "`abc def", '"abc \'d e\' f', "'abc \"d e\" f",
    '"a b\n"c d"', "'a b\n'c d'", '"a `b c` d', "x ` \"a b\" ", '" \' ` a b',
    # single-line quotes, multi-line backticks; only \n ends a quote's line
    '"a\nb"', "'a\nb'", '"a\rb c"', '"a\u2028b c"', "`a\nb  c\n` d e",
    "`a \\` b` c d", "`${ a + \" b \" }` c", "`a` `b\n`\n`c",
    # whitespace: six characters outside literals, nothing inside
    " \t\n\r\f\v", "a \u00a0 b", "a\ufeff b", "\x00 \x00", ' " \t\n" ',
    " ' \t\r\f\v ' ", "a  b   c", "\n\n\"\n\n\"\n\n", "",
    # escaped quotes outside a literal, each once a failed opener
    '\\"' * 61, "\\'" * 60, "\\`" * 61, "\\`\n" * 60, "'" + "\\'" * 60,
    "`" + "\\`${" * 40,
]

#: The bulk form's declines, one per condition, and the inputs it takes.
BULK_DECLINES = [
    '"a" "b', '"a" b"c" "d',                   # an odd quote count
    '"a\\b" c', 'a\\ "b"',                     # a backslash anywhere
    '"a\nb" c', '"a\rb" c',                   # a line terminator inside
    "'a' \"b\"", '`a` "b"', '"a" / "b"',      # a special outside
    '"a"\u00a0"b"',
]
BULK_ACCEPTS = [
    '"it\'s" x', '"a `b` c" x', '"" x', 'x = ""', '"a/b" c',
    '"a\u00a0b" c', ' " \t " \n\r\v\f "" ',
]
RULES += BULK_DECLINES + BULK_ACCEPTS


class TestNamedRules:
    @pytest.mark.parametrize("content", RULES)
    def test_rule(self, content):
        assert_same_normal_form(content)

    @pytest.mark.parametrize("content", BULK_DECLINES)
    def test_bulk_path_declines(self, content):
        assert not takes_bulk_path(content)

    @pytest.mark.parametrize("content", BULK_ACCEPTS)
    def test_bulk_path_accepts(self, content):
        assert takes_bulk_path(content)


# ----------------------------------------------------------------------
# the fixtures of tests/test_failure_injection.py
# ----------------------------------------------------------------------
class TestFailureInjectionInputs:
    @pytest.mark.parametrize("content",
                             failure_injection.TestHostileInputs.HOSTILE)
    def test_hostile_input(self, content):
        assert_same_normal_form(content)

    @pytest.mark.parametrize("fraction", [0.9, 0.6, 0.5, 0.3, 0.1, 0.01])
    def test_truncated_kit_sample(self, kits, fraction):
        for name in sorted(kits):
            sample = kits[name].generate(failure_injection.D,
                                         random.Random(1)).content
            assert_same_normal_form(
                failure_injection.truncate(sample, fraction))


# ----------------------------------------------------------------------
# hostile content: a hang tripwire, as the lexer's TestNoHang
# ----------------------------------------------------------------------
FAMILIES = dict(LexerNoHang.FAMILIES)
FAMILIES.update({
    "lone quotes per line": lambda n: "'\n" * (n // 2),
    "backslash runs": lambda n: "\\" * n,
    "whitespace runs": lambda n: " \t\n\r\f\v" * (n // 6),
    # The bulk form's traffic: the lexer's "quotes" family is ``'"' * n``.
    "odd quote runs": lambda n: '"' * (n + 1),
    "blank literals": lambda n: '" "' * (n // 3),
    "literals per line": lambda n: '"a"\n' * (n // 4),
})


class TestNoHang:
    """The lexer's fourteen hostile families plus six of the
    normalizer's own, at the lexer's size.  Each takes milliseconds, so the
    ceiling only ever fires on super-linear behaviour."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_normalizes_under_the_ceiling(self, family):
        content = FAMILIES[family](LexerNoHang.SIZE)
        started = time.perf_counter()
        normal_form = fast_normalize(content)
        assert time.perf_counter() - started < LexerNoHang.CEILING_SECONDS
        if normal_form is not None:
            assert normal_form == oracle_fast_normalize.fast_normalize(content)

    @pytest.mark.parametrize("content", ['\\"' * 8000, "\\`\n" * 8000],
                             ids=["escaped quotes", "escaped backticks"])
    def test_scan_normal_form_under_the_ceiling(self, content):
        # Quadratic in the split before its failed openers were paid once
        # (2.0 and 4.0 s); the lexer it now falls back to is linear here.
        started = time.perf_counter()
        normalize_for_scan(content)
        assert time.perf_counter() - started < LexerNoHang.CEILING_SECONDS


# ----------------------------------------------------------------------
# one seeded week of generated telemetry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def week_of_samples():
    generator = TelemetryGenerator(StreamConfig(seed=WEEK_SEED))
    return [sample
            for offset in range(7)
            for sample in generator.generate_day(
                WEEK_START + datetime.timedelta(days=offset)).samples]


@pytest.mark.slow
class TestGeneratedWeek:
    def test_every_page(self, week_of_samples):
        assert len(week_of_samples) > 500
        decided = sum(assert_same_normal_form(sample.content)
                      for sample in week_of_samples)
        # Only scripts with a ``/`` outside their literals are declined.
        assert decided > 0.8 * len(week_of_samples)

    def test_every_angler_and_rig_page_takes_the_bulk_path(
            self, week_of_samples):
        pages = [sample.content for sample in week_of_samples
                 if sample.kit in ("angler", "rig")]
        assert len(pages) > 100
        for page in pages:
            assert takes_bulk_path(strip_html(page))

    def test_five_random_truncations_per_page(self, week_of_samples):
        rng = random.Random(WEEK_SEED)
        for document in (sample.content for sample in week_of_samples):
            for _ in range(5):
                assert_same_normal_form(
                    document[:rng.randrange(len(document) + 1)])

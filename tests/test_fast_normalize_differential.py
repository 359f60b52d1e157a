"""Differential tests: the one-pass ``fast_normalize`` against the loop it replaced.

``tests/oracle_fast_normalize.py`` is the ``finditer`` loop that was
``repro.scanner.normalizer.fast_normalize`` until the ``re.split`` form took
its place; it is the reference here.  ``fast_normalize`` now declines
(returns ``None``) wherever the split alone cannot give the lexer's normal
form; wherever it returns a string, the two must agree character for
character.  ``tests/test_scan_normal_form.py`` holds the whole scan normal
form, declines included, to the lexer's.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_fast_normalize
import test_failure_injection as failure_injection
from test_jstoken_lexer import TestNoHang as LexerNoHang
from test_lexer_differential import WEEK_SEED, week_of_pages  # noqa: F401
from repro.jstoken.normalizer import strip_html
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


class TestNamedRules:
    @pytest.mark.parametrize("content", RULES)
    def test_rule(self, content):
        assert_same_normal_form(content)


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
})


class TestNoHang:
    """The lexer's fourteen hostile families plus three of the
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
@pytest.mark.slow
class TestGeneratedWeek:
    def test_every_page(self, week_of_pages):  # noqa: F811 - the fixture
        assert len(week_of_pages) > 500
        decided = sum(assert_same_normal_form(document)
                      for document in week_of_pages)
        # Only scripts with a ``/`` outside their literals are declined.
        assert decided > 0.8 * len(week_of_pages)

    def test_five_random_truncations_per_page(self,
                                              week_of_pages):  # noqa: F811
        rng = random.Random(WEEK_SEED)
        for document in week_of_pages:
            for _ in range(5):
                assert_same_normal_form(
                    document[:rng.randrange(len(document) + 1)])

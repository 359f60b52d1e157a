"""Differential tests: the one-pass ``fast_normalize`` against the loop it replaced.

``tests/oracle_fast_normalize.py`` is the ``finditer`` loop that was
``repro.scanner.normalizer.fast_normalize`` until the ``re.split`` form took
its place; it is the reference here, and the two must agree character for
character on every input -- the scanner's verdicts, the verdict memo and every
``output_digest`` of ``bench/`` hang on the normal form.
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
from repro.scanner.normalizer import fast_normalize

SETTINGS = settings(max_examples=1000, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_same_normal_form(content):
    assert fast_normalize(content) == \
        oracle_fast_normalize.fast_normalize(content), repr(content[:120])


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
    # unterminated openers: the quote stays, the search resumes after it
    '"abc', "'abc def", "`abc def", '"abc \'d e\' f', "'abc \"d e\" f",
    '"a b\n"c d"', "'a b\n'c d'", '"a `b c` d', "x ` \"a b\" ", '" \' ` a b',
    # single-line quotes, multi-line backticks; only \n ends a quote's line
    '"a\nb"', "'a\nb'", '"a\rb c"', '"a\u2028b c"', "`a\nb  c\n` d e",
    "`a \\` b` c d", "`${ a + \" b \" }` c", "`a` `b\n`\n`c",
    # whitespace: six characters outside literals, nothing inside
    " \t\n\r\f\v", "a \u00a0 b", "a\ufeff b", "\x00 \x00", ' " \t\n" ',
    " ' \t\r\f\v ' ", "a  b   c", "\n\n\"\n\n\"\n\n", "",
    # the quadratic shape (see the fast_normalize docstring), at sizes that
    # cost nothing: escaped quotes outside a literal, each retried as an
    # opener
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
#: Lexer families that are quadratic here -- at the parent commit as well as
#: now -- and therefore pinned at a small size in ``RULES`` instead.
QUADRATIC = ("escaped quotes", "templates")
FAMILIES = {name: family for name, family in LexerNoHang.FAMILIES.items()
            if name not in QUADRATIC}
FAMILIES.update({
    "lone quotes per line": lambda n: "'\n" * (n // 2),
    "backslash runs": lambda n: "\\" * n,
    "whitespace runs": lambda n: " \t\n\r\f\v" * (n // 6),
})


class TestNoHang:
    """The lexer's fourteen hostile families, minus the two quadratic ones,
    plus three of the normalizer's own, at the lexer's size.  Each takes
    milliseconds, so the ceiling only ever fires on super-linear behaviour."""

    def test_the_excluded_families_exist(self):
        # A renamed lexer family must not slip in at this size unnoticed.
        assert set(QUADRATIC) < set(LexerNoHang.FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_normalizes_under_the_ceiling(self, family):
        content = FAMILIES[family](LexerNoHang.SIZE)
        started = time.perf_counter()
        normal_form = fast_normalize(content)
        assert time.perf_counter() - started < LexerNoHang.CEILING_SECONDS
        assert normal_form == oracle_fast_normalize.fast_normalize(content)


# ----------------------------------------------------------------------
# one seeded week of generated telemetry
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestGeneratedWeek:
    def test_every_page(self, week_of_pages):  # noqa: F811 - the fixture
        assert len(week_of_pages) > 500
        for document in week_of_pages:
            assert_same_normal_form(document)

    def test_five_random_truncations_per_page(self,
                                              week_of_pages):  # noqa: F811
        rng = random.Random(WEEK_SEED)
        for document in week_of_pages:
            for _ in range(5):
                assert_same_normal_form(
                    document[:rng.randrange(len(document) + 1)])

"""Differential tests: the scan normal form against the lexer's.

There is one normal form: the lexer's tokens with comments dropped, joined
without whitespace, string and template quotes removed --
``normalize_tokens(tokenize_sample(x))``.  ``normalize_for_scan`` derives it
through C-level paths (``fast_normalize``, then the regex splice) wherever
those provably give it, and runs the lexer elsewhere.  Here the two are held
equal on every input of the split's and the lexer's differential suites, and
on copies of them with comments inserted, which always reach the lexer.
The generated week guards against a vacuous pass: no kit page takes the
lexer.  ``blank_comments``, what the unpackers read, is held to the lexer the
same way.
"""

from __future__ import annotations

import datetime
import random
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_failure_injection as failure_injection
import test_fast_normalize_differential as split_differential
import test_lexer_differential as lexer_differential
import repro.scanner.normalizer as scanner_normalizer
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.jstoken import TokenClass, tokenize
from repro.jstoken.normalizer import tokenize_sample
from repro.scanner.normalizer import (blank_comments, normalize_for_scan,
                                      normalize_tokens)

SETTINGS = settings(max_examples=1000, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

_SCRIPT_RE = re.compile(r"(<script\b[^>]*>)(.*?)(</script\s*>)",
                        re.IGNORECASE | re.DOTALL)


def commented(content):
    """``/*x*/`` after every ``;\\n`` and a ``//x`` line on top of each
    inline script, or of the whole text when it has none."""
    def comment(script):
        return "//x\n" + script.replace(";\n", ";\n/*x*/")

    pages, count = _SCRIPT_RE.subn(
        lambda script: script.group(1) + comment(script.group(2))
        + script.group(3), content)
    return pages if count else comment(content)


def assert_lexer_form(content):
    expected = normalize_tokens(tokenize_sample(content))
    assert normalize_for_scan(content) == expected, repr(content[:120])


def assert_lexer_form_with_comments(content):
    assert_lexer_form(content)
    assert_lexer_form(commented(content))


def lexer_blanked(source):
    """Every comment token replaced by one space, lexing unconditionally."""
    parts, position = [], 0
    for cls, value, start, _ in tokenize(source, keep_comments=True):
        if cls is TokenClass.COMMENT:
            parts += [source[position:start], " "]
            position = start + len(value)
    return "".join(parts) + source[position:]


def test_comments_reach_the_lexer():
    page = "<script>var a = 1;\nb(a);\n</script>"
    assert commented(page) == \
        "<script>//x\nvar a = 1;\n/*x*/b(a);\n/*x*/</script>"
    assert normalize_for_scan(commented(page)) == normalize_for_scan(page)


# ----------------------------------------------------------------------
# hypothesis: both suites' alphabets, arbitrary text and HTML
# ----------------------------------------------------------------------
class TestGeneratedStrings:
    @SETTINGS
    @given(split_differential.literal_shaped)
    def test_literal_shaped_strings(self, content):
        assert_lexer_form_with_comments(content)

    @SETTINGS
    @given(lexer_differential.js_shaped)
    def test_js_shaped_strings(self, content):
        assert_lexer_form_with_comments(content)

    @SETTINGS
    @given(st.text(max_size=60))
    def test_arbitrary_unicode(self, content):
        assert_lexer_form_with_comments(content)

    @SETTINGS
    @given(st.one_of(split_differential.literal_shaped,
                     lexer_differential.js_shaped, st.text(max_size=60)))
    def test_blank_comments_lexes_only_what_the_split_declines(self, source):
        # What the unpackers read: the gate in front of the lexer must never
        # let a comment through.
        for text in (source, commented(source)):
            assert blank_comments(text) == lexer_blanked(text), repr(text)

    @SETTINGS
    @given(st.lists(st.one_of(
        st.sampled_from(lexer_differential.HTML_FRAGMENTS),
        lexer_differential.js_shaped), max_size=8).map("".join))
    def test_html_around_scripts(self, document):
        assert_lexer_form_with_comments(document)


# ----------------------------------------------------------------------
# every named rule and hostile fixture of both suites
# ----------------------------------------------------------------------
class TestNamedInputs:
    @pytest.mark.parametrize("content", split_differential.RULES)
    def test_split_rule(self, content):
        assert_lexer_form_with_comments(content)

    @pytest.mark.parametrize("content", lexer_differential.RULES)
    def test_lexer_rule(self, content):
        assert_lexer_form_with_comments(content)

    @pytest.mark.parametrize("content",
                             failure_injection.TestHostileInputs.HOSTILE)
    def test_hostile_input(self, content):
        assert_lexer_form_with_comments(content)

    @pytest.mark.parametrize("fraction", [0.9, 0.6, 0.5, 0.3, 0.1, 0.01])
    def test_truncated_kit_sample(self, kits, fraction):
        for name in sorted(kits):
            sample = kits[name].generate(failure_injection.D,
                                         random.Random(1)).content
            assert_lexer_form_with_comments(
                failure_injection.truncate(sample, fraction))


# ----------------------------------------------------------------------
# one seeded week of generated telemetry
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def labelled_week():
    generator = TelemetryGenerator(
        StreamConfig(seed=lexer_differential.WEEK_SEED))
    return [(sample.kit, sample.content)
            for offset in range(7)
            for sample in generator.generate_day(
                lexer_differential.WEEK_START
                + datetime.timedelta(days=offset)).samples]


@pytest.mark.slow
class TestGeneratedWeek:
    def test_every_page_and_its_commented_copy(self, labelled_week):
        assert len(labelled_week) > 500
        for _kit, page in labelled_week:
            assert_lexer_form_with_comments(page)

    def test_no_kit_page_takes_the_lexer(self, labelled_week):
        kit_pages = [page for kit, page in labelled_week if kit]
        assert len(kit_pages) > 200
        with mock.patch.object(
                scanner_normalizer, "tokenize_sample",
                wraps=scanner_normalizer.tokenize_sample) as lexer:
            for page in kit_pages:
                normalize_for_scan(page)
            assert lexer.call_count == 0
            for page in kit_pages:
                normalize_for_scan(commented(page))
            assert lexer.call_count == len(kit_pages)

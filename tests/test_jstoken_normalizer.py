"""Tests for HTML stripping and token abstraction."""

from __future__ import annotations

import time

import pytest

from repro.jstoken import (
    abstract_token_string,
    strip_html,
    tokenize_sample,
)
from repro.jstoken.tokens import TokenClass


class TestStripHtml:
    def test_plain_javascript_passthrough(self):
        source = "var a = 1;"
        assert strip_html(source) == source

    def test_single_inline_script(self):
        document = "<html><body><script>var a = 1;</script></body></html>"
        assert strip_html(document).strip() == "var a = 1;"

    def test_multiple_scripts_concatenated(self):
        document = ("<html><script>var a = 1;</script>"
                    "<p>text</p><script>var b = 2;</script></html>")
        extracted = strip_html(document)
        assert "var a = 1;" in extracted
        assert "var b = 2;" in extracted

    def test_script_with_attributes(self):
        document = '<script type="text/javascript">var x = 9;</script>'
        assert "var x = 9;" in strip_html(document)

    def test_external_script_without_body_skipped(self):
        document = '<html><script src="//cdn/x.js"></script></html>'
        assert strip_html(document) == ""

    def test_case_insensitive_tags(self):
        document = "<SCRIPT>var q = 1;</SCRIPT>"
        assert "var q = 1;" in strip_html(document)

    def test_html_without_scripts(self):
        document = "<html><body><p>no js</p>" + "<script></script></body></html>"
        assert strip_html(document).strip() == ""

    def test_markup_outside_scripts_excluded(self):
        document = ("<html><body><div id='x'>SHOULD-NOT-APPEAR</div>"
                    "<script>var a=1;</script></body></html>")
        assert "SHOULD-NOT-APPEAR" not in strip_html(document)

    @pytest.mark.parametrize("fragment, expected", [
        ("<script>", ""),                   # never closed
        ("<script ", ""),                   # tag never completed
        ("<script></script ", ""),         # closer never completed
        ("<script src=x></script >", ""),
        ("<script>a</script\n>", "\n".join("a" * 16000)),
    ])
    def test_repeated_fragments_do_not_hang(self, fragment, expected):
        """A hang tripwire: 16,000 unclosed openers took 11.6 s when one
        lazy regex rescanned to the end of input from each of them."""
        started = time.perf_counter()
        assert strip_html(fragment * 16000) == expected
        assert time.perf_counter() - started < 10.0


class TestAbstraction:
    def test_abstract_token_string_keeps_keywords_and_punctuation(self):
        tokens = abstract_token_string("var count = other + 1;")
        assert tokens == ("var", "Identifier", "=", "Identifier", "+",
                          "String", ";")

    def test_identifier_names_do_not_matter(self):
        a = abstract_token_string("var aaa = bbb(ccc);")
        b = abstract_token_string("var xyz1 = qq($w);")
        assert a == b

    def test_string_contents_do_not_matter(self):
        a = abstract_token_string('f("abc");')
        b = abstract_token_string('f("completely different and longer");')
        assert a == b

    def test_structural_difference_matters(self):
        a = abstract_token_string("f(x);")
        b = abstract_token_string("f(x, y);")
        assert a != b

    def test_numbers_collapse_to_string_class(self):
        tokens = abstract_token_string("f(42);")
        assert "String" in tokens
        assert tokenize_sample("f(42);")[2].cls is TokenClass.NUMBER
        # Regex literals and templates fold into ``String`` too.
        assert abstract_token_string("x = /re/; y = `t`;") == (
            "Identifier", "=", "String", ";", "Identifier", "=", "String", ";")

    def test_concrete_values_keep_quotes(self):
        values = [token.value for token in tokenize_sample('f("abc");')]
        assert '"abc"' in values

    def test_tokenize_sample_on_html(self):
        document = "<html><script>var a = 'z';</script></html>"
        tokens = tokenize_sample(document)
        assert [t.value for t in tokens] == ["var", "a", "=", "'z'", ";"]
        assert all(t.cls is not TokenClass.COMMENT for t in tokens)

    def test_abstraction_same_for_packed_variants(self, kits, rng, august_day):
        """Two samples of the same kit version abstract to the same string."""
        import random

        kit = kits["rig"]
        sample_a = kit.generate(august_day, random.Random(1))
        sample_b = kit.generate(august_day, random.Random(2))
        assert sample_a.content != sample_b.content
        assert abstract_token_string(sample_a.content) == \
            abstract_token_string(sample_b.content)

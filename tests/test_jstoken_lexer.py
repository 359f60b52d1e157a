"""Tests for the JavaScript lexer."""

from __future__ import annotations

import pickle
import time

import pytest

from repro.jstoken import LexerError, Token, TokenClass, tokenize


def classes(source, **kwargs):
    return [token.cls for token in tokenize(source, **kwargs)]


def values(source, **kwargs):
    return [token.value for token in tokenize(source, **kwargs)]


class TestBasicTokens:
    def test_keyword_identifier_punctuation(self):
        tokens = tokenize("var x = y;")
        assert [t.cls for t in tokens] == [
            TokenClass.KEYWORD, TokenClass.IDENTIFIER, TokenClass.PUNCTUATION,
            TokenClass.IDENTIFIER, TokenClass.PUNCTUATION]
        assert [t.value for t in tokens] == ["var", "x", "=", "y", ";"]

    def test_all_keywords_recognized(self):
        for keyword in ("function", "return", "typeof", "new", "this",
                        "true", "false", "null", "while", "for"):
            tokens = tokenize(keyword)
            assert tokens[0].cls is TokenClass.KEYWORD

    def test_identifier_with_dollar_and_underscore(self):
        tokens = tokenize("var $a_b9 = 1;")
        assert tokens[1].cls is TokenClass.IDENTIFIER
        assert tokens[1].value == "$a_b9"

    def test_empty_source(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("  \t\n\r  ") == []

    def test_positions_and_lines(self):
        tokens = tokenize("var a;\nvar b;")
        assert tokens[0].line == 1
        assert tokens[3].line == 2
        assert tokens[0].position == 0
        assert tokens[3].position == 7

    def test_paper_figure8_example(self):
        """The tokenization example of Figure 8."""
        source = 'var Euur1V = this["l9D"]("ev#333399al");'
        tokens = tokenize(source)
        expected = [
            (TokenClass.KEYWORD, "var"),
            (TokenClass.IDENTIFIER, "Euur1V"),
            (TokenClass.PUNCTUATION, "="),
            (TokenClass.KEYWORD, "this"),
            (TokenClass.PUNCTUATION, "["),
            (TokenClass.STRING, '"l9D"'),
            (TokenClass.PUNCTUATION, "]"),
            (TokenClass.PUNCTUATION, "("),
            (TokenClass.STRING, '"ev#333399al"'),
            (TokenClass.PUNCTUATION, ")"),
            (TokenClass.PUNCTUATION, ";"),
        ]
        assert [(t.cls, t.value) for t in tokens] == expected


class TestStrings:
    def test_double_quoted(self):
        tokens = tokenize('x = "hello world";')
        assert tokens[2].cls is TokenClass.STRING
        assert tokens[2].value == '"hello world"'

    def test_single_quoted(self):
        tokens = tokenize("x = 'abc';")
        assert tokens[2].cls is TokenClass.STRING
        assert tokens[2].value == "'abc'"

    def test_escaped_quotes_inside_string(self):
        tokens = tokenize(r'x = "a\"b";')
        assert tokens[2].value == r'"a\"b"'

    def test_backslash_escapes(self):
        tokens = tokenize(r'x = "line\nnext\\";')
        assert tokens[2].cls is TokenClass.STRING

    def test_unterminated_string_recovers_by_default(self):
        tokens = tokenize('x = "abc\nvar y = 1;')
        assert TokenClass.STRING in [t.cls for t in tokens]
        # the following line still tokenizes
        assert "y" in [t.value for t in tokens]

    def test_unterminated_string_strict_raises(self):
        with pytest.raises(LexerError):
            tokenize('x = "abc', strict=True)

    def test_template_literal(self):
        tokens = tokenize("x = `tpl ${y}`;")
        assert TokenClass.TEMPLATE in [t.cls for t in tokens]

    def test_empty_string(self):
        tokens = tokenize('x = "";')
        assert tokens[2].value == '""'


class TestNumbers:
    @pytest.mark.parametrize("literal", ["0", "42", "3.14", ".5", "1e10",
                                         "2.5e-3", "0x1F", "0b101", "0o17"])
    def test_number_literals(self, literal):
        tokens = tokenize(f"x = {literal};")
        assert tokens[2].cls is TokenClass.NUMBER
        assert tokens[2].value == literal

    def test_number_followed_by_dot_method(self):
        tokens = tokenize("x = 5 .toString();")
        assert tokens[2].cls is TokenClass.NUMBER


class TestComments:
    def test_line_comment_dropped_by_default(self):
        tokens = tokenize("var a; // comment here\nvar b;")
        assert all(t.cls is not TokenClass.COMMENT for t in tokens)
        assert "b" in [t.value for t in tokens]

    def test_block_comment_dropped(self):
        tokens = tokenize("var a; /* multi\nline */ var b;")
        assert all(t.cls is not TokenClass.COMMENT for t in tokens)

    def test_comments_kept_when_requested(self):
        tokens = tokenize("var a; // note", keep_comments=True)
        assert tokens[-1].cls is TokenClass.COMMENT

    def test_unterminated_block_comment_strict(self):
        with pytest.raises(LexerError):
            tokenize("/* never ends", strict=True, keep_comments=True)

    def test_unterminated_block_comment_lenient(self):
        tokens = tokenize("/* never ends", keep_comments=True)
        assert tokens[0].cls is TokenClass.COMMENT


class TestRegexLiterals:
    def test_regex_at_start(self):
        tokens = tokenize("/abc/.test(x)")
        assert tokens[0].cls is TokenClass.REGEX

    def test_regex_after_assignment(self):
        tokens = tokenize("var re = /a[0-9]+b/gi;")
        regexes = [t for t in tokens if t.cls is TokenClass.REGEX]
        assert len(regexes) == 1
        assert regexes[0].value == "/a[0-9]+b/gi"

    def test_division_not_regex(self):
        tokens = tokenize("x = a / b / c;")
        assert all(t.cls is not TokenClass.REGEX for t in tokens)

    def test_regex_with_slash_in_class(self):
        tokens = tokenize("var re = /a[/]b/;")
        regexes = [t for t in tokens if t.cls is TokenClass.REGEX]
        assert regexes and regexes[0].value == "/a[/]b/"

    def test_regex_after_return(self):
        tokens = tokenize("return /x/;")
        assert tokens[1].cls is TokenClass.REGEX

    def test_division_after_closing_paren(self):
        tokens = tokenize("(a + b) / 2")
        assert all(t.cls is not TokenClass.REGEX for t in tokens)


class TestPunctuators:
    @pytest.mark.parametrize("op", ["===", "!==", "<<=", ">>>", "&&", "||",
                                    "=>", "++", "--", "+=", "**"])
    def test_multichar_operators_single_token(self, op):
        tokens = tokenize(f"a {op} b")
        assert op in [t.value for t in tokens]

    def test_greedy_matching(self):
        tokens = tokenize("a===b")
        assert [t.value for t in tokens] == ["a", "===", "b"]

    def test_unknown_character_is_tolerated(self):
        tokens = tokenize("var a = 1; § var b = 2;")
        assert "b" in [t.value for t in tokens]


class TestRobustness:
    def test_obfuscated_kit_snippet(self):
        """The Nuclear-style obfuscated snippet from Figure 4(b) lexes."""
        source = '''
        getter = function(a){ return a; };
        thiscopy = this;
        doc = thiscopy[thiscopy["getter"]("document")]
        evl = thiscopy["getter"]("ev #333366 al")
        thiscopy[win["replace"](bgc ,"")][evl["replace"](bgc , "")](payload);
        '''
        tokens = tokenize(source)
        assert len(tokens) > 40
        strings = [t.value for t in tokens if t.cls is TokenClass.STRING]
        assert '"ev #333366 al"' in strings

    def test_very_long_string(self):
        long_literal = '"' + "a" * 100000 + '"'
        tokens = tokenize(f"var x = {long_literal};")
        assert tokens[3].cls is TokenClass.STRING
        assert len(tokens[3].value) == 100002

    def test_token_str_representation(self):
        token = Token(cls=TokenClass.IDENTIFIER, value="abc")
        assert "abc" in str(token)


class TestTokenContract:
    """What every layer above the lexer relies on from ``Token``."""

    def test_keyword_construction_and_defaults(self):
        token = Token(cls=TokenClass.STRING, value='"a"', position=4, line=2)
        assert (token.cls, token.value, token.position, token.line) == (
            TokenClass.STRING, '"a"', 4, 2)
        default = Token(cls=TokenClass.IDENTIFIER, value="x")
        assert (default.position, default.line) == (0, 1)

    def test_equality_and_hash_follow_the_fields(self):
        lexed = tokenize("var a;")[1]
        rebuilt = Token(cls=TokenClass.IDENTIFIER, value="a", position=4,
                        line=1)
        assert lexed == rebuilt
        assert hash(lexed) == hash(rebuilt)
        assert {lexed: "seen"}[rebuilt] == "seen"
        assert lexed != rebuilt._replace(position=5)

    def test_immutable(self):
        token = tokenize("x")[0]
        for name in ("cls", "value", "position", "line", "colour"):
            with pytest.raises(AttributeError):
                setattr(token, name, 1)

    def test_plain_pickle_round_trip(self):
        tokens = tokenize("var a = /re/g + `t` + 'it''s';  // c",
                          keep_comments=True)
        assert pickle.loads(pickle.dumps(tokens)) == tokens

    def test_tokens_never_travel_in_cluster_frames(self):
        from repro.exec import wire
        assert not [entry for entry in wire.ALLOWED_GLOBALS
                    if "jstoken" in entry[0]]


class TestNoHang:
    """A hang tripwire, not a performance gate: each hostile family takes a
    fraction of a second at this size, so the ceiling only ever fires on
    super-linear behaviour (the one known case, ``"/[" * n + "\\n"``, is in
    the lexer's docstring and is not listed here)."""

    SIZE = 400_000
    CEILING_SECONDS = 30.0
    FAMILIES = {
        "escapes": lambda n: '"' + "\\a" * (n // 2),
        "escaped quotes": lambda n: "'" + "\\'" * (n // 2),
        "quotes": lambda n: '"' * n,
        "alternating quotes": lambda n: "'\"`" * (n // 3),
        "parentheses": lambda n: "(" * n,
        "unterminated comment": lambda n: "/*" + "x*" * (n // 2),
        "comment openers": lambda n: "/*" * (n // 2),
        "regex classes": lambda n: "x=/" + "[a]" * (n // 3),
        "regex escapes": lambda n: "x=/" + "\\/" * (n // 2),
        "templates": lambda n: "`" + "\\`${" * (n // 4),
        "dots": lambda n: "." * n,
        "NULs": lambda n: "\x00" * n,
        "unterminated strings": lambda n: '"abc\n' * (n // 5),
        "trailing blanks": lambda n: "a" + " \u00a0" * (n // 2),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_lexes_under_the_ceiling(self, family):
        source = self.FAMILIES[family](self.SIZE)
        started = time.perf_counter()
        tokens = tokenize(source)
        assert time.perf_counter() - started < self.CEILING_SECONDS
        assert sum(len(token.value) for token in tokens) <= len(source)

"""The character-by-character JavaScript lexer, kept as the test oracle.

This file was ``repro.jstoken.lexer`` until the one-regex-pass scanner
replaced it; it is unchanged below and is what
``tests/test_lexer_differential.py`` compares that scanner with, token for
token.  One thing moved in: :func:`is_significant` was a ``Token`` method.
Nothing under ``src/`` imports it.

The original module docstring follows.

A from-scratch JavaScript lexer.

The lexer is intentionally tolerant: exploit-kit samples are frequently
mangled, truncated by telemetry capture, or contain syntax that is only valid
inside an ``eval`` context.  Kizzle only needs a *consistent* tokenization,
not a validating parser, so unknown characters are skipped (optionally
recorded) rather than aborting the sample.

The tricky part of lexing JavaScript without a parser is deciding whether a
``/`` starts a regular-expression literal or is a division operator.  We use
the standard heuristic: a regex literal can only appear where an expression is
expected, i.e. after an operator, an opening bracket, a keyword such as
``return`` or ``typeof``, or at the start of the input.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.jstoken.tokens import KEYWORDS, PUNCTUATORS, Token, TokenClass


class LexerError(Exception):
    """Raised when the lexer encounters an unrecoverable situation.

    In practice only unterminated string/regex/comment constructs at end of
    input raise in strict mode; the default mode recovers.
    """

    def __init__(self, message: str, position: int, line: int) -> None:
        super().__init__(f"{message} at position {position} (line {line})")
        self.position = position
        self.line = line


_ID_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_ID_CONT = _ID_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = _DIGITS | frozenset("abcdefABCDEF")
_WHITESPACE = frozenset(" \t\v\f ﻿")
_LINE_TERMINATORS = frozenset("\n\r  ")

#: Keywords after which a ``/`` must start a regex literal, not division.
_REGEX_PRECEDING_KEYWORDS = frozenset(
    {
        "return", "typeof", "instanceof", "in", "of", "new", "delete",
        "void", "throw", "case", "do", "else", "yield",
    }
)


def is_significant(token: Token) -> bool:
    """Whether the token participates in clustering (comments do not)."""
    return token.cls is not TokenClass.COMMENT


class Lexer:
    """Streaming JavaScript lexer.

    Parameters
    ----------
    source:
        The JavaScript source text.
    keep_comments:
        When true, comment tokens are emitted; otherwise they are dropped
        (the default, matching Kizzle's abstraction which ignores comments).
    strict:
        When true, unterminated constructs raise :class:`LexerError`.  The
        default (false) closes them at end of input, which is the right
        behaviour for truncated telemetry captures.
    """

    def __init__(self, source: str, keep_comments: bool = False,
                 strict: bool = False) -> None:
        self.source = source
        self.keep_comments = keep_comments
        self.strict = strict
        self._pos = 0
        self._line = 1
        self._length = len(source)
        self._last_significant: Optional[Token] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def tokens(self) -> Iterator[Token]:
        """Yield tokens until the end of input."""
        while True:
            token = self._next_token()
            if token is None:
                return
            if token.cls is TokenClass.COMMENT and not self.keep_comments:
                continue
            yield token

    # ------------------------------------------------------------------
    # scanning helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= self._length:
            return ""
        return self.source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos < self._length and self.source[self._pos] == "\n":
                self._line += 1
            self._pos += 1

    def _make(self, cls: TokenClass, start: int, start_line: int) -> Token:
        token = Token(cls=cls, value=self.source[start:self._pos],
                      position=start, line=start_line)
        if is_significant(token):
            self._last_significant = token
        return token

    # ------------------------------------------------------------------
    # token scanners
    # ------------------------------------------------------------------
    def _next_token(self) -> Optional[Token]:
        self._skip_whitespace()
        if self._pos >= self._length:
            return None

        char = self._peek()
        start = self._pos
        start_line = self._line

        if char == "/" and self._peek(1) == "/":
            return self._scan_line_comment(start, start_line)
        if char == "/" and self._peek(1) == "*":
            return self._scan_block_comment(start, start_line)
        if char in ("'", '"'):
            return self._scan_string(char, start, start_line)
        if char == "`":
            return self._scan_template(start, start_line)
        if char in _DIGITS or (char == "." and self._peek(1) in _DIGITS):
            return self._scan_number(start, start_line)
        if char in _ID_START or ord(char) > 127:
            return self._scan_identifier(start, start_line)
        if char == "/" and self._regex_allowed():
            return self._scan_regex(start, start_line)
        return self._scan_punctuator(start, start_line)

    def _skip_whitespace(self) -> None:
        while self._pos < self._length:
            char = self.source[self._pos]
            if char in _WHITESPACE or char in _LINE_TERMINATORS:
                self._advance()
            else:
                return

    def _scan_line_comment(self, start: int, start_line: int) -> Token:
        while self._pos < self._length and self._peek() not in _LINE_TERMINATORS:
            self._advance()
        return self._make(TokenClass.COMMENT, start, start_line)

    def _scan_block_comment(self, start: int, start_line: int) -> Token:
        self._advance(2)
        while self._pos < self._length:
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance(2)
                return self._make(TokenClass.COMMENT, start, start_line)
            self._advance()
        if self.strict:
            raise LexerError("unterminated block comment", start, start_line)
        return self._make(TokenClass.COMMENT, start, start_line)

    def _scan_string(self, quote: str, start: int, start_line: int) -> Token:
        self._advance()  # opening quote
        while self._pos < self._length:
            char = self._peek()
            if char == "\\":
                self._advance(2)
                continue
            if char == quote:
                self._advance()
                return self._make(TokenClass.STRING, start, start_line)
            if char in _LINE_TERMINATORS:
                # Unterminated string on this line; malware frequently does
                # this inside document.write chunks.  Close it here.
                if self.strict:
                    raise LexerError("unterminated string literal",
                                     start, start_line)
                return self._make(TokenClass.STRING, start, start_line)
            self._advance()
        if self.strict:
            raise LexerError("unterminated string literal", start, start_line)
        return self._make(TokenClass.STRING, start, start_line)

    def _scan_template(self, start: int, start_line: int) -> Token:
        self._advance()  # backtick
        while self._pos < self._length:
            char = self._peek()
            if char == "\\":
                self._advance(2)
                continue
            if char == "`":
                self._advance()
                return self._make(TokenClass.TEMPLATE, start, start_line)
            self._advance()
        if self.strict:
            raise LexerError("unterminated template literal", start, start_line)
        return self._make(TokenClass.TEMPLATE, start, start_line)

    def _scan_number(self, start: int, start_line: int) -> Token:
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self._peek() in _HEX_DIGITS:
                self._advance()
            return self._make(TokenClass.NUMBER, start, start_line)
        if self._peek() == "0" and self._peek(1) in ("b", "B", "o", "O"):
            self._advance(2)
            while self._peek() in _DIGITS:
                self._advance()
            return self._make(TokenClass.NUMBER, start, start_line)
        while self._peek() in _DIGITS:
            self._advance()
        if self._peek() == ".":
            self._advance()
            while self._peek() in _DIGITS:
                self._advance()
        if self._peek() in ("e", "E"):
            lookahead = 1
            if self._peek(1) in ("+", "-"):
                lookahead = 2
            if self._peek(lookahead) in _DIGITS:
                self._advance(lookahead)
                while self._peek() in _DIGITS:
                    self._advance()
        return self._make(TokenClass.NUMBER, start, start_line)

    def _scan_identifier(self, start: int, start_line: int) -> Token:
        while self._pos < self._length:
            char = self._peek()
            if char in _ID_CONT or ord(char) > 127:
                self._advance()
            else:
                break
        value = self.source[start:self._pos]
        cls = TokenClass.KEYWORD if value in KEYWORDS else TokenClass.IDENTIFIER
        return self._make(cls, start, start_line)

    def _scan_regex(self, start: int, start_line: int) -> Token:
        self._advance()  # leading slash
        in_class = False
        while self._pos < self._length:
            char = self._peek()
            if char == "\\":
                self._advance(2)
                continue
            if char == "[":
                in_class = True
            elif char == "]":
                in_class = False
            elif char == "/" and not in_class:
                self._advance()
                # regex flags
                while self._peek() in _ID_CONT:
                    self._advance()
                return self._make(TokenClass.REGEX, start, start_line)
            elif char in _LINE_TERMINATORS:
                # Not a regex after all (e.g. stray division); bail out as a
                # punctuator to stay robust.
                self._pos = start
                self._line = start_line
                return self._scan_punctuator(start, start_line)
            self._advance()
        if self.strict:
            raise LexerError("unterminated regex literal", start, start_line)
        return self._make(TokenClass.REGEX, start, start_line)

    def _scan_punctuator(self, start: int, start_line: int) -> Token:
        for punctuator in PUNCTUATORS:
            if self.source.startswith(punctuator, self._pos):
                self._advance(len(punctuator))
                return self._make(TokenClass.PUNCTUATION, start, start_line)
        # Unknown character (stray unicode, HTML fragment...).  Emit it as a
        # one-character punctuation token so the stream stays aligned.
        self._advance()
        return self._make(TokenClass.PUNCTUATION, start, start_line)

    # ------------------------------------------------------------------
    # regex / division disambiguation
    # ------------------------------------------------------------------
    def _regex_allowed(self) -> bool:
        last = self._last_significant
        if last is None:
            return True
        if last.cls is TokenClass.PUNCTUATION:
            return last.value not in (")", "]", "}", "++", "--")
        if last.cls is TokenClass.KEYWORD:
            return last.value in _REGEX_PRECEDING_KEYWORDS
        return False


def tokenize(source: str, keep_comments: bool = False,
             strict: bool = False) -> List[Token]:
    """Tokenize a JavaScript source string into a list of tokens.

    This is the convenience entry point used throughout the library.
    """
    return list(Lexer(source, keep_comments=keep_comments,
                      strict=strict).tokens())

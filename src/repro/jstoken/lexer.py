"""A table-driven JavaScript scanner: one compiled alternation per token.

Every token is one ``pattern.match(source, pos)`` of :data:`_MASTER` -- leading
whitespace plus one named alternative per token shape -- dispatched on
``lastgroup``.  The only token a single pattern cannot decide is ``/``: whether
it starts a regular-expression literal or is a division operator depends on
the previous significant token (comments never count).  We use the standard
heuristic: a regex literal can only appear where an expression is expected,
i.e. at the start of the input, after a punctuator other than ``)`` ``]``
``}`` ``++`` ``--``, or after a keyword such as ``return`` or ``typeof``
(:data:`_REGEX_PRECEDING_KEYWORDS`).  Where one is allowed, the body is
matched by the second pattern, :data:`_REGEX_BODY`; ``//`` and ``/*`` win
over a regex literal everywhere.

The scanner is intentionally tolerant: exploit-kit samples are frequently
mangled, truncated by telemetry capture, or contain syntax that is only valid
inside an ``eval`` context.  Kizzle only needs a *consistent* tokenization,
not a validating parser, so nothing aborts a sample outside strict mode:

* whitespace is exactly the eight characters of :data:`_WS` (not ``\\s``);
  only ``"\\n"`` advances ``Token.line``;
* a quoted string with no closing quote ends *before* the line terminator;
  templates, block comments and regex literals end at end of input;
* a backslash consumes the next character whatever it is -- a line
  terminator or end of input included -- in strings, templates and regexes;
* a regex body that meets a line terminator outside an escape was not a
  regex after all and is re-read as the punctuator ``/=`` or ``/``;
* any code point above 127 continues an identifier, and starts one unless
  it is whitespace; digits are ``[0-9]``; ``0x`` / ``0b`` need no digits;
* any other character is a one-character punctuation token, so the stream
  stays aligned with the source.

Both patterns succeed on the first greedy attempt (every closer is optional),
so nothing backtracks and scanning is linear in the input -- with one known
exception inherited from the regex bail-out rule: in ``"/[" * n + "\\n"``
every ``/`` is where a regex may start and each body runs to the line
terminator before bailing, so that input costs O(n^2).  Token identity with
the previous lexer forbids changing the rule here; ROADMAP item 5(c) tracks
it.  ``tests/oracle_lexer.py`` is the character-by-character lexer this
module replaced, kept as the differential oracle.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.jstoken.tokens import KEYWORDS, PUNCTUATORS, Token, TokenClass


class LexerError(Exception):
    """Raised when the lexer encounters an unrecoverable situation.

    In practice only unterminated string/regex/comment constructs raise, and
    only in strict mode; the default mode recovers.
    """

    def __init__(self, message: str, position: int, line: int) -> None:
        super().__init__(f"{message} at position {position} (line {line})")
        self.position = position
        self.line = line


#: Keywords after which a ``/`` must start a regex literal, not division.
_REGEX_PRECEDING_KEYWORDS = frozenset(
    {
        "return", "typeof", "instanceof", "in", "of", "new", "delete",
        "void", "throw", "case", "do", "else", "yield",
    }
)
#: Punctuators that end an expression, so a following ``/`` divides.
_DIVISION_PRECEDING_PUNCTUATORS = frozenset({")", "]", "}", "++", "--"})

_LT = "\\n\\r\\u2028\\u2029"                        # line terminators
_WS = " \\t\\v\\f\\u00a0\\ufeff" + _LT               # ... plus the blanks
_ID = "A-Za-z0-9_$\\u0080-\\U0010ffff"
#: ``_ID`` minus the digits and minus the four non-ASCII members of ``_WS``,
#: which continue an identifier but start none.
_ID_START = ("A-Za-z_$\\u0080-\\u009f\\u00a1-\\u2027\\u202a-\\ufefe"
             "\\uff00-\\U0010ffff")
_LONG_PUNCTUATORS = [p for p in PUNCTUATORS if len(p) > 1]
_LONG_STARTS = re.escape("".join(sorted({p[0] for p in _LONG_PUNCTUATORS})))


def _quoted(quote: str, stop: str, closed: str) -> str:
    """``quote``, a body of escapes and characters outside ``stop``, and the
    closing quote -- captured as group ``closed`` -- when it is there."""
    plain = f"[^{quote}\\\\{stop}]*"
    return f"{quote}{plain}(?:\\\\.?{plain})*(?P<{closed}>{quote})?"


#: Token shapes in match order: group name, token class, pattern.
_SHAPES = (
    ("word", None, f"[{_ID_START}][{_ID}]*"),
    # A character that can start nothing longer is a token on its own.
    ("single", TokenClass.PUNCTUATION, f"[^{_WS}{_ID}'\"`/{_LONG_STARTS}]"),
    ("number", TokenClass.NUMBER,
     "0[xX][0-9a-fA-F]*|0[bBoO][0-9]*"
     "|(?:[0-9]+\\.?[0-9]*|\\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
    ("string", TokenClass.STRING,
     _quoted("'", _LT, "sq") + "|" + _quoted('"', _LT, "dq")),
    ("template", TokenClass.TEMPLATE, _quoted("`", "", "bq")),
    ("line_comment", TokenClass.COMMENT, f"//[^{_LT}]*"),
    ("block_comment", TokenClass.COMMENT,
     "/\\*.*?(?:(?P<star_slash>\\*/)|\\Z)"),
    ("slash", TokenClass.PUNCTUATION, "/=?"),
    ("punctuator", TokenClass.PUNCTUATION,
     "|".join(map(re.escape, _LONG_PUNCTUATORS)) + f"|[^{_WS}]"),
)
_MASTER = re.compile(
    f"[{_WS}]*(?:"
    + "|".join(f"(?P<{name}>{shape})" for name, _, shape in _SHAPES) + ")",
    re.DOTALL).match
_CLASS_OF = {name: cls for name, cls, _ in _SHAPES}

#: What follows the opening ``/`` of a regex literal: body characters, escapes
#: and ``[...]`` classes (where ``/`` does not close), then ``/flags`` as
#: group 1 when present.  Without it the body stopped at a line terminator
#: (not a regex after all) or at end of input (a truncated one).
_REGEX_BODY = re.compile(
    f"[^\\\\/\\[{_LT}]*"
    f"(?:(?:\\\\.?|\\[[^\\\\\\]{_LT}]*(?:\\\\.?[^\\\\\\]{_LT}]*)*\\]?)"
    f"[^\\\\/\\[{_LT}]*)*"
    "(/[A-Za-z0-9_$]*)?", re.DOTALL).match

#: Strict mode: the group that proves a construct was closed, and what to
#: call the construct when that group did not take part in the match.
_CLOSERS = {
    "string": (("sq", "dq"), "string literal"),
    "template": (("bq",), "template literal"),
    "block_comment": (("star_slash",), "block comment"),
}


def _regex_allowed(last: Optional[Token]) -> bool:
    """Whether a ``/`` after the significant token ``last`` starts a regex."""
    if last is None:
        return True
    if last.cls is TokenClass.PUNCTUATION:
        return last.value not in _DIVISION_PRECEDING_PUNCTUATORS
    if last.cls is TokenClass.KEYWORD:
        return last.value in _REGEX_PRECEDING_KEYWORDS
    return False


def tokenize(source: str, keep_comments: bool = False,
             strict: bool = False, limit: Optional[int] = None) -> List[Token]:
    """Tokenize a JavaScript source string into a list of tokens.

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
    limit:
        Stop after this many emitted tokens: the result is exactly the first
        ``limit`` tokens of the unbounded run in the same mode, and nothing
        past them is read (nor, in strict mode, raised for).
    """
    keyword, identifier = TokenClass.KEYWORD, TokenClass.IDENTIFIER
    comment = TokenClass.COMMENT
    new = tuple.__new__          # what Token(...) does, minus a Python frame
    count_newlines = source.count
    tokens: List[Token] = []
    emit = tokens.append
    last: Optional[Token] = None  # last significant token
    pos = counted = 0
    line = 1
    scan = _MASTER
    if limit is not None:
        def scan(source, pos):    # an unbounded run pays nothing for the bound
            return _MASTER(source, pos) if len(tokens) < limit else None
    while True:
        match = scan(source, pos)
        if match is None:         # only whitespace is left, or enough tokens
            return tokens
        kind = match.lastgroup
        value = match.group(kind)
        pos = match.end()
        start = pos - len(value)
        line += count_newlines("\n", counted, start)
        counted = start
        if kind == "word":
            cls = keyword if value in KEYWORDS else identifier
        else:
            cls = _CLASS_OF[kind]
            if kind == "slash" and _regex_allowed(last):
                body = _REGEX_BODY(source, start + 1)
                closed = body.lastindex is not None
                if closed or body.end() == len(source):
                    if strict and not closed:
                        raise LexerError("unterminated regex literal",
                                         start, line)
                    cls = TokenClass.REGEX
                    pos = body.end()
                    value = source[start:pos]
            elif strict and kind in _CLOSERS:
                closers, construct = _CLOSERS[kind]
                if not any(match.group(closer) for closer in closers):
                    raise LexerError(f"unterminated {construct}", start, line)
            if cls is comment:
                if keep_comments:
                    emit(new(Token, (cls, value, start, line)))
                continue
        last = new(Token, (cls, value, start, line))
        emit(last)


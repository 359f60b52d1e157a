"""AV-scanner text normalization.

Anti-virus engines normalize scanned content before signature matching: the
paper notes that quotation marks are removed automatically, and the example
signatures of Figure 10 clearly match against whitespace-free text
(``varaa=xx\\.join`` / ``returnaa``).  Kizzle signatures are generated against
the same normal form, so both sides of the comparison use this module.  There
is one normal form, the lexer's:

* inline-script extraction from HTML,
* comment removal,
* whitespace removal between tokens,
* string-literal quote removal.

:func:`normalize_for_scan` derives it without the lexer wherever a C-level
``re.split`` pass provably gives the lexer's output (:func:`fast_normalize`,
then :func:`_splice_regexes` on scripts with a ``/`` outside their
literals), and runs the lexer only where neither can decide: comments,
unterminated quotes, a quote whose body holds a line terminator other than
``\\n``, and the blanks U+00A0 / U+FEFF / U+2028 / U+2029.
``tests/test_scan_normal_form.py`` holds the two paths equal on every input.

Ahead of that split, :func:`fast_normalize` has a bulk form for scripts
whose only literals are double-quoted, single-line and escape-free (every
Angler and RIG page, most Nuclear pages): ``str.split('"')`` finds the
literals, one ``str.translate`` deletes the blanks outside them, and no
``sre`` match runs per literal or per whitespace run (40 -> 140 MB/s on a
traced ``month_replay``, 2-core host).
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.jstoken.lexer import (
    _DIVISION_PRECEDING_PUNCTUATORS,
    _REGEX_BODY,
    _REGEX_PRECEDING_KEYWORDS,
    tokenize,
)
from repro.jstoken.normalizer import strip_html, tokenize_sample
from repro.jstoken.tokens import KEYWORDS, TokenClass


def normalize_tokens(tokens) -> str:
    """The scanner normal form of an already-tokenized sample: the concrete
    token texts concatenated, string and template quotes removed."""
    string, template = TokenClass.STRING, TokenClass.TEMPLATE
    parts = []
    for cls, value, _, _ in tokens:
        if cls is string:
            if len(value) >= 2 and value[0] in "'\"" \
                    and value[-1] == value[0]:
                value = value[1:-1]
        elif cls is template and len(value) >= 2 \
                and value[0] == "`" and value[-1] == "`":
            value = value[1:-1]
        parts.append(value)
    return "".join(parts)


def normalize_for_scan(content: str) -> str:
    """Normalize a raw sample for signature matching.

    The sample's inline scripts are tokenized (dropping comments) and the
    concrete token texts are concatenated without separators, with the quotes
    of string/template literals removed.  The lexer runs only where the
    C-level paths cannot decide (see the module docstring).
    """
    scripts = strip_html(content)
    normal_form = fast_normalize(scripts)
    if normal_form is None:
        normal_form = _splice_regexes(scripts)
        if normal_form is None:
            return normalize_tokens(tokenize_sample(content))
    return normal_form


#: Literal bodies as the lexer reads them: a quote's body stops at a line
#: terminator (U+2028 and U+2029 are refused before the split, which keeps
#: every class here Latin-1 and so a bitmap), a backtick's does not, and a
#: backslash takes the next character whatever it is.  Each body is
#: *unrolled* -- ``[^"\\\n\r]*(?:\\.[^"\\\n\r]*)*`` instead of
#: ``(?:[^"\\\n\r]|\\.)*`` -- so it is consumed in a few C-level runs.
_BODIES = {quote: f"[^{quote}\\\\{stop}]*(?:\\\\.[^{quote}\\\\{stop}]*)*"
           for quote, stop in (('"', "\\n\\r"), ("'", "\\n\\r"), ("`", ""))}
_BLANKS = " \t\n\r\f\v"
#: Characters outside literals that the split cannot decide on: the start of
#: a comment or regex literal, a kept blank, and (after its terminated
#: alternative failed) an unterminated quote.
_SPECIALS = ("/", "\\xa0", '"', "'", "`")

#: Every alternative starts with one literal character, so ``sre`` skips
#: to the next candidate position through a character-set prefix.  A
#: terminated literal leaves its interior as the group of its kind; a
#: whitespace run leaves nothing; a special swallows the rest of the input,
#: uncaptured, so the sentinel :func:`fast_normalize` appends is gone exactly
#: when one occurred -- and an unterminated quote is paid for once.
_SPLIT_RE = re.compile("|".join(
    [f"{quote}({body}){quote}" for quote, body in _BODIES.items()]
    + [f"{re.escape(blank)}[{re.escape(_BLANKS)}]*" for blank in _BLANKS]
    + [f"{special}.*" for special in _SPECIALS]), re.DOTALL)
#: Starts no alternative and closes no literal, so only a special's ``.*``
#: can consume it.
_SENTINEL = ";"
#: Deletes the six blanks, as the split does outside literals.
_DELETE_BLANKS = str.maketrans("", "", _BLANKS)


def _refused(scripts: str) -> bool:
    """Whether ``scripts`` holds U+2028, U+2029 or U+FEFF, which the split
    does not model (free for Latin-1 text: ``in`` compares string kinds
    first)."""
    return "\u2028" in scripts or "\u2029" in scripts or "\ufeff" in scripts


def fast_normalize(scripts: str) -> Optional[str]:
    """The normal form of ``scripts`` (inline-script text, as
    :func:`~repro.jstoken.normalizer.strip_html` returns it) in one C-level
    ``re.split`` pass, or ``None`` where the split alone cannot decide.

    The text is split on string/template literals and on whitespace runs
    *outside* literals.  A literal leaves its interior behind verbatim --
    the lexer keeps string bodies intact too -- and a whitespace run leaves
    nothing; ``filter`` drops the ``None`` / empty groups and ``join``
    concatenates the rest, so no Python-level code runs per literal.  That is
    the lexer's normal form whenever no token other than a literal holds a
    quote, a blank or a ``/``, which the split checks on the way: a ``/``
    outside literals (a comment, a regex literal, or division), an
    unterminated quote, U+00A0 outside literals or U+FEFF / U+2028 / U+2029
    anywhere returns ``None``.

    Cost is linear.  Each literal body's classes exclude its escape
    character, so a terminated attempt that fails has scanned its line (or,
    for a backtick, the input) once; the special that then takes the quote
    swallows the rest, so no second attempt follows.  (The pre-split loop
    kept in ``tests/oracle_fast_normalize.py`` retried every later quote and
    was quadratic on ``'\\\\"' * n``.)  Where this returns a string it equals
    that loop's output.

    The bulk form comes first and takes scripts with no ``\\``, an even
    number of ``"``, no ``\\n`` / ``\\r`` between a ``"`` and the next, and
    none of ``'``, a backtick, ``/`` or U+00A0 outside those pairs.  Then the
    odd pieces of ``scripts.split('"')`` are exactly the literal interiors:
    with no backslash and no line terminator inside, ``"(body)"`` ends at
    the very next ``"``, as the split's body class does.  The even pieces
    hold no special the split declines on, so it would only delete their
    blanks -- which one ``str.translate`` over the pieces joined on ``"``
    does, and splitting that back on ``"`` restores the pieces.  Every
    other script takes the split unchanged.
    """
    if _refused(scripts):
        return None
    if "\\" not in scripts:
        parts = scripts.split('"')
        if len(parts) % 2:
            inside = '"'.join(parts[1::2])
            if "\n" not in inside and "\r" not in inside:
                outside = '"'.join(parts[0::2])
                if "'" not in outside and "`" not in outside \
                        and "/" not in outside and "\xa0" not in outside:
                    parts[0::2] = outside.translate(_DELETE_BLANKS).split('"')
                    return "".join(parts)
    pieces = _SPLIT_RE.split(scripts + _SENTINEL)
    tail = pieces[-1]
    if not tail:
        return None
    pieces[-1] = tail[:-1]
    return "".join(filter(None, pieces))


#: The run of text up to the next special outside literals.
_TO_SPECIAL = re.compile("(?:[^/\\xa0\"'`]+|{})*".format("|".join(
    f"{quote}{body}{quote}" for quote, body in _BODIES.items())),
    re.DOTALL).match
_IDENTIFIER = re.compile("[A-Za-z0-9_$\\u0080-\\U0010ffff]").match
#: The keywords after which a ``/`` starts a regex (``of`` lexes as an
#: identifier), longest first.
_KEYWORDS = sorted(_REGEX_PRECEDING_KEYWORDS & KEYWORDS, key=len,
                   reverse=True)
_EXPRESSION_ENDS = {punctuator[-1]
                    for punctuator in _DIVISION_PRECEDING_PUNCTUATORS}


def _regex_allowed_before(scripts: str, end: int, regex_end: int
                          ) -> Optional[bool]:
    """Whether a ``/`` whose previous significant token ends at ``end``
    starts a regex literal (the lexer's ``_regex_allowed``), read off the
    raw text; ``None`` where the text alone leaves the token ambiguous.

    ``regex_end`` is where the last spliced regex literal ended.  The
    caller has ruled out comments, so the token is a literal, a word, a
    number or a punctuator.
    """
    if end == 0:
        return True
    if end == regex_end:
        return False
    last = scripts[end - 1]
    if last in "\"'`":
        return False
    if last in _EXPRESSION_ENDS:
        if last in "+-":
            # A run of ``+`` lexes as ``++`` pairs plus, when odd, one ``+``.
            start = end - 1
            while start and scripts[start - 1] == last:
                start -= 1
            return (end - start) % 2 == 1
        return False
    if last == ".":
        # ``1.`` is a number, ``a.`` a punctuator.
        return None if end > 1 and scripts[end - 2] in "0123456789" \
            else True
    if _IDENTIFIER(last):
        for keyword in _KEYWORDS:
            if scripts.endswith(keyword, 0, end):
                start = end - len(keyword)
                if start and _IDENTIFIER(scripts[start - 1]):
                    return None          # ``xreturn``, or ``1return``
                return True
        return False
    return True


def _splice_regexes(scripts: str) -> Optional[str]:
    """The normal form of scripts with a ``/`` outside their literals, or
    ``None`` where it needs the lexer.

    Walks the specials outside literals in order: comments, unterminated
    quotes and kept blanks return ``None``; a ``/`` where the lexer's rule
    allows a regex is copied with its body verbatim (found by the lexer's
    own ``_REGEX_BODY``), any other ``/`` is a punctuator.  The text between
    specials is normalized by the split, as in :func:`fast_normalize`.
    """
    if _refused(scripts):
        return None
    parts: List[str] = []
    length = len(scripts)
    position = 0
    regex_end = -1
    while True:
        special = _TO_SPECIAL(scripts, position).end()
        parts.extend(filter(None, _SPLIT_RE.split(
            scripts[position:special])))
        if special == length:
            return "".join(parts)
        if scripts[special] != "/" \
                or scripts[special + 1:special + 2] in ("/", "*"):
            return None
        end = special
        while end and scripts[end - 1] in _BLANKS:
            end -= 1
        allowed = _regex_allowed_before(scripts, end, regex_end)
        if allowed is None:
            return None
        position = special + 1
        if allowed:
            body = _REGEX_BODY(scripts, position)
            if body.lastindex is not None or body.end() == length:
                position = regex_end = body.end()
        parts.append(scripts[special:position])


def blank_comments(scripts: str) -> str:
    """``scripts`` with each comment the lexer finds replaced by one space,
    everything else verbatim.  Scripts that the split or the splice decides
    hold no comment and come back as they are; only the rest are lexed."""
    if fast_normalize(scripts) is not None \
            or _splice_regexes(scripts) is not None:
        return scripts
    parts = []
    position = 0
    for cls, value, start, _ in tokenize(scripts, keep_comments=True):
        if cls is TokenClass.COMMENT:
            parts.append(scripts[position:start])
            parts.append(" ")
            position = start + len(value)
    parts.append(scripts[position:])
    return "".join(parts)

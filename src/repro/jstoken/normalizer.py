"""Sample normalization: HTML script extraction and token abstraction.

Kizzle samples are complete HTML documents including inline script elements
(paper, Section III "Main driver").  Before clustering, each sample is reduced
to an *abstract token string*: the sequence of token class names, which strips
out attacker-randomized identifier names and string contents while preserving
structure (Figure 8).

:func:`abstract_token_string` builds that string without building a
:class:`~repro.jstoken.tokens.Token`: one ``findall`` of :data:`_KEYS` over
the scripts returns, per token, its spelling when the spelling is what the
abstract string keeps or decides (words and punctuators) and ``''`` for a
number, string or template, and one table lookup per key finishes the job.
Two kinds of page go to the lexer instead (see the function).
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import List, Sequence, Tuple

from repro.jstoken.lexer import (_ID, _LONG_PUNCTUATORS, _SHAPES, _WS,
                                 tokenize)
from repro.jstoken.tokens import KEYWORDS, PUNCTUATORS, Token

_OPEN_RE = re.compile(r"<script\b", re.IGNORECASE)
_CLOSE_RE = re.compile(r"</script\s*>", re.IGNORECASE)
_SRC_ATTR_RE = re.compile(r"\bsrc\s*=", re.IGNORECASE)


def strip_html(document: str) -> str:
    """Extract and concatenate all inline script bodies of an HTML document.

    If the document does not look like HTML (no ``<script>`` element), it is
    returned unchanged and treated as raw JavaScript.  External scripts
    (``<script src=...>``) contribute no body and are skipped.
    """
    if "<script" not in document and "<script" not in document.lower():
        return document     # (the first test spares most pages the copy)
    bodies: List[str] = []
    position = 0
    while True:
        # One forward walk: an opening tag that is never completed, or never
        # closed, ends it, because no later tag can be either.  (A single
        # ``<script\b[^>]*>(.*?)</script\s*>`` rescans to the end of input
        # from every such opener, which is quadratic.)
        opener = _OPEN_RE.search(document, position)
        if opener is None:
            break
        body_start = document.find(">", opener.end()) + 1
        closer = _CLOSE_RE.search(document, body_start) if body_start else None
        if closer is None:
            break
        body = document[body_start:closer.start()]
        position = closer.end()
        if _SRC_ATTR_RE.search(document[opener.start():body_start]) \
                and not body.strip():
            # External script reference; an (unexpected) body is kept.
            continue
        bodies.append(body)
    return "\n".join(bodies)


def tokenize_sample(document: str) -> List[Token]:
    """Tokenize a sample (HTML document or raw JS) into significant tokens."""
    # Without ``keep_comments`` the lexer emits significant tokens only.
    return tokenize(strip_html(document))


def leading_tokens(document: str, count: int) -> List[Token]:
    """The first ``count`` significant tokens of a sample --
    ``tokenize_sample(document)[:count]`` -- lexing no further than that."""
    return tokenize(strip_html(document), limit=count)


def abstract_tokens_of(tokens: Sequence[Token]) -> Tuple[str, ...]:
    """The abstract token string of an already-tokenized sample, for
    callers holding a token list (the compiler's window check)."""
    return tuple(value if cls.concrete else cls.collapsed
                 for cls, value, _, _ in tokens)


#: The lexer's token shapes with their named groups made anonymous, so that
#: :data:`_KEYS` has exactly one capturing group.
_SHAPE = {name: re.sub(r"\(\?P<\w+>", "(?:", shape)
          for name, _, shape in _SHAPES}
#: A non-blank character that starts no word, number, string, template or
#: longer punctuator: a one-character punctuation token.
_OTHER = f"[^{_WS}{_ID}'\"`./]"
#: The lexer's ``_MASTER`` alternation as one ``findall``: words, single
#: characters, punctuators and ``/`` are captured; numbers, strings and
#: templates match outside the group and so read ``''``.  ``.`` is a
#: punctuator unless a digit follows, when it starts a number.  ``single``
#: comes before the long punctuators because most punctuation is single.
_KEYS = re.compile(
    f"[{_WS}]*(?:("
    + "|".join([_SHAPE["word"], _SHAPE["single"],
                *(re.escape(p) for p in _LONG_PUNCTUATORS if p[0] != "/"),
                "\\.(?![0-9])", _OTHER, "/"])
    + ")|" + "|".join(_SHAPE[name] for name in ("number", "string", "template"))
    + ")", re.DOTALL).findall
#: Key -> abstract token: keywords and every punctuation token keep their
#: spelling, ``''`` is a string; any other key is an identifier.
_ABSTRACT = {**{word: word for word in KEYWORDS},
             **{punctuator: punctuator for punctuator in PUNCTUATORS},
             **{char: char for char in map(chr, range(128))
                if re.fullmatch(_OTHER, char)},
             "": "String"}
_ASCII_BLANKS = " \t\v\f\n\r"
#: The blanks that also continue an identifier (``_ID`` holds them).
_WORD_BLANKS = ("\u00a0", "\ufeff", "\u2028", "\u2029")


def abstract_token_string(document: str) -> Tuple[str, ...]:
    """Tokenize a sample and return the abstract token string.

    Keywords and punctuation keep their concrete spelling (``var`` and ``(``
    carry structural information and cannot be attacker-randomized without
    changing semantics); identifiers, strings and numbers are abstracted to
    their class names.  This is the representation clustered by Kizzle.

    It equals ``abstract_tokens_of(tokenize_sample(document))``, which is
    what it returns for the two kinds of page it declines:

    * a page with a ``/`` key -- a regex literal, a division or a comment,
      the only tokens whose reading depends on the token before;
    * a page whose scripts, less trailing ASCII blanks, end in one of
      :data:`_WORD_BLANKS`: ``findall`` would fail there and retry at every
      position of the run, which is quadratic.  (Stripping trailing ASCII
      blanks changes no abstract token -- at most the contents of an
      unterminated string or template -- but a word blank can end an
      identifier, and ``var`` plus U+00A0 is not the keyword, so it stays.)

    Every other page is exact by construction: every non-blank character
    starts one of :data:`_KEYS`' alternatives, and without ``/`` none of
    them depends on the previous token, so its successive matches are the
    lexer's ``_MASTER`` matches, one per token.
    """
    source = strip_html(document).rstrip(_ASCII_BLANKS)
    if not source.endswith(_WORD_BLANKS):
        keys = _KEYS(source)
        if "/" not in keys:
            return tuple(map(_ABSTRACT.get, keys, repeat("Identifier")))
    return abstract_tokens_of(tokenize_sample(document))

"""AV-scanner text normalization.

Anti-virus engines normalize scanned content before signature matching: the
paper notes that quotation marks are removed automatically, and the example
signatures of Figure 10 clearly match against whitespace-free text
(``varaa=xx\\.join`` / ``returnaa``).  Kizzle signatures are generated against
the same normal form, so both sides of the comparison use this module:

* inline-script extraction from HTML,
* comment removal,
* whitespace removal between tokens,
* string-literal quote removal.

The implementation reuses the JavaScript lexer so that normalization is
consistent with tokenization by construction.

For the incremental warm path (PR 2) there is also :func:`fast_normalize`, a
regex-based approximation of the same normal form that is cheaper because it
never tokenizes: one regex match per string literal (17-19 MB/s) where the
lexer spends one per token (4.5-13 MB/s).  It differs from
:func:`normalize_for_scan` only on content it was not designed for (comments
outside string literals, markup interleaved mid-expression); on the synthetic
telemetry stream the two produce verdict-identical signature matches, which
``tests/test_incremental.py`` asserts across drift days.
"""

from __future__ import annotations

import re

from repro.jstoken.normalizer import tokenize_sample
from repro.jstoken.tokens import TokenClass


def normalize_tokens(tokens) -> str:
    """The scanner normal form of an already-tokenized sample.

    Factored out of :func:`normalize_for_scan` so callers holding a token
    list (e.g. the incremental pipeline's per-content cache) can derive the
    normal form without re-lexing.
    """
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
    of string/template literals removed.
    """
    return normalize_tokens(tokenize_sample(content))


#: String/template literals (single-line for quotes, multi-line for
#: backticks), with backslash escapes honoured so an escaped quote does not
#: terminate the literal early.
_STRING_LITERAL_RE = re.compile(
    r"\"(?:[^\"\\\n]|\\.)*\""
    r"|'(?:[^'\\\n]|\\.)*'"
    r"|`(?:[^`\\]|\\.)*`", re.DOTALL)

#: Whitespace deleted between tokens (never inside string literals).
_WHITESPACE_TABLE = {ord(character): None for character in " \t\n\r\f\v"}


def fast_normalize(content: str) -> str:
    """Cheap approximation of :func:`normalize_for_scan`.

    Splits the content on string/template literals with one C-level regex
    pass, strips all whitespace *outside* literals, and drops the surrounding
    quotes of each literal while preserving its interior verbatim (including
    any whitespace — the lexer keeps string bodies intact too, which is why
    plain whole-text whitespace stripping is *not* verdict-equivalent).

    Unlike the exact normalizer this keeps markup outside inline scripts and
    would keep comment text; both only ever *add* characters relative to the
    exact normal form, so a signature match can in principle appear or
    disappear only where those extra characters break the adjacency of
    neighbouring tokens.  The generated telemetry stream has no such content
    and the incremental scan path checks its equivalence in tests before
    relying on it.
    """
    parts = []
    last = 0
    for match in _STRING_LITERAL_RE.finditer(content):
        parts.append(content[last:match.start()].translate(_WHITESPACE_TABLE))
        parts.append(match.group(0)[1:-1])
        last = match.end()
    parts.append(content[last:].translate(_WHITESPACE_TABLE))
    return "".join(parts)

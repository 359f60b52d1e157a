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
never tokenizes: one C-level ``re.split`` pass over the whole sample, with no
Python code per string literal (48-55 MB/s traced on the ``bench/``
workloads; the ``finditer`` loop it replaced, one match object and four
Python operations per literal, ran at 16-18 MB/s) where the lexer spends one
regex match per token (4.5-13 MB/s).  It differs from
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


#: One alternative per literal kind (single-line for quotes, multi-line for
#: backticks), each capturing the literal's interior, plus an uncaptured run
#: of the whitespace deleted between tokens.  Backslash escapes are honoured
#: so an escaped quote does not terminate the literal early.  Each literal is
#: *unrolled* -- ``[^"\\\n]*(?:\\.[^"\\\n]*)*`` instead of
#: ``(?:[^"\\\n]|\\.)*`` -- so an interior is consumed in a few C-level
#: character-class runs rather than one alternation step per character.  No
#: alternative can match the empty string, and no possessive quantifier or
#: atomic group is used (Python 3.9 / 3.10 reject them; CI checks).
_SPLIT_RE = re.compile(
    r"\"([^\"\\\n]*(?:\\.[^\"\\\n]*)*)\""
    r"|'([^'\\\n]*(?:\\.[^'\\\n]*)*)'"
    r"|`([^`\\]*(?:\\.[^`\\]*)*)`"
    r"|[ \t\n\r\f\v]+", re.DOTALL)


def fast_normalize(content: str) -> str:
    """Cheap approximation of :func:`normalize_for_scan`.

    One C-level ``re.split`` pass: the content is split on string/template
    literals and on whitespace runs *outside* literals.  A literal leaves
    its interior behind as the capture group of its kind -- verbatim,
    including any whitespace (the lexer keeps string bodies intact too,
    which is why plain whole-text whitespace stripping is *not*
    verdict-equivalent) -- and a whitespace run leaves nothing; ``filter``
    drops the ``None`` / empty groups and ``join`` concatenates the rest, so
    no Python-level code runs per literal.

    Unlike the exact normalizer this keeps markup outside inline scripts and
    would keep comment text; both only ever *add* characters relative to the
    exact normal form, so a signature match can in principle appear or
    disappear only where those extra characters break the adjacency of
    neighbouring tokens.  The generated telemetry stream has no such
    content; one comment per statement blinds every fast-mode verdict
    (``tests/test_incremental.py::TestCommentedPages``, an ``xfail`` until
    ROADMAP item 1 decides the fast normal form).

    Cost is linear except on one hostile shape: a quote character that does
    not open a terminated literal is retried as an opener wherever it
    occurs, and each failed attempt scans to the end of the line (``"`` /
    ``'``) or of the input (backtick).  Escaped quotes *outside* a literal
    are exactly that, so ``'\\"' * n`` on one line and ``'\\`' * n`` are
    O(n^2) (2.56 s and 4.8 s at n = 8,000 on a 2-core host; ROADMAP item
    7(c)).
    ``tests/test_fast_normalize_differential.py`` pins the output on every
    input to the pre-split loop kept in ``tests/oracle_fast_normalize.py``.
    """
    return "".join(filter(None, _SPLIT_RE.split(content)))

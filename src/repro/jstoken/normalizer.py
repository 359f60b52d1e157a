"""Sample normalization: HTML script extraction and token abstraction.

Kizzle samples are complete HTML documents including inline script elements
(paper, Section III "Main driver").  Before clustering, each sample is reduced
to an *abstract token string*: the sequence of token class names, which strips
out attacker-randomized identifier names and string contents while preserving
structure (Figure 8).
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

from repro.jstoken.lexer import tokenize
from repro.jstoken.tokens import Token

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


def abstract_classes(tokens: Sequence[Token],
                     collapse: bool = True) -> Tuple[str, ...]:
    """Map a token sequence to its abstract class-name sequence.

    Parameters
    ----------
    tokens:
        The concrete token sequence.
    collapse:
        When true (the default, matching the paper's Figure 8 classes),
        ``Number``, ``Regex`` and ``Template`` tokens are folded into the
        coarser classes the paper uses: numbers behave like strings for the
        purposes of structural comparison, templates like strings, and regex
        literals like strings.
    """
    if collapse:
        return tuple(cls.collapsed for cls, _, _, _ in tokens)
    return tuple(cls.value for cls, _, _, _ in tokens)


def abstract_tokens_of(tokens: Sequence[Token],
                       collapse: bool = True) -> Tuple[str, ...]:
    """The abstract token string of an already-tokenized sample, for
    callers holding a token list (the compiler's window check)."""
    if collapse:
        return tuple(value if cls.concrete else cls.collapsed
                     for cls, value, _, _ in tokens)
    return tuple(value if cls.concrete else cls.value
                 for cls, value, _, _ in tokens)


def abstract_token_string(document: str, collapse: bool = True) -> Tuple[str, ...]:
    """Tokenize a sample and return the abstract token string.

    Keywords and punctuation keep their concrete spelling (``var`` and ``(``
    carry structural information and cannot be attacker-randomized without
    changing semantics); identifiers, strings and numbers are abstracted to
    their class names.  This is the representation clustered by Kizzle.
    """
    return abstract_tokens_of(tokenize_sample(document), collapse=collapse)


def concrete_values(document: str) -> Tuple[str, ...]:
    """Return the concrete source text of each significant token of a sample.

    Used by the signature generator, which needs the concrete strings at each
    token offset to decide between emitting a literal and a generalizing
    regular expression (paper, Section III-C and Figure 9).
    """
    return tuple(token.value for token in tokenize_sample(document))

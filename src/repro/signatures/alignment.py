"""Aligning cluster samples on the common window and collecting per-offset
concrete values (paper, Figure 9).

The window is searched over the members' abstract token strings -- the
cluster stage's own, when the caller passes them on.  Once it is known, every
sample contributes its concrete source text at each token offset of the
window, read from a lex that stops where the window ends (no member's full
token list is ever held).  String-literal quotes are stripped at this point
because AV scanners normalize them away before matching (Section III-C), and
the signature must match the normalized form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.jstoken.normalizer import abstract_token_string, \
    abstract_tokens_of, leading_tokens
from repro.jstoken.tokens import Token, TokenClass
from repro.signatures.subsequence import common_token_window


@dataclass
class TokenColumn:
    """The concrete values observed at one token offset of the window."""

    offset: int
    token_class: str
    values: List[str] = field(default_factory=list)

    @property
    def distinct_values(self) -> List[str]:
        return list(dict.fromkeys(self.values))

    @property
    def is_constant(self) -> bool:
        return len(self.distinct_values) == 1


def normalize_token_value(token: Token) -> str:
    """The scanner-normalized concrete text of a token.

    Quotes around string literals (and backticks around templates) are
    removed; everything else is passed through unchanged.
    """
    value = token.value
    if token.cls is TokenClass.STRING and len(value) >= 2 \
            and value[0] in "'\"" and value[-1] == value[0]:
        return value[1:-1]
    if token.cls is TokenClass.TEMPLATE and len(value) >= 2 \
            and value[0] == "`" and value[-1] == "`":
        return value[1:-1]
    return value


def abstract_of(token: Token) -> str:
    """The abstract spelling used for window search (one token of
    :func:`repro.jstoken.normalizer.abstract_tokens_of`, which
    ``tests/test_lexer_differential.py`` holds it equal to)."""
    cls = token.cls
    return token.value if cls.concrete else cls.collapsed


def align_cluster(contents: Sequence[str], max_tokens: int = 200,
                  token_strings: Optional[Sequence[Sequence[str]]] = None
                  ) -> Optional[List[TokenColumn]]:
    """Find the cluster's common window and build its per-offset value
    columns.  Returns ``None`` when no common unique window exists.

    ``token_strings`` are the members' abstract token strings, which a caller
    that clustered them already holds; without them every member is lexed
    once for its abstract string.  The concrete values then come from a lex
    of each member that stops at the end of its window, checked token for
    token against the abstract string the window was found in: a
    ``ValueError`` means the caller's strings are not these contents'.
    """
    if token_strings is None:
        token_strings = [abstract_token_string(content)
                         for content in contents]
    elif len(token_strings) != len(contents):
        raise ValueError("one abstract token string per cluster member")
    window = common_token_window(token_strings, max_tokens=max_tokens)
    if window is None:
        return None

    columns: List[TokenColumn] = [
        TokenColumn(offset=offset, token_class=window.window[offset])
        for offset in range(window.length)
    ]
    for content, start in zip(contents, window.positions):
        tokens = leading_tokens(content, start + window.length)[start:]
        if abstract_tokens_of(tokens) != window.window:
            raise ValueError("abstract token string does not belong to the "
                             "cluster member it was supplied for")
        for column, token in zip(columns, tokens):
            column.values.append(normalize_token_value(token))
    return columns

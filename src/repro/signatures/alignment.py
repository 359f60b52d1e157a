"""Aligning cluster samples on the common window and collecting per-offset
concrete values (paper, Figure 9).

Once the common token window is known, every sample contributes its concrete
source text at each token offset of the window.  String-literal quotes are
stripped at this point because AV scanners normalize them away before
matching (Section III-C), and the signature must match the normalized form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.jstoken.normalizer import tokenize_sample
from repro.jstoken.tokens import Token, TokenClass
from repro.signatures.subsequence import CommonWindow, common_token_window


@dataclass
class TokenColumn:
    """The concrete values observed at one token offset of the window."""

    offset: int
    token_class: str
    values: List[str] = field(default_factory=list)

    @property
    def distinct_values(self) -> List[str]:
        seen = []
        for value in self.values:
            if value not in seen:
                seen.append(value)
        return seen

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
    """The abstract spelling used for window search (mirrors
    :func:`repro.jstoken.normalizer.abstract_token_string`)."""
    cls = token.cls
    return token.value if cls.concrete else cls.collapsed


def align_cluster(contents: Sequence[str],
                  max_tokens: int = 200,
                  window: Optional[CommonWindow] = None,
                  tokenizer=None
                  ) -> Optional[List[TokenColumn]]:
    """Tokenize the cluster's samples, find the common window and build the
    per-offset value columns.

    Returns ``None`` when no common unique window exists.  A pre-computed
    ``window`` may be supplied (e.g. by the compiler, which also needs the
    window metadata); it must have been computed over the same contents.
    ``tokenizer`` overrides :func:`tokenize_sample` — the incremental
    pipeline passes its per-content token cache so cluster members that were
    already tokenized for clustering are not lexed a second time here.
    """
    tokenizer = tokenizer or tokenize_sample
    token_lists: List[List[Token]] = [tokenizer(content)
                                      for content in contents]
    abstract_strings = [[abstract_of(token) for token in tokens]
                        for tokens in token_lists]
    if window is None:
        window = common_token_window(abstract_strings, max_tokens=max_tokens)
    if window is None:
        return None

    columns: List[TokenColumn] = [
        TokenColumn(offset=offset, token_class=window.window[offset])
        for offset in range(window.length)
    ]
    for sample_index, start in enumerate(window.positions):
        tokens = token_lists[sample_index]
        for offset in range(window.length):
            token = tokens[start + offset]
            columns[offset].values.append(normalize_token_value(token))
    return columns

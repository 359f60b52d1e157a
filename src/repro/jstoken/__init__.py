"""JavaScript tokenization substrate.

Kizzle abstracts every incoming JavaScript sample into a stream of abstract
tokens (Keyword, Identifier, Punctuation, String, ...) before clustering, so
that attacker-controlled noise such as randomized identifier names or string
payload contents does not dominate the distance computation (paper, Section
III-A and Figure 8).

This package provides:

* :class:`~repro.jstoken.tokens.Token` and
  :class:`~repro.jstoken.tokens.TokenClass` -- the token model.
* :func:`~repro.jstoken.lexer.tokenize` -- a table-driven scanner: one
  compiled alternation matched per token and dispatched on the group that
  matched, covering comments, string literals (single, double and template),
  numeric literals, regular expression literals (told from division by the
  previous significant token) and the full ECMAScript punctuator set.  It
  never rejects a sample outside strict mode and is linear in the input
  except for one documented input family; see :mod:`repro.jstoken.lexer` for
  the tolerance rules.
* :func:`~repro.jstoken.normalizer.tokenize_sample` -- the significant tokens
  of a sample.
* :func:`~repro.jstoken.normalizer.abstract_token_string` -- the abstract
  token-class string of a sample, the clustering input.  It builds no
  ``Token``: one ``findall`` of the lexer's own token shapes and one table
  lookup per token, with the lexer as the fallback for the pages where a
  token's reading depends on the one before (a ``/``).
* :func:`~repro.jstoken.normalizer.leading_tokens` -- the first *n*
  significant tokens of a sample from a scanner run that stops there, for the
  signature generator, which reads concrete values no further than the end
  of the signature window.
* :func:`~repro.jstoken.normalizer.strip_html` -- extracts inline script
  bodies from an HTML document, since a Kizzle "sample" is a complete HTML
  document including all inline script elements.
"""

from repro.jstoken.tokens import Token, TokenClass, KEYWORDS, PUNCTUATORS
from repro.jstoken.lexer import LexerError, tokenize
from repro.jstoken.normalizer import (
    abstract_token_string,
    leading_tokens,
    strip_html,
    tokenize_sample,
)

__all__ = [
    "Token",
    "TokenClass",
    "KEYWORDS",
    "PUNCTUATORS",
    "LexerError",
    "tokenize",
    "abstract_token_string",
    "leading_tokens",
    "strip_html",
    "tokenize_sample",
]

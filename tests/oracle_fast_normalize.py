"""The ``finditer`` loop behind ``fast_normalize``, kept as the test oracle.

This was the body of ``repro.scanner.normalizer.fast_normalize`` until the
one-pass ``re.split`` form replaced it; the pattern, the table and the loop
are unchanged below and are what ``tests/test_fast_normalize_differential.py``
compares that form with, character for character.  Nothing under ``src/``
imports it.
"""

from __future__ import annotations

import re

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
    parts = []
    last = 0
    for match in _STRING_LITERAL_RE.finditer(content):
        parts.append(content[last:match.start()].translate(_WHITESPACE_TABLE))
        parts.append(match.group(0)[1:-1])
        last = match.end()
    parts.append(content[last:].translate(_WHITESPACE_TABLE))
    return "".join(parts)

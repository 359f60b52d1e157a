"""Token model for the JavaScript lexer.

The paper abstracts concrete JavaScript source into a small set of token
classes (Figure 8 shows Keyword / Identifier / Punctuation / String).  We keep
a slightly richer class set internally (numbers, regex literals, comments) and
collapse classes when producing the abstract token string used for
clustering; see :mod:`repro.jstoken.normalizer`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenClass(enum.Enum):
    """Abstract class of a lexical token.

    Each member carries the two facts every consumer loop needs, so those
    loops read an attribute instead of testing tuple membership per token:
    ``concrete`` (keywords and punctuation keep their source spelling in the
    abstract token string) and ``collapsed`` (the paper's Figure 8 class name,
    with numbers, regex literals and templates folded into ``String``).
    """

    KEYWORD = "Keyword"
    IDENTIFIER = "Identifier"
    PUNCTUATION = "Punctuation"
    STRING = "String"
    NUMBER = "Number"
    REGEX = "Regex"
    COMMENT = "Comment"
    TEMPLATE = "Template"

    def __init__(self, label: str) -> None:
        self.concrete = label in ("Keyword", "Punctuation")
        self.collapsed = ("String" if label in ("Number", "Regex", "Template")
                          else label)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Token(NamedTuple):
    """A single lexical token (immutable, hashable, tuple-backed).

    Attributes
    ----------
    cls:
        The abstract :class:`TokenClass`.
    value:
        The concrete source text of the token (including quotes for string
        literals).
    position:
        Character offset of the first character of the token in the source.
    line:
        1-based line number of the token.
    """

    cls: TokenClass
    value: str
    position: int = 0
    line: int = 1

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.cls.value}({self.value!r})"


#: Reserved words of ECMAScript 5/6 plus literals that behave like keywords.
KEYWORDS = frozenset(
    {
        "break", "case", "catch", "class", "const", "continue", "debugger",
        "default", "delete", "do", "else", "enum", "export", "extends",
        "false", "finally", "for", "function", "if", "implements", "import",
        "in", "instanceof", "interface", "let", "new", "null", "package",
        "private", "protected", "public", "return", "static", "super",
        "switch", "this", "throw", "true", "try", "typeof", "var", "void",
        "while", "with", "yield",
    }
)

#: ECMAScript punctuators ordered longest-first so the lexer can greedily
#: match multi-character operators before their prefixes.
PUNCTUATORS = (
    ">>>=",
    "===", "!==", "**=", "<<=", ">>=", ">>>", "...",
    "=>", "==", "!=", "<=", ">=", "&&", "||", "??", "?.",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "**",
    "{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "%",
    "&", "|", "^", "!", "~", "?", ":", "=", ".", "/",
)

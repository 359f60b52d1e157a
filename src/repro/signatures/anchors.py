"""Required-literal extraction from signature regexes.

A Kizzle signature is a concatenation of per-column fragments: constant
columns become ``re.escape``-d literals, varying columns become character
classes with quantifiers (:mod:`repro.signatures.regexgen`).  There is no
alternation -- a ``|`` in the constant text arrives escaped, as the literal
``\\|`` -- so every *unconditionally present* literal run is a **required
substring**: any text the pattern matches must contain that run contiguously.

The scan prefilter exploits this: before paying for a full regex evaluation
(or, worse, for normalizing a sample at all), the scanner checks whether the
signature's longest required literal occurs in the cheaply normalized text
with a C-level ``in``.  A miss proves the signature cannot match; a hit
falls through to the real regex, so the prefilter never changes verdicts.

Extraction is deliberately conservative: anything that is not provably a
required literal (group constructs, classes, quantified atoms, anchors,
backreferences) simply breaks the current run, and an alternation -- an
unescaped ``|`` outside a character class -- anywhere disables extraction for
the whole pattern.  So do the two constructs that change what the text
around them means: a conditional group ``(?(1)...)``, whose body is required
only when the group it names took part, and a global inline flag group that
sets ``i`` (the literals match in either case) or ``x`` (blanks in the
pattern are not text).  A pattern with no sufficiently long run yields no
anchor and is always evaluated in full.  Patterns are assumed to be compiled
without ``re.IGNORECASE`` / ``re.VERBOSE`` and written without ``(?#...)``
comments, as every pattern in this repository is.
"""

from __future__ import annotations

import re
from typing import List, Optional

#: Characters with special meaning outside character classes.
_META = set("\\^$.|?*+()[]{}")

#: Escapes that denote a single literal character (``\\.`` -> ``.``).  Class
#: shorthands (``\\d``, ``\\w``, ``\\s``...), anchors (``\\b``, ``\\A``...)
#: and numeric backreferences are deliberately absent.
_LITERAL_ESCAPES = set("\\^$.|?*+()[]{}-/ #&~\"'`!%,:;<=>@_")

#: A brace quantifier.  Anything else after ``{`` is literal text to ``re``
#: and may hold structure (``a{x|y}`` is an alternation), so it is walked,
#: not skipped.
_BRACE_QUANTIFIER = re.compile(r"\{[0-9,]*\}")


def required_literals(pattern: str, min_length: int = 1) -> List[str]:
    """Literal runs that every match of ``pattern`` must contain.

    Returns the runs (in pattern order) whose length is at least
    ``min_length``.  The extraction walks the pattern once; any construct it
    does not positively recognize as a required single character ends the
    current run, so the result errs toward fewer/shorter anchors, never
    toward an unsound one.  A pattern in which the walk meets an alternation
    returns no literals at all (without tracking group nesting, nothing
    around an alternation is provably required); ``\\|`` and ``[|]`` are
    literal bars, not alternations, and are stepped over like any other
    escape or class.  A conditional group or a global ``(?i)`` / ``(?x)``
    likewise returns no literals.
    """
    runs: List[str] = []
    current: List[str] = []
    #: Stack of (runs-length-at-open, body_required) per open group; if the
    #: group turns out to be quantified (or is an assertion), every run found
    #: inside it is discarded when it closes.
    group_stack: List[List[object]] = []
    index = 0
    length = len(pattern)

    def flush(drop_last: bool = False) -> None:
        if drop_last and current:
            current.pop()
        if current:
            runs.append("".join(current))
        del current[:]

    while index < length:
        character = pattern[index]
        if character == "\\" and index + 1 < length:
            escape = pattern[index + 1]
            if escape in _LITERAL_ESCAPES:
                current.append(escape)
                index += 2
                # A quantifier after an escaped literal quantifies only that
                # character: drop it from the run and skip the quantifier.
                if index < length and pattern[index] in "?*+{":
                    flush(drop_last=True)
                    index = _skip_quantifier(pattern, index)
                continue
            # Class shorthand, anchor escape, or numeric backreference:
            # not a required literal.
            flush()
            index += 2
            continue
        if character not in _META:
            current.append(character)
            index += 1
            if index < length and pattern[index] in "?*+{":
                flush(drop_last=True)
                index = _skip_quantifier(pattern, index)
            continue
        if character == "[":
            flush()
            index = _skip_class(pattern, index)
            if index < length and pattern[index] in "?*+{":
                index = _skip_quantifier(pattern, index)
            continue
        if character == "(":
            flush()
            if pattern.startswith("(?(", index):
                return []
            next_index, body_required = _skip_group_header(pattern, index)
            if next_index > index + 1 and pattern[next_index - 1] == ")":
                # Whole construct consumed: a (?P=name) backreference, which
                # leaves nothing to track, or a global inline flag group.
                if not pattern.startswith("(?P=", index) \
                        and set("ix") & set(pattern[index + 2:next_index - 1]):
                    return []
                index = next_index
                continue
            group_stack.append([len(runs), body_required])
            index = next_index
            continue
        if character == ")":
            flush()
            index += 1
            quantified = index < length and pattern[index] in "?*+{"
            if quantified:
                index = _skip_quantifier(pattern, index)
            if group_stack:
                mark, body_required = group_stack.pop()
                if quantified or not body_required:
                    del runs[mark:]
            continue
        if character == "|":
            return []
        # ``.``, ``^``, ``$``, stray quantifiers: break the run.  A stray
        # quantifier here follows a non-literal atom, already excluded.
        flush()
        index = _skip_quantifier(pattern, index) \
            if character in "?*+{" else index + 1
    flush()
    if group_stack:
        # Unbalanced pattern; trust nothing found inside the open groups.
        del runs[group_stack[0][0]:]
    return [run for run in runs if len(run) >= min_length]


def _skip_quantifier(pattern: str, index: int) -> int:
    """Index just past the quantifier starting at ``index``."""
    braces = _BRACE_QUANTIFIER.match(pattern, index)
    index = braces.end() if braces else index + 1
    if index < len(pattern) and pattern[index] == "?":  # non-greedy suffix
        index += 1
    return index


def _skip_class(pattern: str, start: int) -> int:
    """Index just past the character class opening at ``start``."""
    index = start + 1
    if index < len(pattern) and pattern[index] == "^":
        index += 1
    if index < len(pattern) and pattern[index] == "]":
        index += 1
    while index < len(pattern):
        if pattern[index] == "\\":
            index += 2
            continue
        if pattern[index] == "]":
            return index + 1
        index += 1
    return len(pattern)


def _skip_group_header(pattern: str, start: int) -> "tuple":
    """``(index, body_required)`` for the group syntax opening at ``start``.

    For ``(?P=name)`` (a backreference spelled as a group) the whole
    construct is consumed (the returned index points past its ``)``).  For
    ordinary, ``(?P<name>`` and ``(?:`` groups only the header is skipped
    and ``body_required`` is true: the body is unconditionally present in
    any match (an alternation inside it makes the walk return no literals
    at all), so its literals remain required unless the group turns out to
    be quantified.
    Assertions (``(?=``, ``(?!``, lookbehinds) and anything unrecognized
    return ``body_required = False`` — their body text is not part of the
    match.
    """
    index = start + 1
    if index >= len(pattern) or pattern[index] != "?":
        return index, True
    index += 1
    if pattern.startswith("P=", index):
        closing = pattern.find(")", index)
        return ((closing + 1) if closing != -1 else len(pattern)), True
    if pattern.startswith("P<", index):
        closing = pattern.find(">", index)
        return ((closing + 1) if closing != -1 else len(pattern)), True
    if pattern.startswith(":", index):
        return index + 1, True
    # (?=, (?!, (?<=, (?<!, inline flags, conditionals...
    while index < len(pattern) and pattern[index] not in ":)>=!":
        index += 1
    return (index + 1 if index < len(pattern) else index), False


def best_anchor(pattern: str, min_length: int = 8) -> Optional[str]:
    """The longest required literal of ``pattern``, or ``None``.

    ``None`` means the pattern offers no usable anchor (too dynamic or too
    short) and must always be evaluated in full.
    """
    literals = required_literals(pattern, min_length=min_length)
    if not literals:
        return None
    return max(literals, key=len)

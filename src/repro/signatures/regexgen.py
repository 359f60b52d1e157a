"""Regular-expression generalization of aligned token columns.

For each token offset of the common window the signature either pins the
concrete value (when all samples agree) or generalizes to a character-class
template with length bounds (paper, Section III-C: "We compute an expression
that will accept strings of the observed lengths, and containing the
characters observed, by drawing on a predefined set of common patterns such
as ``[a-z]+``, ``[a-zA-Z0-9]+``, etc.").

Offsets whose values co-vary perfectly across samples (the same randomized
identifier reused later in the code) are tied together with named groups and
backreferences, which is what produces the ``var1``/``var2`` references the
paper shows in the Nuclear signature of Figure 10(a).  The paper's signatures
use .NET syntax (``\\k<var1>``); since our scanning engine is Python ``re``,
groups are emitted as ``(?P<varN>...)`` and references as ``(?P=varN)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.signatures.alignment import TokenColumn


@dataclass(frozen=True)
class RegexTemplate:
    """A character-class template with a compiled matcher for validation."""

    name: str
    character_class: str

    def accepts(self, values: Sequence[str]) -> bool:
        # fullmatch: a ``$`` anchor would also accept a value with a trailing
        # newline, which the emitted ``class{m,n}`` cannot match.
        pattern = re.compile(f"{self.character_class}+")
        return all(pattern.fullmatch(value) is not None for value in values)


#: The predefined template set, tried in order (most specific first).
REGEX_TEMPLATES: Tuple[RegexTemplate, ...] = (
    RegexTemplate("digits", "[0-9]"),
    RegexTemplate("lowercase", "[a-z]"),
    RegexTemplate("uppercase", "[A-Z]"),
    RegexTemplate("letters", "[a-zA-Z]"),
    RegexTemplate("alphanumeric", "[0-9a-zA-Z]"),
    RegexTemplate("identifier", "[0-9a-zA-Z_$]"),
    RegexTemplate("hex_color", "[0-9a-fA-F#]"),
    RegexTemplate("url", r"[0-9a-zA-Z:/?&=._%-]"),
    RegexTemplate("printable", r"[^\s]"),
)


def _length_bounds(values: Sequence[str],
                   slack: float = 0.0) -> Tuple[int, int]:
    lengths = [len(value) for value in values]
    minimum, maximum = min(lengths), max(lengths)
    if slack > 0.0:
        minimum = max(1, int(minimum * (1.0 - slack)))
        maximum = int(maximum * (1.0 + slack)) + 1
    return minimum, maximum


def _quantifier(minimum: int, maximum: int) -> str:
    if minimum == maximum:
        return f"{{{minimum}}}"
    return f"{{{minimum},{maximum}}}"


def generalize_column(values: Sequence[str], length_slack: float = 0.0) -> str:
    """A regex fragment matching every observed value of one column.

    The concrete value is used when all samples agree; otherwise the first
    template whose character class covers every observed value is selected
    (brute force over the template list, as in the paper), with length bounds
    taken from the observations.  ``.{min,max}`` is the last resort, used for
    values with whitespace or no covering template.

    ``length_slack`` widens the observed length bounds by the given fraction.
    The paper uses the observed lengths directly, which works when clusters
    contain hundreds of samples; for small clusters a little slack keeps the
    signature from over-fitting the handful of lengths that happened to be
    observed (the compiler default is 0.25, see
    :class:`~repro.signatures.compiler.SignatureConfig`).
    """
    distinct = list(dict.fromkeys(values))
    if len(distinct) == 1:
        return re.escape(distinct[0])
    minimum, maximum = _length_bounds(distinct, slack=length_slack)
    if min(len(value) for value in distinct) == 0:
        # Empty strings defeat character-class templates; accept anything of
        # the observed length range.
        return f".{{{0},{maximum}}}"
    for template in REGEX_TEMPLATES:
        if template.accepts(distinct):
            return template.character_class + _quantifier(minimum, maximum)
    return "." + _quantifier(minimum, maximum)


def _covarying_groups(columns: Sequence[TokenColumn]) -> Dict[int, int]:
    """Map column offset -> offset of the earlier column it co-varies with.

    Two columns co-vary when their value vectors are identical across all
    samples and non-constant.  The earliest such column becomes the named
    group; later ones become backreferences.
    """
    representative: Dict[Tuple[str, ...], int] = {}
    backreferences: Dict[int, int] = {}
    for column in columns:
        if column.is_constant:
            continue
        key = tuple(column.values)
        if key in representative:
            backreferences[column.offset] = representative[key]
        else:
            representative[key] = column.offset
    return backreferences


def build_pattern(columns: Sequence[TokenColumn],
                  use_backreferences: bool = True,
                  length_slack: float = 0.0) -> str:
    """Assemble the full signature pattern from the aligned columns.

    A constant column's value is emitted ``re.escape``-d and unquantified
    (see :func:`generalize_column`), outside any group, so every match of
    the pattern contains each run of consecutive constant values
    contiguously: :func:`literal_anchor` relies on this.
    """
    backreferences = _covarying_groups(columns) if use_backreferences else {}
    # Group targets are non-constant columns by construction.
    targets = set(backreferences.values())
    group_names: Dict[int, str] = {}
    next_group = 0
    fragments: List[str] = []
    for column in columns:
        if column.offset in backreferences:
            target = backreferences[column.offset]
            if target in group_names:
                fragments.append(f"(?P={group_names[target]})")
                continue
            # The target was never turned into a group (it may itself be a
            # backreference target created later); fall through to a plain
            # fragment.
        fragment = generalize_column(column.values, length_slack=length_slack)
        if column.offset in targets:
            name = f"var{next_group}"
            next_group += 1
            group_names[column.offset] = name
            fragment = f"(?P<{name}>{fragment})"
        fragments.append(fragment)
    return "".join(fragments)


def literal_anchor(columns: Sequence[TokenColumn],
                   min_length: int = 8) -> Optional[str]:
    """The longest run of consecutive constant column values, or ``None``.

    :func:`build_pattern` emits those values literally and back to back, so
    any text the pattern matches contains the run: a scanner can reject a
    text that lacks it with one C-level ``in`` before running the regex.
    Ties go to the first longest run; a run shorter than ``min_length``
    characters is no anchor.
    """
    runs = [""]
    for column in columns:
        if column.is_constant:
            runs[-1] += column.values[0]
        elif runs[-1]:
            runs.append("")
    best = max(runs, key=len)
    return best if len(best) >= min_length else None

"""Bit-parallel Levenshtein distance (Myers 1999 / Hyyrö 2001).

The banded dynamic program in :mod:`repro.distance.levenshtein` is the right
tool when the distance threshold is tiny, but the epsilon ablations and the
merge step routinely ask for thresholds of 30-60% of the sequence length.  At
that band width the DP degenerates to the full O(n*m) table — several seconds
per pair of long samples in pure Python.

Myers' algorithm encodes an entire DP column in two machine words (the
positive and negative delta bit vectors) and advances one *text* position per
iteration using ~17 word operations.  Python integers are arbitrary
precision, so a single ``int`` holds the whole column regardless of pattern
length, and the per-iteration big-int arithmetic runs in C.  The result is
the *exact* unbounded edit distance in O(len(text)) big-int operations —
two to three orders of magnitude faster than the Python-level DP on long
token strings, and exactly equal to :func:`repro.distance.levenshtein.
edit_distance` (property-tested in ``tests/test_distance_engine.py``).

Because the exact distance (rather than a thresholded verdict) comes out,
the value can be memoized once and answer *every* epsilon query about the
pair — which is what :class:`repro.distance.engine.DistanceEngine` does.

The loop only runs over the part of the two sequences that differs.
Levenshtein distance is invariant under removing a common prefix and a
common suffix (an optimal alignment can match them symbol for symbol), so
both are stripped first — O(min(m, n)) symbol compares at C level — and an
empty remainder answers with the other side's length.  That is the usual
case where the day loop calls the kernel: yesterday's prototype against
today's differs by one inserted block (5-160 of 6.9-8.5k tokens in 22 of the
23 kernel calls of ``bench/``'s ``month_replay``).  A mask built for the
whole pattern stays usable — column ``i`` of the trimmed pattern is column
``prefix + i`` of the whole — and a pair with no common affix pays two scans
that stop at their first symbol, then the same loop as ever.
"""

from __future__ import annotations

import operator
from itertools import islice, takewhile
from typing import Dict, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)

#: Alias used by the engine: a per-symbol position bitmask over the pattern.
PatternMask = Dict[Hashable, int]


def build_pattern_mask(pattern: Sequence[T]) -> PatternMask:
    """Precompute the per-symbol position bitmask ``Peq`` for ``pattern``.

    ``Peq[s]`` has bit ``i`` set iff ``pattern[i] == s``.  Building the mask
    is O(len(pattern)) and reusable across every comparison involving the
    same sequence, so the engine caches one mask per unique point.
    """
    peq: PatternMask = {}
    bit = 1
    for symbol in pattern:
        peq[symbol] = peq.get(symbol, 0) | bit
        bit <<= 1
    return peq


def _leading_matches(a: Iterable[T], b: Iterable[T]) -> int:
    """How many leading positions of two iterables hold equal symbols
    (the compares, the stop and the count all run in C)."""
    return sum(takewhile(bool, map(operator.eq, a, b)))


def bitparallel_edit_distance(pattern: Sequence[T], text: Sequence[T],
                              pattern_mask: PatternMask = None) -> int:
    """Exact Levenshtein distance via Myers' bit-parallel algorithm.

    Equivalent to ``edit_distance(pattern, text)`` for any hashable symbols.
    ``pattern_mask`` may be supplied to reuse a precomputed
    :func:`build_pattern_mask` result for (the whole of) ``pattern``; it is
    read, never modified.
    """
    prefix = _leading_matches(pattern, text)
    suffix = _leading_matches(
        islice(reversed(pattern), len(pattern) - prefix),
        islice(reversed(text), len(text) - prefix))
    m = len(pattern) - prefix - suffix
    text = text[prefix:len(text) - suffix]
    if m == 0 or not text:
        return max(m, len(text))

    mask = (1 << m) - 1
    high = 1 << (m - 1)
    if pattern_mask is None:
        peq = build_pattern_mask(pattern[prefix:prefix + m])
    elif prefix or suffix:
        # Column i of the trimmed pattern is column prefix + i of the whole.
        peq = {symbol: (bits >> prefix) & mask
               for symbol, bits in pattern_mask.items()}
    else:
        peq = pattern_mask

    pv = mask          # vertical positive deltas: column 0 is 0,1,2,...,m
    mv = 0             # vertical negative deltas
    score = m          # D[m][0]
    get = peq.get
    for symbol in text:
        eq = get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = (mh | (~(xv | ph) & mask)) & mask
        mv = ph & xv
    return score

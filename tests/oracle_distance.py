"""The reference edit distances, kept as the test oracle.

These lived in ``repro.distance`` until the distance engine became the only
distance path under ``src/``: the classic two-row dynamic program, Ukkonen's
banded variant, their normalized form, and the sequential
``TokenEditDistance`` metric with its length and token-histogram lower
bounds are unchanged below.  The kernel
and engine tests hold :class:`repro.distance.engine.DistanceEngine` and
:func:`repro.distance.bitparallel.bitparallel_edit_distance` equal to them,
and the distance ablation times the sequential metric as its baseline row.
Nothing under ``src/`` imports it.

The distance is computed over *tokens*, not characters: two samples that
differ only in identifier spellings have distance zero once abstracted, while
an appended exploit shows up as a block of insertions.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

_INF = float("inf")

#: Band width beyond which the bit-parallel kernel beats the banded DP.
#: Below this the banded early-abort wins (O(band * n) with a quick exit);
#: above it the DP approaches the full quadratic table.
_BITPARALLEL_BAND_CUTOFF = 32


def edit_distance(a: Sequence[T], b: Sequence[T]) -> int:
    """Classic Levenshtein distance between two sequences.

    Unit costs for insertion, deletion and substitution.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Ensure the inner loop runs over the shorter sequence to minimize memory.
    if len(b) > len(a):
        a, b = b, a
    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, item_a in enumerate(a, start=1):
        current[0] = i
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost  # substitution
            )
        previous, current = current, previous
    return previous[len(b)]


def banded_edit_distance(a: Sequence[T], b: Sequence[T],
                         max_distance: int) -> Optional[int]:
    """Edit distance with early cut-off.

    Returns the exact distance if it is at most ``max_distance``, otherwise
    ``None``.  Only a diagonal band of width ``2 * max_distance + 1`` is
    evaluated (Ukkonen's algorithm), so the cost is
    ``O(max_distance * min(len(a), len(b)))``.
    """
    if max_distance < 0:
        return None
    if a == b:
        return 0
    len_a, len_b = len(a), len(b)
    if abs(len_a - len_b) > max_distance:
        return None
    if len_a == 0:
        return len_b if len_b <= max_distance else None
    if len_b == 0:
        return len_a if len_a <= max_distance else None
    if len_b > len_a:
        a, b = b, a
        len_a, len_b = len_b, len_a

    band = max_distance
    previous = [_INF] * (len_b + 1)
    current = [_INF] * (len_b + 1)
    for j in range(min(band, len_b) + 1):
        previous[j] = j

    for i in range(1, len_a + 1):
        lo = max(1, i - band)
        hi = min(len_b, i + band)
        current[lo - 1] = i if (lo - 1) == 0 else _INF
        row_min = current[lo - 1] if (lo - 1) == 0 else _INF
        item_a = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if item_a == b[j - 1] else 1
            best = previous[j - 1] + cost
            if previous[j] + 1 < best:
                best = previous[j] + 1
            if current[j - 1] + 1 < best:
                best = current[j - 1] + 1
            current[j] = best
            if best < row_min:
                row_min = best
        if row_min > max_distance:
            return None
        # Reset cells outside the band for the next row.
        previous, current = current, [_INF] * (len_b + 1)

    result = previous[len_b]
    if result is _INF or result > max_distance:
        return None
    return int(result)


def normalized_edit_distance(a: Sequence[T], b: Sequence[T],
                             max_normalized: Optional[float] = None) -> float:
    """Edit distance normalized by the length of the longer sequence.

    Returns a value in ``[0, 1]``.  When ``max_normalized`` is given, the
    banded algorithm is used and ``1.0`` is returned as soon as the distance
    provably exceeds the threshold — callers only need to know "within
    epsilon or not", so the exact value above the threshold is irrelevant.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    if max_normalized is None:
        return edit_distance(a, b) / longest
    max_distance = int(max_normalized * longest)
    if max_distance > _BITPARALLEL_BAND_CUTOFF:
        # Wide band: the banded DP degenerates toward the full table, while
        # Myers' bit-parallel kernel computes the exact distance in
        # O(longest) big-int operations.  Same verdict, far less work.
        from repro.distance.bitparallel import bitparallel_edit_distance

        distance = bitparallel_edit_distance(a, b)
        if distance > max_distance:
            return 1.0
        return distance / longest
    distance = banded_edit_distance(a, b, max_distance)
    if distance is None:
        return 1.0
    return distance / longest


def length_lower_bound(a: Sequence, b: Sequence) -> float:
    """Lower bound on the normalized edit distance from lengths alone.

    At least ``abs(len(a) - len(b))`` insertions or deletions are required, so
    the normalized distance is at least that difference divided by the longer
    length.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return abs(len(a) - len(b)) / longest


class TokenEditDistance:
    """Normalized token edit distance with an optional banded cut-off.

    Parameters
    ----------
    epsilon:
        When provided, distances are only resolved exactly up to this
        threshold; anything beyond is reported as 1.0.  This matches how the
        clustering layer consumes the metric and makes all-pairs computation
        far cheaper.
    prefilter:
        When true (default), the length lower bound and a token-histogram
        lower bound are used to skip the dynamic program entirely for
        obviously distant pairs.
    """

    def __init__(self, epsilon: Optional[float] = None,
                 prefilter: bool = True) -> None:
        self.epsilon = epsilon
        self.prefilter = prefilter

    def distance(self, a: Tuple[str, ...], b: Tuple[str, ...]) -> float:
        if self.epsilon is not None and self.prefilter:
            if length_lower_bound(a, b) > self.epsilon:
                return 1.0
            if _histogram_lower_bound(a, b) > self.epsilon:
                return 1.0
        return normalized_edit_distance(a, b, max_normalized=self.epsilon)

    def within(self, a: Tuple[str, ...], b: Tuple[str, ...],
               epsilon: float) -> bool:
        if self.prefilter and length_lower_bound(a, b) > epsilon:
            return False
        if self.prefilter and _histogram_lower_bound(a, b) > epsilon:
            return False
        longest = max(len(a), len(b))
        if longest == 0:
            return True
        max_distance = int(epsilon * longest)
        return banded_edit_distance(a, b, max_distance) is not None


def _histogram_lower_bound(a: Sequence[str], b: Sequence[str]) -> float:
    """Lower bound on normalized edit distance from token histograms.

    Each edit operation changes the multiset of tokens by at most one element
    on each side, so half the L1 distance between histograms (rounded up via
    the max of surplus on either side) lower-bounds the edit distance.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    counter_a, counter_b = Counter(a), Counter(b)
    surplus_a = sum((counter_a - counter_b).values())
    surplus_b = sum((counter_b - counter_a).values())
    return max(surplus_a, surplus_b) / longest

"""The per-member window search, kept as the test oracle.

This was the body of ``repro.signatures.subsequence`` until the search started
running over the cluster's *distinct* abstract strings; the rolling hash, the
bisection, its probe order and the short linear fallback are unchanged below
and are what ``tests/test_window_differential.py`` compares that search with,
whole ``CommonWindow`` for whole ``CommonWindow``.  Nothing under ``src/``
imports it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.signatures.subsequence import MAX_WINDOW_TOKENS, CommonWindow

#: Rolling-hash parameters (61-bit Mersenne prime modulus keeps products in
#: native int range while making cross-n-gram collisions vanishingly rare).
_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_003


def _token_ids(token_strings: Sequence[Sequence[str]]
               ) -> List[List[int]]:
    """Map every token to a small integer, consistently across samples."""
    vocabulary: Dict[str, int] = {}
    ids: List[List[int]] = []
    for tokens in token_strings:
        row: List[int] = []
        for token in tokens:
            identifier = vocabulary.get(token)
            if identifier is None:
                identifier = vocabulary[token] = len(vocabulary) + 1
            row.append(identifier)
        ids.append(row)
    return ids


def _ngram_positions(tokens: Sequence[int], length: int
                     ) -> Dict[int, List[int]]:
    """Positions of every n-gram of the given length, keyed by rolling hash.

    O(len(tokens)) regardless of ``length`` — the previous implementation
    materialized a length-``length`` tuple per position, which made the
    binary search in :func:`common_token_window` quadratic in the window
    cap and dominated signature compilation.
    """
    table: Dict[int, List[int]] = defaultdict(list)
    count = len(tokens)
    if length <= 0 or count < length:
        return table
    power = pow(_HASH_BASE, length - 1, _HASH_MOD)
    value = 0
    for index in range(count):
        value = (value * _HASH_BASE + tokens[index]) % _HASH_MOD
        if index >= length - 1:
            start = index - length + 1
            table[value].append(start)
            value = (value - tokens[start] * power) % _HASH_MOD
    return table


def _find_window_of_length(token_strings: Sequence[Sequence[str]],
                           length: int,
                           id_strings: Optional[Sequence[Sequence[int]]] = None
                           ) -> Optional[CommonWindow]:
    """A window of exactly ``length`` tokens common to and unique in every
    sample, or ``None``.

    Uniqueness and membership are decided on rolling hashes; the accepted
    window is verified token-for-token at every claimed position, so a hash
    collision can only cause a (vanishingly unlikely) rejection, never a
    wrong window.  When several windows qualify, the one starting earliest
    in the first sample is chosen — candidate starts are probed in first-
    sample order with an early exit, which keeps signature generation
    deterministic and usually stops after a handful of probes.
    """
    if length <= 0:
        return None
    if any(len(tokens) < length for tokens in token_strings):
        return None
    if id_strings is None:
        id_strings = _token_ids(token_strings)

    tables = [_ngram_positions(ids, length) for ids in id_strings]
    first_ids = id_strings[0]
    power = pow(_HASH_BASE, length - 1, _HASH_MOD)
    value = 0
    for index in range(len(first_ids)):
        value = (value * _HASH_BASE + first_ids[index]) % _HASH_MOD
        if index < length - 1:
            continue
        start = index - length + 1
        candidate_hash = value
        value = (value - first_ids[start] * power) % _HASH_MOD

        positions: List[int] = []
        unique_everywhere = True
        for table in tables:
            occurrences = table.get(candidate_hash)
            if not occurrences or len(occurrences) != 1:
                unique_everywhere = False
                break
            positions.append(occurrences[0])
        if not unique_everywhere:
            continue
        window = tuple(token_strings[0][start:start + length])
        if all(tuple(token_strings[sample][position:position + length])
               == window
               for sample, position in enumerate(positions)):
            return CommonWindow(length=length, positions=positions,
                                window=window)
    return None


def common_token_window(token_strings: Sequence[Sequence[str]],
                        max_tokens: int = MAX_WINDOW_TOKENS
                        ) -> Optional[CommonWindow]:
    """Longest common unique token window across all samples.

    Binary search over the window length, as in the paper.  The feasibility
    predicate is not perfectly monotone (a unique long window may exist while
    some shorter length has every candidate duplicated), but in practice —
    and in the paper's algorithm — the binary search converges on a good
    window; we additionally fall back to a short linear probe below the
    smallest infeasible length found.
    """
    if not token_strings:
        return None
    if any(len(tokens) == 0 for tokens in token_strings):
        return None

    upper_bound = min(max_tokens, min(len(tokens) for tokens in token_strings))
    id_strings = _token_ids(token_strings)
    low, high = 1, upper_bound
    best: Optional[CommonWindow] = None
    while low <= high:
        middle = (low + high) // 2
        found = _find_window_of_length(token_strings, middle,
                                       id_strings=id_strings)
        if found is not None:
            best = found
            low = middle + 1
        else:
            high = middle - 1

    if best is None:
        # Linear probe over small lengths in case the binary search was
        # unlucky with non-monotonicity near the bottom.
        for length in range(min(8, upper_bound), 0, -1):
            found = _find_window_of_length(token_strings, length,
                                           id_strings=id_strings)
            if found is not None:
                return found
        return None
    return best

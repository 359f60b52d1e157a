"""The per-gram hashing and rescan-every-window winnowing, kept as the test oracle.

These were ``kgrams``/``_hash_kgram``/``kgram_hashes``/``winnow`` of
``repro.winnowing.fingerprint`` until k-grams of ASCII text were hashed from
one ``bytes`` buffer and ``winnow`` started sliding its minimum; the
functions are unchanged below and are what
``tests/test_winnow_differential.py`` holds the new ones equal to, value for
value and position for position.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Sequence, Tuple

DEFAULT_K = 8
DEFAULT_WINDOW = 12


def kgrams(text: str, k: int = DEFAULT_K) -> Iterator[str]:
    """Yield all k-grams of ``text`` (after normalization by the caller)."""
    if k <= 0:
        raise ValueError("k must be positive")
    for index in range(0, max(0, len(text) - k + 1)):
        yield text[index:index + k]


def _hash_kgram(gram: str) -> int:
    """Stable 64-bit hash of a k-gram.

    ``hash()`` is randomized per process, which would make fingerprints
    non-reproducible across runs, so we use blake2b truncated to 8 bytes.
    """
    digest = hashlib.blake2b(gram.encode("utf-8", "replace"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def kgram_hashes(text: str, k: int = DEFAULT_K) -> List[int]:
    """Hash every k-gram of the (already normalized) text."""
    return [_hash_kgram(gram) for gram in kgrams(text, k)]


def winnow(hashes: Sequence[int], window: int = DEFAULT_WINDOW) -> List[Tuple[int, int]]:
    """Select fingerprints from a hash sequence using winnowing.

    Returns ``(hash, position)`` pairs.  Within each window the minimum hash
    is selected; when the same minimum persists across consecutive windows it
    is only recorded once (the standard "record rightmost minimum only when
    it changes" rule).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if not hashes:
        return []
    if len(hashes) <= window:
        # Degenerate short document: record the single global minimum.
        min_value = min(hashes)
        # rightmost occurrence of the minimum
        position = len(hashes) - 1 - hashes[::-1].index(min_value)
        return [(min_value, position)]

    selected: List[Tuple[int, int]] = []
    last_recorded_position = -1
    for start in range(0, len(hashes) - window + 1):
        window_slice = hashes[start:start + window]
        min_value = min(window_slice)
        # rightmost occurrence inside the window
        offset = window - 1 - window_slice[::-1].index(min_value)
        position = start + offset
        if position != last_recorded_position:
            selected.append((min_value, position))
            last_recorded_position = position
    return selected

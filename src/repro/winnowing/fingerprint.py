"""k-gram hashing and the winnowing selection algorithm.

Winnowing (Schleimer et al., SIGMOD 2003) fingerprints a document by hashing
all k-grams and, within every window of ``w`` consecutive k-gram hashes,
selecting the minimum hash (rightmost occurrence on ties).  The guarantee is
that any shared substring of length at least ``w + k - 1`` produces at least
one shared fingerprint, while the expected density of selected hashes is
``2 / (w + 1)``.

We fingerprint the *normalized text* of unpacked samples: whitespace is
removed and the text is lower-cased, which mirrors how plagiarism detectors
neutralize layout noise and how the paper's Figure 15 false positive shows
overlap being computed on code text.

Fingerprint values decide every cluster label, so the two shortcuts taken
here produce the plain definition's values, not approximations:
:func:`kgram_hashes` slices the k-grams of ASCII text out of one encoded
buffer (same bytes, same ``blake2b(digest_size=8)``, read big-endian), and
:func:`winnow` carries the rightmost window minimum along and rescans a
window only when the minimum has left it.  The per-gram hashing and the
rescan-every-window loop live on as ``tests/oracle_winnow.py``, which
``tests/test_winnow_differential.py`` holds these equal to.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

DEFAULT_K = 8
DEFAULT_WINDOW = 12

_WHITESPACE_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Normalize text before fingerprinting: drop whitespace, lower-case."""
    return _WHITESPACE_RE.sub("", text).lower()


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
    """Hash every k-gram of the (already normalized) text.

    In ASCII text a character is a byte, so the k-grams are slices of one
    encoded buffer; elsewhere a k-gram of characters is not a fixed-width
    slice of the encoded text and each gram is encoded by itself.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if not text.isascii():
        return [_hash_kgram(gram) for gram in kgrams(text, k)]
    data = text.encode("ascii")
    blake2b, from_bytes = hashlib.blake2b, int.from_bytes
    return [from_bytes(blake2b(data[index:index + k], digest_size=8).digest(),
                       "big")
            for index in range(len(data) - k + 1)]


def _rightmost_minimum(hashes: Sequence[int], start: int,
                       stop: int) -> Tuple[int, int]:
    """``(hash, position)`` of the rightmost minimum of ``hashes[start:stop]``."""
    window_slice = hashes[start:stop]
    min_value = min(window_slice)
    offset = len(window_slice) - 1 - window_slice[::-1].index(min_value)
    return min_value, start + offset


def winnow(hashes: Sequence[int], window: int = DEFAULT_WINDOW) -> List[Tuple[int, int]]:
    """Select fingerprints from a hash sequence using winnowing.

    Returns ``(hash, position)`` pairs.  Within each window the minimum hash
    is selected; when the same minimum persists across consecutive windows it
    is only recorded once (the standard "record rightmost minimum only when
    it changes" rule).  A document no longer than one window records its
    single global minimum.

    The rightmost minimum is kept while the window slides: an entering hash
    ``<=`` the minimum replaces it, a larger one changes nothing until the
    minimum leaves the window, and only then is the window rescanned.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if not hashes:
        return []
    min_value, position = _rightmost_minimum(hashes, 0, window)
    selected = [(min_value, position)]
    for entering in range(window, len(hashes)):
        if hashes[entering] <= min_value:
            min_value, position = hashes[entering], entering
        elif position <= entering - window:
            min_value, position = _rightmost_minimum(
                hashes, entering - window + 1, entering + 1)
        else:
            continue
        selected.append((min_value, position))
    return selected


@dataclass
class Fingerprint:
    """A winnow fingerprint of a single document.

    Attributes
    ----------
    hashes:
        Multiset of selected fingerprint hashes as a ``hash -> count`` map.
    k, window:
        The parameters used to compute the fingerprint; similarity between
        fingerprints computed with different parameters is rejected.
    size:
        Total number of selected fingerprints (with multiplicity).
    """

    hashes: Dict[int, int] = field(default_factory=dict)
    k: int = DEFAULT_K
    window: int = DEFAULT_WINDOW

    @property
    def size(self) -> int:
        return sum(self.hashes.values())

    @classmethod
    def of(cls, text: str, k: int = DEFAULT_K,
           window: int = DEFAULT_WINDOW) -> "Fingerprint":
        """Fingerprint a document (text is normalized internally)."""
        normalized = normalize_text(text)
        selected = winnow(kgram_hashes(normalized, k), window)
        counts: Dict[int, int] = {}
        for value, _position in selected:
            counts[value] = counts.get(value, 0) + 1
        return cls(hashes=counts, k=k, window=window)

    def merge(self, other: "Fingerprint") -> "Fingerprint":
        """Combine two fingerprints (used to build family reference sets)."""
        self._check_compatible(other)
        merged = dict(self.hashes)
        for value, count in other.hashes.items():
            merged[value] = merged.get(value, 0) + count
        return Fingerprint(hashes=merged, k=self.k, window=self.window)

    def intersection_size(self, other: "Fingerprint") -> int:
        """Size of the multiset intersection of two fingerprints."""
        self._check_compatible(other)
        mine, theirs = self.hashes, other.hashes
        total = 0
        for value in mine.keys() & theirs.keys():
            count, other_count = mine[value], theirs[value]
            total += count if count < other_count else other_count
        return total

    def _check_compatible(self, other: "Fingerprint") -> None:
        if self.k != other.k or self.window != other.window:
            raise ValueError(
                "cannot compare fingerprints with different parameters: "
                f"(k={self.k}, w={self.window}) vs (k={other.k}, w={other.window})"
            )

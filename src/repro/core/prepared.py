"""Once-per-content scanner normal forms for the warm pipeline.

The shedding stage, the coverage check before compiling and the same-day
evaluation scans all normalize the same contents.  A :class:`PreparedCache`
memoizes the two normal forms the scanner reads — the fast form
(:func:`~repro.scanner.normalizer.fast_normalize`) and the exact form
(:func:`~repro.scanner.normalizer.normalize_for_scan`) — per unique content,
so each is derived at most once per content within the cache bound.

It holds no token lists: the abstract token strings DBSCAN clusters are
lexed inside each partition's map (the paper's per-machine tokenization),
and compile reads the cluster's strings plus a lex bounded by its window.
Both forms are exact; the cache never changes results, only cost.  Entries
are evicted LRU once ``max_entries`` is exceeded, so a month of daily
batches cannot grow the cache without bound.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable

from repro.scanner.normalizer import fast_normalize, normalize_for_scan


class _LRUTable:
    """A bounded LRU mapping content -> derived string."""

    __slots__ = ("maxsize", "_entries", "hits", "misses")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str, compute: Callable[[str], str]) -> str:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = compute(key)
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class PreparedCache:
    """Memoized scanner normal forms shared across pipeline stages."""

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._normalized = _LRUTable(max_entries)
        self._fast = _LRUTable(max_entries)

    # ------------------------------------------------------------------
    def normalized(self, content: str) -> str:
        """The exact scanner normal form of ``content`` (memoized)."""
        return self._normalized.get(content, normalize_for_scan)

    def fast_normalized(self, content: str) -> str:
        """The ``re.split``-based fast normal form (memoized)."""
        return self._fast.get(content, fast_normalize)

    # ------------------------------------------------------------------
    @staticmethod
    def content_key(content: str) -> bytes:
        """A stable digest of raw content, for known-sample ledgers.

        128-bit blake2b: at paper-scale volumes (tens of millions of
        distinct contents per month) a 32-bit digest would collide with
        near-certainty and silently shed a novel sample as known content;
        at 128 bits the birthday bound is out of reach.
        """
        return hashlib.blake2b(
            content.encode("utf-8", "surrogatepass"),
            digest_size=16).digest()

    def stats(self) -> dict:
        """Hit/miss counters per normal-form table (each ``normalized``
        miss is one full lexer run; a ``fast`` miss never enters the
        lexer)."""
        return {
            "normalized_hits": self._normalized.hits,
            "normalized_misses": self._normalized.misses,
            "fast_hits": self._fast.hits,
            "fast_misses": self._fast.misses,
        }

    def clear(self) -> None:
        self._normalized.clear()
        self._fast.clear()

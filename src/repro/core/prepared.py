"""Once-per-content preparation cache for the daily pipeline.

Profiling the month experiment showed the dominant cost to be the lexer:
each sample used to be tokenized up to four times per day (abstract token
string for clustering, scanner normalization in the pipeline's coverage
check, and once more per scan engine in the evaluation harness).  The
:class:`PreparedCache` memoizes every derived form per unique content so the
lexer runs at most once per content per day regardless of how many stages
look at the same sample — and, for workloads where content repeats across
days (replays, steady-state grayware), at most once per content overall
within the cache bound.

All three derived forms are exact; the cache never changes results, only
cost.  Entries are evicted LRU once ``max_entries`` is exceeded, so a
month of daily batches cannot grow the cache without bound.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.jstoken.normalizer import abstract_tokens_of, tokenize_sample
from repro.jstoken.tokens import Token
from repro.scanner.normalizer import fast_normalize, normalize_tokens


class _LRUTable:
    """A bounded LRU mapping content -> derived string/tuple."""

    __slots__ = ("maxsize", "_entries", "hits", "misses")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str, compute: Callable[[str], object]) -> object:
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
    """Memoized per-content derived forms shared across pipeline stages.

    The lexer runs at most once per content (:meth:`raw_tokens`); the other
    forms — ``abstract_tokens`` for clustering, ``normalized`` for the exact
    scanner, ``fast_normalized`` for the warm scan path — are derived from
    the raw token list (or, for the fast form, from one C-level ``re.split``
    pass that never enters the lexer) and memoized separately so repeated
    consumers pay a dictionary lookup.
    """

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._raw = _LRUTable(max_entries)
        self._tokens = _LRUTable(max_entries)
        self._normalized = _LRUTable(max_entries)
        self._fast = _LRUTable(max_entries)

    # ------------------------------------------------------------------
    def raw_tokens(self, content: str) -> List[Token]:
        """The significant token list of ``content`` (the one lexer run)."""
        return self._raw.get(content, tokenize_sample)

    def abstract_tokens(self, content: str) -> Tuple[str, ...]:
        """The abstract token string of ``content`` (memoized)."""
        return self._tokens.get(
            content, lambda text: abstract_tokens_of(self.raw_tokens(text)))

    def normalized(self, content: str) -> str:
        """The exact scanner normal form of ``content`` (memoized)."""
        return self._normalized.get(
            content, lambda text: normalize_tokens(self.raw_tokens(text)))

    def fast_normalized(self, content: str) -> str:
        """The ``re.split``-based fast normal form of ``content`` (memoized)."""
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
        """Hit/miss counters per table (``raw_misses`` is the one that
        matters: each miss there is one full lexer run)."""
        return {
            "raw_hits": self._raw.hits,
            "raw_misses": self._raw.misses,
            "tokens_hits": self._tokens.hits,
            "tokens_misses": self._tokens.misses,
            "normalized_hits": self._normalized.hits,
            "normalized_misses": self._normalized.misses,
            "fast_hits": self._fast.hits,
            "fast_misses": self._fast.misses,
        }

    def clear(self) -> None:
        self._raw.clear()
        self._tokens.clear()
        self._normalized.clear()
        self._fast.clear()

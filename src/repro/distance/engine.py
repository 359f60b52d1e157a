"""Pruned distance engine for the clustering stack.

The paper's daily loop is dominated by all-pairs token edit distance feeding
DBSCAN.  This module centralizes that workload behind one object,
:class:`DistanceEngine`, which layers cheap *exact* filters in front of the
expensive kernel.  The engine itself is strictly in-process: parallelism
lives one level up, where whole partitions ship to workers that each run
their own engine (:mod:`repro.exec`).

1. **identity** — equal token strings are distance 0 (duplicates are very
   common in a grayware stream);
2. **length filter** — ``abs(len(a) - len(b))`` lower-bounds the distance;
3. **token-bag filter** — the histogram surplus lower-bounds the distance
   (each edit changes at most one token on each side);
4. **q-gram filter** — each edit destroys at most ``q`` of a sequence's
   q-grams, so the q-gram-multiset surplus divided by ``q`` lower-bounds the
   distance (a sharper, position-sensitive version of the bag filter);
5. **bit-parallel kernel** — Myers' algorithm computes the exact distance in
   O(len(text)) big-int operations (:mod:`repro.distance.bitparallel`).

All filters are *integer-exact* with respect to the threshold
``t = int(epsilon * max(len(a), len(b)))`` used by the banded metric, so an
engine-backed DBSCAN produces byte-identical labels to the sequential
implementation (property-tested).

Because the kernel produces the exact distance rather than a thresholded
verdict, results are memoized in a bounded cache keyed by token content; a
cached pair answers *every* subsequent epsilon query (the epsilon ablation
sweeps four thresholds over the same batch and reuses most of the work).

Every filter can be disabled independently (``DistanceEngineConfig``) so the
benchmarks can attribute the speedup layer by layer, and
:class:`EngineStats` counts how many pairs each layer resolved.
"""

from __future__ import annotations

import itertools
from collections import Counter, OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.distance.bitparallel import PatternMask, bitparallel_edit_distance, \
    build_pattern_mask

TokenString = Tuple[str, ...]


# ----------------------------------------------------------------------
# configuration and accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DistanceEngineConfig:
    """Tuning knobs of the engine.

    Attributes
    ----------
    length_filter / bag_filter / qgram_filter:
        Ablation toggles for the three pruning layers.  All default on;
        turning one off never changes results, only cost.
    qgram_size:
        q-gram width of the positional prefilter (paper-scale token strings
        do well with 3).
    cache_size:
        Maximum number of memoized pair distances.  The cache is exact and
        content-addressed, so sharing it between engines is always sound.
    shared_cache:
        Use the process-wide shared cache (default) instead of a private
        one.  Ablation sweeps over the same batch hit it heavily.  A
        ``cache_size`` different from the default implies a private cache
        of that size (the shared cache's bound is never resized).
    workers:
        Not read by the engine, which never forks.  It is the default
        width of the *partition* pool: ``KizzleConfig.resolved_backend()``
        uses it when ``BackendConfig.workers`` is unset (``0`` means
        auto-detect, ``1`` keeps every partition inline).
    profile_cache_size:
        Maximum number of per-point feature profiles (token bag, q-gram
        counter, kernel bitmask) held by one engine; profiles are
        recomputable, so the table is simply reset when it fills (long-lived
        engines process months of daily batches).
    """

    length_filter: bool = True
    bag_filter: bool = True
    qgram_filter: bool = True
    qgram_size: int = 3
    cache_size: int = 1 << 18
    shared_cache: bool = True
    workers: int = 0
    profile_cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.qgram_size < 2:
            raise ValueError("qgram_size must be at least 2")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.profile_cache_size < 1:
            raise ValueError("profile_cache_size must be positive")


@dataclass
class EngineStats:
    """Per-layer accounting: how each pair query was resolved."""

    pairs: int = 0
    identical: int = 0
    length_pruned: int = 0
    cache_hits: int = 0
    bag_pruned: int = 0
    qgram_pruned: int = 0
    kernel_calls: int = 0

    def add(self, other: "EngineStats") -> None:
        for stat_field in fields(self):
            name = stat_field.name
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, int]:
        return {stat_field.name: getattr(self, stat_field.name)
                for stat_field in fields(self)}


# ----------------------------------------------------------------------
# point profiles
# ----------------------------------------------------------------------
class PointProfile:
    """Per-sequence features computed once and reused across every pair."""

    __slots__ = ("tokens", "length", "bag", "qgrams", "_mask")

    def __init__(self, tokens: TokenString, qgram_size: int) -> None:
        self.tokens = tokens
        self.length = len(tokens)
        self.bag = Counter(tokens)
        if self.length >= qgram_size:
            self.qgrams = Counter(
                tokens[i:i + qgram_size]
                for i in range(self.length - qgram_size + 1))
        else:
            self.qgrams = Counter()
        self._mask: Optional[PatternMask] = None

    @property
    def mask(self) -> PatternMask:
        if self._mask is None:
            self._mask = build_pattern_mask(self.tokens)
        return self._mask


def _kernel_distance(profile_a: PointProfile, profile_b: PointProfile) -> int:
    """The exact distance of two profiles, iterating the kernel over the
    longer side so the bit vectors cover the shorter one (smaller ints, same
    result)."""
    if profile_a.length > profile_b.length:
        profile_a, profile_b = profile_b, profile_a
    return bitparallel_edit_distance(profile_a.tokens, profile_b.tokens,
                                     profile_a.mask)


def _bag_surplus(a: Counter, b: Counter) -> int:
    """``max`` over both directions of the multiset difference size."""
    surplus_a = sum((a - b).values())
    surplus_b = sum((b - a).values())
    return max(surplus_a, surplus_b)


# ----------------------------------------------------------------------
# bounded, content-addressed pair cache
# ----------------------------------------------------------------------
class PairDistanceCache:
    """Bounded LRU mapping unordered token-string pairs to exact distances.

    Keys are the token tuples themselves, so the cache is valid across
    engines, epsilons and runs: an exact distance for the same content never
    goes stale.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[TokenString, TokenString], int]" = \
            OrderedDict()

    @staticmethod
    def key(a: TokenString, b: TokenString
            ) -> Tuple[TokenString, TokenString]:
        # Canonical unordered key; compare lengths first so the common case
        # never touches tuple contents.
        if (len(a), a) <= (len(b), b):
            return (a, b)
        return (b, a)

    def get(self, a: TokenString, b: TokenString) -> Optional[int]:
        if self.maxsize == 0:
            return None
        key = self.key(a, b)
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, a: TokenString, b: TokenString, distance: int) -> None:
        if self.maxsize == 0:
            return
        self._entries[self.key(a, b)] = distance
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> List[Tuple[TokenString, TokenString, int]]:
        """Every cached ``(a, b, distance)`` triple, oldest first.

        Exact and content-addressed, so the entries are valid in any other
        engine's cache — this is what lets a per-partition worker ship its
        computed distances back to the parent.
        """
        return [(a, b, distance)
                for (a, b), distance in self._entries.items()]

    def clear(self) -> None:
        self._entries.clear()


#: Process-wide cache shared by engines configured with ``shared_cache``.
_SHARED_CACHE = PairDistanceCache(maxsize=DistanceEngineConfig.cache_size)


# ----------------------------------------------------------------------
# the filter stack
# ----------------------------------------------------------------------
def decide_profiles(profile_a: PointProfile, profile_b: PointProfile,
                    threshold: int, config: DistanceEngineConfig,
                    cache: Optional[PairDistanceCache],
                    stats: EngineStats) -> Tuple[bool, Optional[int]]:
    """Run the filter stack for one pair.

    Returns ``(within, exact_distance)`` where the distance is ``None`` when
    a prefilter resolved the pair without computing it.  All comparisons are
    integer-exact against ``threshold``, matching the banded metric's
    ``int(epsilon * longest)`` semantics.
    """
    stats.pairs += 1
    if profile_a.tokens == profile_b.tokens:
        stats.identical += 1
        return True, 0
    if config.length_filter and \
            abs(profile_a.length - profile_b.length) > threshold:
        stats.length_pruned += 1
        return False, None
    if cache is not None:
        cached = cache.get(profile_a.tokens, profile_b.tokens)
        if cached is not None:
            stats.cache_hits += 1
            return cached <= threshold, cached
    if config.bag_filter and \
            _bag_surplus(profile_a.bag, profile_b.bag) > threshold:
        stats.bag_pruned += 1
        return False, None
    if config.qgram_filter and \
            _bag_surplus(profile_a.qgrams, profile_b.qgrams) > \
            config.qgram_size * threshold:
        stats.qgram_pruned += 1
        return False, None
    stats.kernel_calls += 1
    distance = _kernel_distance(profile_a, profile_b)
    if cache is not None:
        cache.put(profile_a.tokens, profile_b.tokens, distance)
    return distance <= threshold, distance


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class DistanceEngine:
    """Batched, pruned, memoized distance queries over token strings."""

    def __init__(self, config: Optional[DistanceEngineConfig] = None) -> None:
        self.config = config or DistanceEngineConfig()
        if self.config.shared_cache and \
                self.config.cache_size == _SHARED_CACHE.maxsize:
            self.cache = _SHARED_CACHE
        else:
            # A non-default size means the caller really wants that bound;
            # honouring it on the process-wide cache would resize it for
            # everyone, so such engines get a private cache instead.
            self.cache = PairDistanceCache(maxsize=self.config.cache_size)
        self.stats = EngineStats()
        #: worker label -> aggregated stats absorbed from that worker
        #: (cluster backend attribution; empty for purely local engines).
        self.remote_worker_stats: Dict[str, EngineStats] = {}
        self._profiles: Dict[TokenString, PointProfile] = {}

    # -- profiles -------------------------------------------------------
    def profile(self, tokens: Sequence[str]) -> PointProfile:
        key = tuple(tokens)
        profile = self._profiles.get(key)
        if profile is None:
            if len(self._profiles) >= self.config.profile_cache_size:
                self._profiles.clear()
            profile = PointProfile(key, self.config.qgram_size)
            self._profiles[key] = profile
        return profile

    # -- remote aggregation --------------------------------------------
    def export_cache(self) -> List[Tuple[TokenString, TokenString, int]]:
        """The cache's exact distances, for shipping to another engine."""
        return self.cache.items()

    def absorb_remote(self, stats: Dict[str, int],
                      cache_entries: Iterable[
                          Tuple[TokenString, TokenString, int]] = (),
                      worker: Optional[str] = None) -> None:
        """Merge a remote engine's accounting and distances into this one.

        Used by the partition-parallel map: each worker clusters its
        partition on a fresh engine and sends back ``stats.as_dict()`` plus
        :meth:`export_cache`.  Aggregating the stats keeps the per-layer
        attribution identical to inline execution (the pairs were genuinely
        decided, just elsewhere), and seeding the cache lets the in-process
        reduce step reuse the map phase's exact distances.

        ``worker`` optionally names the remote worker that produced the
        stats (the cluster backend passes its lease's worker id); named
        contributions additionally aggregate per worker in
        :attr:`remote_worker_stats`, so a multi-machine run can report how
        much distance work each machine actually did.
        """
        delta = EngineStats(**stats)
        self.stats.add(delta)
        if worker is not None:
            per_worker = self.remote_worker_stats.get(worker)
            if per_worker is None:
                per_worker = self.remote_worker_stats[worker] = EngineStats()
            per_worker.add(delta)
        for a, b, distance in cache_entries:
            self.cache.put(a, b, distance)

    # -- single-pair queries -------------------------------------------
    def exact_distance(self, a: Sequence[str], b: Sequence[str]) -> int:
        """Exact (unbounded) token edit distance, memoized."""
        profile_a, profile_b = self.profile(a), self.profile(b)
        if profile_a.tokens == profile_b.tokens:
            return 0
        cached = self.cache.get(profile_a.tokens, profile_b.tokens)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.kernel_calls += 1
        distance = _kernel_distance(profile_a, profile_b)
        self.cache.put(profile_a.tokens, profile_b.tokens, distance)
        return distance

    def within(self, a: Sequence[str], b: Sequence[str],
               epsilon: float) -> bool:
        """Whether the pair is within ``epsilon`` normalized distance.

        Decision-identical to ``TokenEditDistance.within``.
        """
        profile_a, profile_b = self.profile(a), self.profile(b)
        longest = max(profile_a.length, profile_b.length)
        if longest == 0:
            return True
        threshold = int(epsilon * longest)
        verdict, _ = decide_profiles(profile_a, profile_b, threshold,
                                      self.config, self.cache, self.stats)
        return verdict

    def distance(self, a: Sequence[str], b: Sequence[str],
                 max_normalized: Optional[float] = None) -> float:
        """Normalized distance in ``[0, 1]``.

        With ``max_normalized``, pairs provably beyond the threshold report
        ``1.0`` without exact work — mirroring
        ``normalized_edit_distance(..., max_normalized=...)``.
        """
        profile_a, profile_b = self.profile(a), self.profile(b)
        longest = max(profile_a.length, profile_b.length)
        if longest == 0:
            return 0.0
        if max_normalized is None:
            return self.exact_distance(a, b) / longest
        threshold = int(max_normalized * longest)
        verdict, exact = decide_profiles(profile_a, profile_b, threshold,
                                          self.config, self.cache, self.stats)
        if not verdict:
            return 1.0
        if exact is None:  # pragma: no cover - within verdicts carry a value
            exact = self.exact_distance(a, b)
        return exact / longest

    # -- batched queries ------------------------------------------------
    def neighbourhoods(self, points: Sequence[TokenString], epsilon: float
                       ) -> Tuple[List[List[int]], int]:
        """Adjacency lists of the epsilon-neighbourhood graph.

        Evaluates every unordered pair once (half the work of per-point
        neighbour queries).  Returns ``(neighbours, comparisons)`` where
        ``neighbours[i]`` lists the indices within epsilon of point ``i`` in
        ascending order, excluding ``i`` itself.
        """
        count = len(points)
        adjacency: List[List[int]] = [[] for _ in range(count)]
        for i, j, verdict in self._decide_all_pairs(points, epsilon):
            if verdict:
                adjacency[i].append(j)
                adjacency[j].append(i)
        for neighbours in adjacency:
            neighbours.sort()
        return adjacency, count * (count - 1) // 2

    def pairs_within(self, points: Sequence[TokenString], epsilon: float
                     ) -> Tuple[List[Tuple[int, int]], int]:
        """All unordered index pairs within ``epsilon`` of each other."""
        count = len(points)
        hits = [(i, j) for i, j, verdict
                in self._decide_all_pairs(points, epsilon) if verdict]
        return hits, count * (count - 1) // 2

    def _decide_all_pairs(self, points: Sequence[TokenString], epsilon: float
                          ) -> Iterable[Tuple[int, int, bool]]:
        """Decide every unordered pair, streaming the verdicts.

        The pair list is never materialized, so memory stays
        O(points + results).
        """
        profiles = [self.profile(point) for point in points]
        for i, j in itertools.combinations(range(len(profiles)), 2):
            profile_a, profile_b = profiles[i], profiles[j]
            threshold = int(epsilon * max(profile_a.length, profile_b.length))
            verdict, _ = decide_profiles(profile_a, profile_b, threshold,
                                          self.config, self.cache, self.stats)
            yield i, j, verdict

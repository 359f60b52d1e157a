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
4. **bit-parallel kernel** — Myers' algorithm computes the exact distance in
   O(len(text)) big-int operations (:mod:`repro.distance.bitparallel`).

Both filters are *integer-exact* with respect to the threshold
``t = int(epsilon * max(len(a), len(b)))`` of the reference banded metric
(``tests/oracle_distance.py``), so the engine's neighbourhood graph is the
reference's, pair for pair (property-tested).

Either filter can be disabled (``DistanceEngineConfig``) so the ablation can
attribute the speedup layer by layer, and :class:`EngineStats` counts how
many pairs each layer resolved.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.distance.bitparallel import PatternMask, bitparallel_edit_distance, \
    build_pattern_mask

TokenString = Tuple[str, ...]

#: Per-point profiles one engine holds before its table is reset; profiles
#: are recomputable, and long-lived engines process months of daily batches.
_PROFILE_TABLE_SIZE = 4096


# ----------------------------------------------------------------------
# configuration and accounting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DistanceEngineConfig:
    """Tuning knobs of the engine.

    Attributes
    ----------
    length_filter / bag_filter:
        Ablation toggles for the two pruning layers.  Both default on;
        turning one off never changes results, only cost.
    workers:
        Not read by the engine, which never forks.  It is the default
        width of the *partition* pool: ``KizzleConfig.resolved_backend()``
        uses it when ``BackendConfig.workers`` is unset (``0`` means
        auto-detect, ``1`` keeps every partition inline).
    """

    length_filter: bool = True
    bag_filter: bool = True
    workers: int = 0
    shared_cache: bool = True  # read by bench/ until ROADMAP item 2(d)

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be non-negative")


@dataclass
class EngineStats:
    """Per-layer accounting: how each pair query was resolved."""

    pairs: int = 0
    identical: int = 0
    length_pruned: int = 0
    cache_hits: int = 0  # read by bench/ until ROADMAP item 2(d)
    bag_pruned: int = 0
    qgram_pruned: int = 0  # read by bench/ until ROADMAP item 2(d)
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

    __slots__ = ("tokens", "length", "bag", "_mask")

    def __init__(self, tokens: TokenString) -> None:
        self.tokens = tokens
        self.length = len(tokens)
        self.bag = Counter(tokens)
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
# the filter stack
# ----------------------------------------------------------------------
def decide_profiles(profile_a: PointProfile, profile_b: PointProfile,
                    threshold: int, config: DistanceEngineConfig,
                    stats: EngineStats) -> Tuple[bool, Optional[int]]:
    """Run the filter stack for one pair.

    Returns ``(within, exact_distance)`` where the distance is ``None`` when
    a prefilter resolved the pair without computing it (a pair within the
    threshold always carries its distance).  All comparisons are
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
    if config.bag_filter and \
            _bag_surplus(profile_a.bag, profile_b.bag) > threshold:
        stats.bag_pruned += 1
        return False, None
    stats.kernel_calls += 1
    distance = _kernel_distance(profile_a, profile_b)
    return distance <= threshold, distance


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class DistanceEngine:
    """Batched, pruned distance queries over token strings."""

    def __init__(self, config: Optional[DistanceEngineConfig] = None) -> None:
        self.config = config or DistanceEngineConfig()
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
            if len(self._profiles) >= _PROFILE_TABLE_SIZE:
                self._profiles.clear()
            profile = PointProfile(key)
            self._profiles[key] = profile
        return profile

    # -- remote aggregation --------------------------------------------
    def absorb_remote(self, stats: Dict[str, int],
                      worker: Optional[str] = None) -> None:
        """Merge a remote engine's accounting into this one.

        Used by the partition-parallel map: each worker clusters its
        partition on a fresh engine and sends back ``stats.as_dict()``.
        Aggregating it keeps the per-layer attribution identical to inline
        execution (the pairs were genuinely decided, just elsewhere).

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

    # -- single-pair queries -------------------------------------------
    def exact_distance(self, a: Sequence[str], b: Sequence[str]) -> int:
        """Exact (unbounded) token edit distance."""
        profile_a, profile_b = self.profile(a), self.profile(b)
        if profile_a.tokens == profile_b.tokens:
            return 0
        self.stats.kernel_calls += 1
        return _kernel_distance(profile_a, profile_b)

    def within(self, a: Sequence[str], b: Sequence[str],
               epsilon: float) -> bool:
        """Whether the pair is within ``epsilon`` normalized distance.

        Decision-identical to the reference ``TokenEditDistance.within``.
        """
        profile_a, profile_b = self.profile(a), self.profile(b)
        longest = max(profile_a.length, profile_b.length)
        if longest == 0:
            return True
        threshold = int(epsilon * longest)
        verdict, _ = decide_profiles(profile_a, profile_b, threshold,
                                      self.config, self.stats)
        return verdict

    def distance(self, a: Sequence[str], b: Sequence[str],
                 max_normalized: Optional[float] = None) -> float:
        """Normalized distance in ``[0, 1]``.

        With ``max_normalized``, pairs provably beyond the threshold report
        ``1.0`` without exact work — mirroring the reference
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
                                          self.config, self.stats)
        return exact / longest if verdict else 1.0

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
                                          self.config, self.stats)
            yield i, j, verdict

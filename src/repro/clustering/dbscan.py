"""From-scratch DBSCAN over normalized token edit distance.

DBSCAN (Ester et al., KDD 1996) groups points that are density-reachable:
a *core point* has at least ``min_points`` neighbours within ``epsilon``;
clusters are maximal sets of points connected through core points; everything
else is noise.  The paper clusters abstract token strings with
``epsilon = 0.10`` (normalized edit distance).

Because our points are variable-length sequences rather than vectors, there
is no spatial index to lean on.  Instead the implementation exploits the
structural properties of the workload:

* exact duplicates are extremely common in a grayware stream (the same ad
  script or packer output appears thousands of times), so points are
  de-duplicated before the quadratic neighbour search and re-expanded
  afterwards;
* the epsilon-neighbourhood graph is built in one batched query against
  :class:`~repro.distance.engine.DistanceEngine`, which evaluates every
  unordered pair exactly once, in process, behind exact length and
  token-bag prefilters.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distance.engine import DistanceEngine

#: Cluster id assigned to noise points.
NOISE = -1


@dataclass
class DBSCANResult:
    """Outcome of a DBSCAN run.

    Attributes
    ----------
    labels:
        One cluster id per input point; :data:`NOISE` marks noise points.
    cluster_count:
        Number of clusters found (noise excluded).
    comparisons:
        Number of pairwise distance evaluations performed, reported so the
        distributed simulator can charge realistic work for the run.
    """

    labels: List[int]
    cluster_count: int
    comparisons: int = 0

    def members(self) -> Dict[int, List[int]]:
        """Map cluster id -> list of point indices (noise under ``NOISE``)."""
        groups: Dict[int, List[int]] = defaultdict(list)
        for index, label in enumerate(self.labels):
            groups[label].append(index)
        return dict(groups)


@dataclass
class DBSCAN:
    """Density-based clustering over token strings.

    Parameters
    ----------
    epsilon:
        Maximum normalized distance for two points to be neighbours.  The
        paper determined 0.10 experimentally.
    min_points:
        Minimum neighbourhood size (including the point itself) for a core
        point.  The paper's clusters need enough samples to generate a
        signature, so small values (2-4) are typical.
    engine:
        Distance engine to issue batched queries against; defaults to a
        fresh engine with default config.
    """

    epsilon: float = 0.10
    min_points: int = 3
    engine: Optional[DistanceEngine] = None
    _comparisons: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.min_points < 1:
            raise ValueError("min_points must be at least 1")
        if self.engine is None:
            self.engine = DistanceEngine()

    # ------------------------------------------------------------------
    def fit(self, points: Sequence[Tuple[str, ...]],
            weights: Optional[Sequence[int]] = None) -> DBSCANResult:
        """Cluster the given token strings.

        ``weights`` optionally assigns each point a multiplicity toward the
        ``min_points`` density requirement (default 1).  The incremental
        pipeline uses this to cluster *sentinel* points that stand in for a
        whole group of shed duplicates: a sentinel with weight ``w`` behaves
        exactly like ``w`` co-located copies, which is also how exact
        duplicates are already handled internally.
        """
        self._comparisons = 0
        unique_points, owners = self._deduplicate(points)
        if weights is None:
            unique_weights = [len(indices) for indices in owners]
        else:
            if len(weights) != len(points):
                raise ValueError("weights must match points")
            unique_weights = [sum(weights[index] for index in indices)
                              for indices in owners]
        unique_labels = self._cluster_unique(unique_points, unique_weights)
        labels = [NOISE] * len(points)
        for unique_index, point_indices in enumerate(owners):
            for point_index in point_indices:
                labels[point_index] = unique_labels[unique_index]
        cluster_count = len({label for label in labels if label != NOISE})
        return DBSCANResult(labels=labels, cluster_count=cluster_count,
                            comparisons=self._comparisons)

    # ------------------------------------------------------------------
    def _deduplicate(self, points: Sequence[Tuple[str, ...]]
                     ) -> Tuple[List[Tuple[str, ...]], List[List[int]]]:
        seen: Dict[Tuple[str, ...], int] = {}
        unique_points: List[Tuple[str, ...]] = []
        owners: List[List[int]] = []
        for index, point in enumerate(points):
            key = tuple(point)
            if key in seen:
                owners[seen[key]].append(index)
            else:
                seen[key] = len(unique_points)
                unique_points.append(key)
                owners.append([index])
        return unique_points, owners

    def _neighbourhoods(self, points: List[Tuple[str, ...]]
                        ) -> List[List[int]]:
        """Epsilon-neighbourhood adjacency for every unique point, from one
        batched engine query that evaluates each unordered pair once."""
        adjacency, comparisons = self.engine.neighbourhoods(points,
                                                            self.epsilon)
        self._comparisons += comparisons
        return adjacency

    def _cluster_unique(self, points: List[Tuple[str, ...]],
                        weights: List[int]) -> List[int]:
        # Weights: how many original samples each unique point represents.
        # They count toward the min_points density requirement.
        if not points:
            return []
        neighbourhoods = self._neighbourhoods(points)
        labels = [None] * len(points)  # type: List[Optional[int]]
        cluster_id = 0

        for index in range(len(points)):
            if labels[index] is not None:
                continue
            neighbours = neighbourhoods[index]
            density = weights[index] + sum(weights[n] for n in neighbours)
            if density < self.min_points:
                labels[index] = NOISE
                continue
            labels[index] = cluster_id
            seeds = list(neighbours)
            position = 0
            while position < len(seeds):
                candidate = seeds[position]
                position += 1
                if labels[candidate] == NOISE:
                    labels[candidate] = cluster_id
                if labels[candidate] is not None:
                    continue
                labels[candidate] = cluster_id
                candidate_neighbours = neighbourhoods[candidate]
                candidate_density = weights[candidate] + sum(
                    weights[n] for n in candidate_neighbours)
                if candidate_density >= self.min_points:
                    for extra in candidate_neighbours:
                        if labels[extra] is None or labels[extra] == NOISE:
                            seeds.append(extra)
            cluster_id += 1
        return [label if label is not None else NOISE for label in labels]

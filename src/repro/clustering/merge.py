"""Reduce step: reconcile clusters computed across partitions.

Because the daily batch is partitioned randomly, samples from the same kit
family end up in clusters on different machines.  The reduce step merges
per-partition clusters whose prototypes are within the DBSCAN epsilon of each
other, using a union-find over prototype comparisons.  The paper notes this
step is the pipeline's bottleneck since it runs on a single machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.distance.engine import DistanceEngine


class UnionFind:
    """Plain union-find with path compression, used for cluster merging."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self.parent[root_b] = root_a


def merge_clusters(per_partition: Sequence[Sequence["Cluster"]],
                   epsilon: float = 0.10,
                   engine: Optional[DistanceEngine] = None
                   ) -> Tuple[List["Cluster"], int]:
    """Merge clusters from multiple partitions.

    Two clusters are merged when their prototypes' token strings are within
    ``epsilon`` normalized edit distance.  The all-pairs prototype queries
    are issued as one batch against the distance engine.
    Returns the merged clusters (with fresh, dense cluster ids and
    recomputed prototypes) and the number of prototype comparisons
    performed.
    """
    from repro.clustering.partition import Cluster
    from repro.clustering.prototypes import select_prototype

    flat: List[Cluster] = [cluster for partition in per_partition
                           for cluster in partition]
    if not flat:
        return [], 0

    engine = engine or DistanceEngine()
    prototypes = [cluster.prototype.tokens for cluster in flat]
    hits, comparisons = engine.pairs_within(prototypes, epsilon)
    union = UnionFind(len(flat))
    for i, j in hits:
        union.union(i, j)

    groups: Dict[int, List[int]] = {}
    for index in range(len(flat)):
        groups.setdefault(union.find(index), []).append(index)

    merged: List[Cluster] = []
    for new_id, indices in enumerate(sorted(groups.values(),
                                            key=lambda idx: idx[0])):
        samples = [sample for index in indices for sample in flat[index].samples]
        prototype_index = select_prototype(
            [sample.tokens for sample in samples], engine=engine,
            weights=[sample.weight for sample in samples])
        merged.append(Cluster(cluster_id=new_id, samples=samples,
                              prototype_index=prototype_index))
    return merged, comparisons

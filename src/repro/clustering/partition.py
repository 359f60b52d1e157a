"""Distributed clustering: partitioning, per-partition DBSCAN, and the driver.

The first stage of Kizzle's pipeline randomly partitions the daily sample
batch across a cluster of machines, tokenizes and clusters each partition
independently, and reconciles the per-partition clusters in a reduce step
(paper, Section III-A and Figure 7).  :class:`DistributedClusterer` builds one
:class:`PartitionMapTask` per partition and hands the batch to an execution
backend (:mod:`repro.exec`), which decides where the tasks run and what
timing report comes back; :meth:`PartitionMapTask.run` is the only path from
the day loop to :func:`cluster_partition`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.clustering.dbscan import DBSCAN, NOISE
from repro.clustering.merge import merge_clusters
from repro.clustering.prototypes import select_prototype
from repro.distance.engine import DistanceEngine, DistanceEngineConfig
from repro.distsim import MapReduceReport
from repro.jstoken.normalizer import abstract_token_string

if TYPE_CHECKING:
    from repro.exec.backend import ExecutionBackend


@dataclass
class ClusteredSample:
    """A sample together with its tokenized representation.

    Attributes
    ----------
    sample_id:
        Opaque identifier supplied by the caller (e.g. telemetry record id).
    content:
        The raw sample (HTML document or JavaScript source).
    tokens:
        The abstract token string; computed in the partition map
        (:meth:`ensure_tokens`) if not supplied.
    weight:
        Multiplicity of the sample.  Ordinary samples weigh 1; the
        incremental pipeline collapses a group of shed near-duplicates into
        one *sentinel* sample whose weight is the group size, so density and
        prototype selection behave as if every copy were present.
    """

    sample_id: str
    content: str
    tokens: Tuple[str, ...] = field(default_factory=tuple)
    weight: int = 1

    @classmethod
    def from_content(cls, sample_id: str, content: str) -> "ClusteredSample":
        return cls(sample_id=sample_id, content=content,
                   tokens=abstract_token_string(content))

    def ensure_tokens(self) -> "ClusteredSample":
        if self.tokens:
            return self
        return ClusteredSample(sample_id=self.sample_id, content=self.content,
                               tokens=abstract_token_string(self.content),
                               weight=self.weight)


@dataclass
class Cluster:
    """A group of similar samples produced by the clustering stage."""

    cluster_id: int
    samples: List[ClusteredSample]
    prototype_index: int = 0

    @property
    def size(self) -> int:
        return len(self.samples)

    @property
    def weighted_size(self) -> int:
        """Total multiplicity including sentinel weights."""
        return sum(sample.weight for sample in self.samples)

    @property
    def prototype(self) -> ClusteredSample:
        return self.samples[self.prototype_index]

    def token_strings(self) -> List[Tuple[str, ...]]:
        return [sample.tokens for sample in self.samples]

    def contents(self) -> List[str]:
        return [sample.content for sample in self.samples]


def partition_samples(samples: Sequence[ClusteredSample], partitions: int,
                      seed: int = 0) -> List[List[ClusteredSample]]:
    """Randomly partition samples into roughly equal buckets.

    The shuffle is seeded so experiment runs are reproducible.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    shuffled = list(samples)
    random.Random(seed).shuffle(shuffled)
    buckets: List[List[ClusteredSample]] = [[] for _ in range(partitions)]
    for index, sample in enumerate(shuffled):
        buckets[index % partitions].append(sample)
    return [bucket for bucket in buckets if bucket]


def cluster_partition(samples: Sequence[ClusteredSample],
                      epsilon: float = 0.10,
                      min_points: int = 3,
                      engine: Optional[DistanceEngine] = None
                      ) -> Tuple[List[Cluster], int]:
    """Run DBSCAN over one partition.

    All neighbour queries are issued as one batch against ``engine`` (a
    fresh default engine when not supplied, so standalone callers keep
    working).  Returns the clusters found in this partition (noise points
    dropped) and the number of distance comparisons performed (the work
    accounting the timing model charges).
    """
    prepared = [sample.ensure_tokens() for sample in samples]
    if not prepared:
        return [], 0
    engine = engine or DistanceEngine()
    result = DBSCAN(epsilon=epsilon, min_points=min_points,
                    engine=engine).fit(
        [sample.tokens for sample in prepared],
        weights=[sample.weight for sample in prepared])
    clusters: List[Cluster] = []
    for label, indices in sorted(result.members().items()):
        if label == NOISE:
            continue
        members = [prepared[i] for i in indices]
        prototype_index = select_prototype([m.tokens for m in members],
                                           engine=engine,
                                           weights=[m.weight for m in members])
        clusters.append(Cluster(cluster_id=label, samples=members,
                                prototype_index=prototype_index))
    return clusters, result.comparisons


def partition_map_cost(tokens: int, samples: int, comparisons: int,
                       epsilon: float) -> float:
    """Abstract work units of one partition's map: comparisons weighted by
    the typical banded-DP cost per pair, from the partition's token total
    and sample count.  Recorded in the task's result, so the virtual
    machine time a report charges never depends on where the map actually
    ran."""
    average_length = tokens / max(1, samples)
    return comparisons * max(1.0, epsilon * average_length) * average_length


@dataclass
class PartitionMapResult:
    """What one per-partition map task sends back to the driver.

    Besides the clusters themselves, a task that ran on a task-private
    engine ships that engine's accounting (:attr:`stats`) so the driver's
    engine can merge it and keep the per-layer attribution whole.  A task
    that ran in process on the driver's own engine leaves it empty — that
    engine already counted the pairs.
    """

    index: int
    clusters: List[Cluster]
    comparisons: int
    cost: float
    output_bytes: float
    #: Abstract tokens over the partition's samples (sentinels count once):
    #: the pipeline sums them into the day's average token length, which
    #: prices the warm path's carry-forward probes.
    tokens: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    #: Which worker produced this result (cluster backend fills it in from
    #: the lease; local pool results leave it ``None``).  Drives per-worker
    #: stats attribution in :meth:`DistanceEngine.absorb_remote`.
    worker_id: Optional[str] = None


@dataclass
class PartitionMapTask:
    """One whole per-partition map, shippable to a child process.

    Self-contained and picklable: the samples (raw from the day loop, so the
    map lexes them), the DBSCAN parameters, and a worker-safe engine
    configuration travel with the task, so a persistent pool needs no
    per-day re-initialization.  :meth:`run` is the single execution path —
    the driver process, pool workers and cluster workers call exactly the
    same code, which is what makes every transport byte-identical by
    construction.
    """

    index: int
    samples: List[ClusteredSample]
    epsilon: float
    min_points: int
    engine_config: DistanceEngineConfig

    @property
    def input_bytes(self) -> float:
        """Size of the partition shipped to its machine (sample contents)."""
        return float(sum(len(sample.content) for sample in self.samples))

    def worker_engine(self) -> DistanceEngine:
        """A fresh engine for this task, whose stats go back to the
        parent."""
        return DistanceEngine(self.engine_config)

    def run(self, engine: Optional[DistanceEngine] = None,
            export: bool = True) -> PartitionMapResult:
        """Execute the map.  ``engine`` is the driver's shared engine when
        the task runs in process on it; a shipped task leaves it unset and
        runs on a fresh :meth:`worker_engine`.

        ``export=False`` is for the driver running the task on its own
        shared engine: the result then carries no stats, because absorbing
        an engine's own totals back into it would double count them.
        """
        if engine is None:
            engine = self.worker_engine()
        # Tokenization is part of the map (the paper's per-machine work):
        # the day loop ships partitions raw, and the tokenized forms feed
        # both DBSCAN below and the cost accounting.
        ready = [sample.ensure_tokens() for sample in self.samples]
        clusters, comparisons = cluster_partition(
            ready, epsilon=self.epsilon, min_points=self.min_points,
            engine=engine)
        tokens = sum(len(sample.tokens) for sample in ready)
        return PartitionMapResult(
            index=self.index,
            clusters=clusters,
            comparisons=comparisons,
            cost=partition_map_cost(tokens, len(ready), comparisons,
                                    self.epsilon),
            output_bytes=float(sum(len(cluster.prototype.content)
                                   for cluster in clusters)),
            tokens=tokens,
            stats=engine.stats.as_dict() if export else {})


class DistributedClusterer:
    """Partition + cluster + merge, executed through a pluggable backend.

    Parameters
    ----------
    epsilon, min_points:
        DBSCAN parameters (paper defaults: 0.10 and a small density
        requirement).
    seed:
        Seed for the random partitioning.
    engine_config:
        Distance-engine settings (the two prefilter toggles).  Each map
        task carries them to the engine it runs on; the reduce's merge
        runs on this clusterer's own engine, which also sums every map's
        stats.
    backend:
        The :class:`~repro.exec.backend.ExecutionBackend` the map/reduce
        structure runs through.  Defaults to the process backend, with
        the timeline modelled over ``machines`` machines (the paper's 50
        when unset).
    machines:
        Logical machine count governing the *default partition count*.
        Deliberately independent of the backend: partitioning shapes the
        clustering output (per-partition DBSCAN + merge), so it must be
        identical whether the partitions run in process, on a pool, or on
        a cluster.  Defaults to the backend's configured machine count.
    """

    #: Target number of samples per partition when the caller does not pin
    #: the partition count.  Partitioning a small batch across all machines
    #: would starve every partition below the DBSCAN density requirement and
    #: turn everything into noise, so the default adapts to the batch size.
    MIN_SAMPLES_PER_PARTITION = 50

    def __init__(self, epsilon: float = 0.10, min_points: int = 3,
                 seed: int = 0,
                 engine_config: Optional[DistanceEngineConfig] = None,
                 backend: Optional["ExecutionBackend"] = None,
                 machines: Optional[int] = None) -> None:
        from repro.exec.backend import BackendConfig, create_backend

        self.epsilon = epsilon
        self.min_points = min_points
        if backend is None:
            backend = create_backend(BackendConfig(machines=machines or 50))
        self.backend = backend
        # The logical machine count must not depend on the backend kind:
        # without an explicit value, every backend reads the same
        # configured one.
        self.machines = machines or backend.config.machines or 50
        self.seed = seed
        self.engine = DistanceEngine(engine_config)

    def run(self, samples: Sequence[ClusteredSample],
            partitions: Optional[int] = None
            ) -> Tuple[List[Cluster], MapReduceReport]:
        """Cluster a daily batch of samples.

        Every partition becomes one :class:`PartitionMapTask` and the batch
        goes to the backend, which runs the tasks wherever its transport
        puts them, merges the results in task order through
        :meth:`_reduce`, and reports the timing.  Returns the final merged
        clusters (with globally unique ids) and that report.
        """
        # Tokenization belongs to the *map*: each task tokenizes its own
        # partition (in process or in a worker), which is both what the
        # paper distributes and what lets a pool parallelize the lexer.
        # Partitioning only shuffles by seeded index, so partition
        # membership is independent of token state.
        if partitions is not None:
            partition_count = partitions
        else:
            partition_count = min(
                self.machines,
                max(1, len(samples) // self.MIN_SAMPLES_PER_PARTITION))
        tasks = [PartitionMapTask(index=index, samples=bucket,
                                  epsilon=self.epsilon,
                                  min_points=self.min_points,
                                  engine_config=self.engine.config)
                 for index, bucket in enumerate(partition_samples(
                     list(samples), partition_count, seed=self.seed))]

        before = self.engine.stats.as_dict()
        report = self.backend.run_mapreduce(tasks, self._reduce, self.engine)
        report.distance_stats = {
            name: value - before[name]
            for name, value in self.engine.stats.as_dict().items()}
        return report.reduce_value or [], report

    def _reduce(self, per_partition: List[List[Cluster]]
                ) -> Tuple[List[Cluster], float]:
        """Reconcile the per-partition clusters on the shared engine;
        returns the merged clusters and the reduce's abstract cost."""
        merged, comparisons = merge_clusters(per_partition,
                                             epsilon=self.epsilon,
                                             engine=self.engine)
        average_length = 1.0
        all_clusters = [cluster for part in per_partition for cluster in part]
        if all_clusters:
            average_length = sum(len(c.prototype.tokens)
                                 for c in all_clusters) / len(all_clusters)
        cost = comparisons * max(1.0, self.epsilon * average_length) \
            * average_length
        return merged, cost

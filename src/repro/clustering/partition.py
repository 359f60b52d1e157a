"""Distributed clustering: partitioning, per-partition DBSCAN, and the driver.

The first stage of Kizzle's pipeline randomly partitions the daily sample
batch across a cluster of machines, tokenizes and clusters each partition
independently, and reconciles the per-partition clusters in a reduce step
(paper, Section III-A and Figure 7).  :class:`DistributedClusterer` wires the
real clustering code into the :mod:`repro.distsim` simulator so that both the
clusters and the timing breakdown are produced in one run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, \
    TYPE_CHECKING

from repro.clustering.dbscan import DBSCAN, NOISE
from repro.clustering.merge import merge_clusters
from repro.clustering.prototypes import select_prototype
from repro.distance.engine import DistanceEngine, DistanceEngineConfig, \
    EngineStats
from repro.distsim.mapreduce import MapReduceReport, SimCluster
from repro.jstoken.normalizer import abstract_token_string

if TYPE_CHECKING:
    from repro.core.prepared import PreparedCache
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
        The abstract token string; computed lazily by the pipeline if not
        supplied.
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
    accounting used by the simulator).
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


def partition_map_cost(samples: Sequence[ClusteredSample],
                       comparisons: int, epsilon: float) -> float:
    """Abstract work units of one partition's map: comparisons weighted by
    the typical banded-DP cost per pair.  One formula shared by the inline
    map and the partition-parallel workers, so the simulated machine time a
    backend charges never depends on where the map actually ran."""
    average_length = (sum(len(sample.tokens) for sample in samples)
                      / max(1, len(samples)))
    return comparisons * max(1.0, epsilon * average_length) * average_length


@dataclass
class PartitionMapResult:
    """What one per-partition map task sends back to the driver.

    Besides the clusters themselves, the worker ships its distance-engine
    accounting (:attr:`stats`) and every exact distance it computed
    (:attr:`cache_entries`) so the parent engine can merge both: the stats
    keep the per-layer attribution whole, and the cache entries let the
    reduce step reuse distances the map phase already paid for — the same
    benefit the inline path gets from sharing one engine.
    """

    index: int
    clusters: List[Cluster]
    comparisons: int
    cost: float
    output_bytes: float
    stats: Dict[str, int] = field(default_factory=dict)
    cache_entries: List[Tuple[Tuple[str, ...], Tuple[str, ...], int]] = \
        field(default_factory=list)
    #: Which worker produced this result (cluster backend fills it in from
    #: the lease; local pool results leave it ``None``).  Drives per-worker
    #: stats attribution in :meth:`DistanceEngine.absorb_remote`.
    worker_id: Optional[str] = None


def chunk_seed(base_seed: int, chunk_index: int) -> int:
    """The deterministic RNG seed of one unit of shipped work.

    Derived from the base seed and the unit's position in the batch — not
    from the worker's identity — so the stream of random numbers any task
    sees is the same for every pool width and task placement.
    """
    return (base_seed * 1_000_003 + chunk_index) & 0x7FFFFFFF


@dataclass
class PartitionMapTask:
    """One whole per-partition map, shippable to a child process.

    Self-contained and picklable: the samples (already tokenized by the
    prepare stage), the DBSCAN parameters, and a worker-safe engine
    configuration travel with the task, so a persistent pool needs no
    per-day re-initialization.  :meth:`run` is the single execution path —
    pool workers and the serial fallback call exactly the same code, which
    is what makes partition-parallel execution byte-identical to inline by
    construction.
    """

    index: int
    samples: List[ClusteredSample]
    epsilon: float
    min_points: int
    engine_config: DistanceEngineConfig
    seed: int = 0

    def worker_engine(self) -> DistanceEngine:
        """A fresh engine for this task, with a private cache whose exact
        distances are exported back to the parent."""
        return DistanceEngine(replace(self.engine_config,
                                      shared_cache=False))

    def run(self, engine: Optional[DistanceEngine] = None,
            prepared: Optional["PreparedCache"] = None) -> PartitionMapResult:
        """Execute the map.  ``engine`` optionally supplies a caller-built
        engine (cluster workers pass one wrapping their persistent distance
        cache); ``prepared`` optionally supplies a tokenization cache —
        samples shipped without tokens (slim warm-affinity leases) re-derive
        them through it, and samples shipped with tokens seed it for the
        next day.  Tokens are a pure function of content either way, so
        every combination of arguments produces byte-identical results.
        """
        random.seed(chunk_seed(self.seed, self.index))
        if engine is None:
            engine = self.worker_engine()
        # Tokenization is part of the map (the paper's per-machine work):
        # partitions arrive raw from a cold start and prepared from the
        # warm path's cache, and either way the tokenized forms feed both
        # DBSCAN below and the cost accounting.
        if prepared is None:
            ready = [sample.ensure_tokens() for sample in self.samples]
        else:
            ready = []
            for sample in self.samples:
                if sample.tokens:
                    prepared.seed_abstract(sample.content, sample.tokens)
                    ready.append(sample)
                else:
                    ready.append(replace(
                        sample,
                        tokens=prepared.abstract_tokens(sample.content)))
        clusters, comparisons = cluster_partition(
            ready, epsilon=self.epsilon, min_points=self.min_points,
            engine=engine)
        return PartitionMapResult(
            index=self.index,
            clusters=clusters,
            comparisons=comparisons,
            cost=partition_map_cost(ready, comparisons, self.epsilon),
            output_bytes=float(sum(len(cluster.prototype.content)
                                   for cluster in clusters)),
            stats=engine.stats.as_dict(),
            cache_entries=engine.export_cache())


class DistributedClusterer:
    """Partition + cluster + merge, executed through a pluggable backend.

    Parameters
    ----------
    epsilon, min_points:
        DBSCAN parameters (paper defaults: 0.10 and a small density
        requirement).
    sim_cluster:
        Legacy construction path: a simulated machine pool, wrapped in a
        :class:`~repro.exec.distsim.DistsimBackend` when no ``backend`` is
        given.  Defaults to the paper's 50 machines.
    seed:
        Seed for the random partitioning.
    engine_config:
        Distance-engine settings (prefilter toggles, cache size).  One
        engine is shared across the map and reduce phases so the reduce
        step reuses distances the map phase already computed.
    backend:
        The :class:`~repro.exec.backend.ExecutionBackend` the map/reduce
        structure runs through.  Defaults to a distsim backend over
        ``sim_cluster`` — the seed reproduction's behaviour.
    machines:
        Logical machine count governing the *default partition count*.
        Deliberately independent of the backend: partitioning shapes the
        clustering output (per-partition DBSCAN + merge), so it must be
        identical whether the partitions run inline, on a pool, or on the
        simulator.  Defaults to the simulated pool size.
    """

    #: Target number of samples per partition when the caller does not pin
    #: the partition count.  Partitioning a small batch across all machines
    #: would starve every partition below the DBSCAN density requirement and
    #: turn everything into noise, so the default adapts to the batch size.
    MIN_SAMPLES_PER_PARTITION = 50

    #: Minimum partition size (samples) before *pre-tokenized* buckets are
    #: worth shipping to the partition pool: below this the per-partition
    #: DBSCAN is so cheap that pickling the contents out costs more than
    #: the overlap buys.  Untokenized buckets always fan out — lexing
    #: dominates and parallelizes perfectly.  Instance-tunable for tests.
    pooled_partition_min = 256

    def __init__(self, epsilon: float = 0.10, min_points: int = 3,
                 sim_cluster: Optional[SimCluster] = None,
                 seed: int = 0,
                 engine_config: Optional[DistanceEngineConfig] = None,
                 backend: Optional["ExecutionBackend"] = None,
                 machines: Optional[int] = None) -> None:
        from repro.exec.distsim import DistsimBackend

        self.epsilon = epsilon
        self.min_points = min_points
        if backend is None:
            backend = DistsimBackend.from_cluster(
                sim_cluster or SimCluster(machine_count=machines or 50))
        self.backend = backend
        if machines is not None:
            self.machines = machines
        else:
            # The logical machine count must not depend on the backend
            # kind: read the simulated pool when there is one, otherwise
            # the same configured value a distsim backend would have used.
            cluster = getattr(backend, "sim_cluster", None)
            if cluster is not None:
                self.machines = cluster.machine_count
            elif backend.config.machines is not None:
                self.machines = backend.config.machines
            else:
                self.machines = 50
        self.seed = seed
        self.engine = DistanceEngine(engine_config)

    @property
    def sim_cluster(self) -> SimCluster:
        """The simulated pool (a synthetic one for non-distsim backends)."""
        cluster = getattr(self.backend, "sim_cluster", None)
        if cluster is not None:
            return cluster
        return SimCluster(machine_count=self.machines)

    def run(self, samples: Sequence[ClusteredSample],
            partitions: Optional[int] = None
            ) -> Tuple[List[Cluster], MapReduceReport]:
        """Cluster a daily batch of samples.

        The map-over-partitions runs on the backend's partition executor
        (a persistent process pool) when one is supplied and the batch is
        worth fanning out; otherwise it runs inline through the backend's
        map/reduce driver.  Both paths execute the same per-partition code
        against the same buckets, so the merged clusters are byte-identical.
        Returns the final merged clusters (with globally unique ids) and the
        map/reduce timing report.
        """
        # Tokenization belongs to the *map*: each partition tokenizes its
        # own bucket (inline or in a pool worker), which is both what the
        # paper distributes and what lets the partition pool parallelize a
        # cold day's dominant cost.  Partitioning only shuffles by seeded
        # index, so bucket membership is independent of token state.
        if partitions is not None:
            partition_count = partitions
        else:
            partition_count = min(
                self.machines,
                max(1, len(samples) // self.MIN_SAMPLES_PER_PARTITION))
        buckets = partition_samples(list(samples), partition_count,
                                    seed=self.seed)

        def map_function(partition_items: Sequence[List[ClusteredSample]]
                         ) -> Tuple[List[Cluster], float, float]:
            # The map/reduce driver hands each partition a list of items; our
            # items are the pre-shuffled buckets, so flatten them back into a
            # single list of samples for this partition.
            bucket: List[ClusteredSample] = [
                sample.ensure_tokens() for item in partition_items
                for sample in item]
            clusters, comparisons = cluster_partition(
                bucket, epsilon=self.epsilon, min_points=self.min_points,
                engine=self.engine)
            cost = partition_map_cost(bucket, comparisons, self.epsilon)
            output_bytes = sum(len(cluster.prototype.content)
                               for cluster in clusters)
            return clusters, cost, output_bytes

        def reduce_function(per_partition: List[List[Cluster]]
                            ) -> Tuple[List[Cluster], float]:
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

        def item_bytes(bucket: List[ClusteredSample]) -> float:
            return float(sum(len(sample.content) for sample in bucket))

        before = EngineStats(**self.engine.stats.as_dict())
        executor = self.backend.partition_executor()
        if executor is not None and executor.should_engage(len(buckets)) \
                and self._worth_fanning_out(buckets):
            report = self._run_partition_parallel(buckets, executor,
                                                  reduce_function, item_bytes)
        else:
            report = self.backend.run_mapreduce(
                buckets, map_function, reduce_function, item_bytes=item_bytes)
        delta = EngineStats(**{
            name: value - getattr(before, name)
            for name, value in self.engine.stats.as_dict().items()})
        report.distance_stats = delta.as_dict()
        merged: List[Cluster] = report.reduce_value or []
        return merged, report

    def _worth_fanning_out(self, buckets: List[List[ClusteredSample]]
                           ) -> bool:
        """Whether shipping these buckets to the pool can pay for itself.

        Raw (untokenized) buckets always do — the map then carries the
        lexer, a cold day's dominant cost.  Pre-tokenized buckets (the warm
        path's cache output) only fan out when partitions are big enough
        for DBSCAN itself to outweigh the serialization overhead.
        """
        if any(not sample.tokens for bucket in buckets for sample in bucket):
            return True
        return max(len(bucket) for bucket in buckets) \
            >= self.pooled_partition_min

    def _run_partition_parallel(
            self, buckets: List[List[ClusteredSample]], executor,
            reduce_function: Callable[[List[List[Cluster]]],
                                      Tuple[List[Cluster], float]],
            item_bytes: Callable[[List[ClusteredSample]], float]
            ) -> MapReduceReport:
        """Fan the whole per-partition map out over the partition executor.

        Each partition's tokenize/DBSCAN/prototype work runs in a child
        process; the clusters come back with the worker's engine stats and
        every exact distance it computed, which are merged into the parent
        engine (so the reduce step reuses the map phase's distance work, as
        the inline path does through its shared engine).  The reduce itself
        stays in-process on the shared engine.
        """
        tasks = [PartitionMapTask(index=index, samples=bucket,
                                  epsilon=self.epsilon,
                                  min_points=self.min_points,
                                  engine_config=self.engine.config,
                                  seed=self.seed)
                 for index, bucket in enumerate(buckets)]
        results, pool_seconds = executor.run(tasks)
        for result in results:
            self.engine.absorb_remote(result.stats, result.cache_entries,
                                      worker=result.worker_id)
        return self.backend.run_partition_map(
            buckets, results, pool_seconds, executor.pool_width(),
            reduce_function, item_bytes)

"""The pluggable execution-backend interface.

The stage-graph pipeline (:mod:`repro.core.stages`) describes *what* the
daily loop does; an :class:`ExecutionBackend` decides *where* the work runs.
The unit of parallel work is always one whole partition map task
(:class:`~repro.clustering.partition.PartitionMapTask`).  Four
implementations share the interface:

* :class:`SerialBackend` — everything inline in one process, no
  simulation; the reference substrate every other backend must match byte
  for byte.
* :class:`~repro.exec.process.ProcessBackend` — partitions run on a
  persistent :mod:`multiprocessing` pool, each task seeded from its
  partition index so any worker count produces identical results.
* :class:`~repro.exec.distsim.DistsimBackend` — drives the
  :mod:`repro.distsim` scheduler/map-reduce simulator, so makespan and
  utilization reports come from real scheduled stage tasks rather than
  side-channel cost charging.  This is the default (it reproduces the
  paper's 50-machine timing model, and it is what the seed reproduction
  always did).
* :class:`~repro.exec.cluster.ClusterBackend` — true multi-machine
  execution: a TCP coordinator leases whole partition map tasks to
  :mod:`repro.exec.worker` processes on this or other hosts, with
  heartbeats, per-task deadlines and re-dispatch on worker loss
  (``tests/test_cluster_faults.py`` proves byte-identity under injected
  failures).

Backends only change *where and how fast* work executes, never its result:
cluster labels, signatures and per-day FP/FN are byte-identical across all
of them (asserted in ``tests/test_backends.py``).  Anything that affects
results — partition counts, shuffle seeds, epsilon — stays in
:class:`~repro.core.config.KizzleConfig` and is shared by every backend.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence

from repro.distsim.machine import MachineSpec
from repro.distsim.mapreduce import MapReduceReport

#: Recognized backend kinds, in CLI/help order.
BACKEND_KINDS = ("serial", "process", "distsim", "cluster")


@dataclass(frozen=True)
class BackendConfig:
    """Execution-substrate settings, resolved by the pipeline.

    Attributes
    ----------
    kind:
        ``"serial"``, ``"process"``, ``"distsim"`` (the default; it
        reproduces the seed behaviour, including the simulated timing
        model, and runs partitions on the process pool) or ``"cluster"``
        (real multi-machine execution over TCP workers; see
        :mod:`repro.exec.cluster`).
    machines:
        Size of the simulated machine pool (distsim) and the unit count
        extra stages are charged over.  ``None`` inherits
        ``KizzleConfig.machines``.  Note the *partition* count of the
        clustering stage always comes from ``KizzleConfig.machines`` so
        that clustering output never depends on the backend.
    workers:
        Width of the partition pool (process/distsim backends).  ``0``
        auto-detects; ``None`` inherits ``DistanceEngineConfig.workers``.
    partition_parallel:
        Run the *partition-level* map (tokenize + DBSCAN per partition) on
        a persistent worker pool instead of inline (process/distsim
        backends; the serial backend always runs inline).  On by default —
        results are byte-identical either way, and batches too small to
        amortize a fan-out (one partition, or one worker) stay inline
        automatically.
    listen:
        Cluster backend only: ``"host:port"`` the TCP coordinator binds
        (``None`` means loopback with an OS-assigned port; read the real
        address from ``ClusterBackend.address``).
    spawn_workers:
        Cluster backend only: localhost worker subprocesses the backend
        launches itself (``0`` means all workers are external — started
        by hand with ``python -m repro.exec.worker --connect host:port``).
    task_deadline_s / heartbeat_timeout_s / max_task_retries:
        Cluster backend only: per-lease execution deadline, maximum worker
        silence before it is declared dead, and the re-dispatch budget per
        task (see :class:`~repro.exec.cluster.ClusterCoordinator`).
    secret:
        Cluster backend only: shared wire secret — every frame between
        coordinator and workers is HMAC-authenticated under it and peers
        that cannot tag correctly are rejected before payload decode.
        ``None`` falls back to the ``REPRO_CLUSTER_SECRET`` environment
        variable; with neither set the wire still integrity-checks frames
        under a public default key (single-host development mode).
    affinity:
        Cluster backend only: prefer re-leasing repeat partitions to the
        worker that served them last and ship such leases token-stripped
        (the worker's persistent caches re-derive them).  Purely a
        warm-path optimization — results are byte-identical either way.
    """

    kind: str = "distsim"
    machines: Optional[int] = None
    workers: Optional[int] = None
    partition_parallel: bool = True
    listen: Optional[str] = None
    spawn_workers: int = 0
    task_deadline_s: float = 60.0
    heartbeat_timeout_s: float = 10.0
    max_task_retries: int = 3
    secret: Optional[str] = None
    affinity: bool = True

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend kind {self.kind!r}; "
                f"expected one of {', '.join(BACKEND_KINDS)}")
        if self.machines is not None and self.machines < 1:
            raise ValueError("machines must be at least 1")
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.spawn_workers < 0:
            raise ValueError("spawn_workers must be non-negative")
        if self.task_deadline_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("cluster deadlines must be positive")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be non-negative")

    def resolved(self, machines: int, workers: int) -> "BackendConfig":
        """A copy with every ``None`` field filled from pipeline defaults."""
        return replace(
            self,
            machines=self.machines if self.machines is not None else machines,
            workers=self.workers if self.workers is not None else workers)


class ExecutionBackend(abc.ABC):
    """Where stage work runs: inline, on a process pool, or simulated.

    The interface has three load-bearing methods:

    * :meth:`run_mapreduce` executes the clustering stage's scatter/map/
      gather/reduce structure and returns a
      :class:`~repro.distsim.mapreduce.MapReduceReport` (with
      ``reduce_value`` holding the merged clusters);
    * :meth:`simulate_stage` accounts an extra perfectly-parallel stage
      (shedding, carry-forward probes) against the backend's notion of the
      machine pool, recording virtual seconds in the report;
    * :meth:`partition_executor` supplies the partition-level map executor
      (``None`` keeps the map-over-partitions inline); backends whose
      executor engaged report the finished map through
      :meth:`run_partition_map`, which charges/records timing without
      re-executing the work.
    """

    #: Short identifier, also the CLI ``--backend`` value.
    name: str = "abstract"

    def __init__(self, config: BackendConfig) -> None:
        self.config = config

    # -- substrate ------------------------------------------------------
    @property
    def machine_spec(self) -> MachineSpec:
        """The machine model stage costs are converted with."""
        return MachineSpec()

    @property
    def charge_units(self) -> int:
        """Parallel width extra stage costs are spread over."""
        return 1

    def partition_executor(self):
        """Partition-level map executor (``None`` = map runs inline).

        When supplied, the clustering driver ships whole per-partition map
        tasks (tokenize + DBSCAN + prototypes) to the executor's persistent
        pool and hands the finished results to :meth:`run_partition_map`.
        """
        return None

    def close(self) -> None:
        """Release pooled resources (idempotent).  Backends without
        persistent substrate state have nothing to do."""

    # -- execution ------------------------------------------------------
    @abc.abstractmethod
    def run_mapreduce(self, buckets: Sequence[Any],
                      map_function: Callable[[Sequence[Any]], Any],
                      reduce_function: Callable[[List[Any]], Any],
                      item_bytes: Callable[[Any], float]) -> MapReduceReport:
        """Execute one map/reduce over pre-partitioned buckets.

        ``map_function`` receives a list of items (the backend hands each
        bucket through as a single item, matching
        :class:`~repro.distsim.mapreduce.MapReduceJob` semantics) and must
        return ``(value, cost, output_bytes)``; ``reduce_function`` receives
        the list of map values and returns ``(value, cost)``.  The report's
        ``reduce_value`` carries the reduce result.
        """

    @abc.abstractmethod
    def simulate_stage(self, report: MapReduceReport, name: str,
                       cost: float) -> float:
        """Account an extra perfectly-parallel stage of ``cost`` work units.

        Records the stage's virtual seconds in ``report.stage_seconds`` (and,
        for the simulator backend, per-stage utilization from the real
        scheduled tasks).  Returns the seconds charged.
        """

    def run_partition_map(self, buckets: Sequence[Any],
                          results: Sequence[Any], pool_seconds: float,
                          pool_width: int,
                          reduce_function: Callable[[List[Any]], Any],
                          item_bytes: Callable[[Any], float]
                          ) -> MapReduceReport:
        """Account a partition map that already ran on the partition pool.

        ``results`` carries one finished
        :class:`~repro.clustering.partition.PartitionMapResult` per bucket,
        in bucket order.  The map/reduce structure is replayed through
        :meth:`run_mapreduce` with a map function that simply returns each
        bucket's precomputed ``(clusters, cost, output_bytes)``: the
        simulator backend thereby keeps charging the recorded costs as
        simulated machine time (the paper's timing model is preserved even
        though the work ran on the real pool), while the reduce executes
        for real.  ``pool_seconds``/``pool_width`` record the measured wall
        clock and width of the real pool in the report.
        """
        by_bucket = {id(bucket): result
                     for bucket, result in zip(buckets, results)}

        def precomputed_map(partition_items: Sequence[Any]) -> Any:
            result = by_bucket[id(partition_items[0])]
            return result.clusters, result.cost, result.output_bytes

        report = self.run_mapreduce(buckets, precomputed_map,
                                    reduce_function, item_bytes)
        report.map_wall_seconds = pool_seconds
        report.map_workers = pool_width
        return report


class InlineBackend(ExecutionBackend):
    """Shared substrate for backends that execute map/reduce inline.

    Map and reduce run as plain function calls in submission order; the
    report's map/reduce times are measured wall clock and the network
    phases are zero (nothing is shipped anywhere).  Extra stages charge
    through :meth:`MapReduceReport.charge_stage` — the one place the
    cost-to-seconds formula lives — spread over :attr:`charge_units`.
    """

    def run_mapreduce(self, buckets: Sequence[Any],
                      map_function: Callable[[Sequence[Any]], Any],
                      reduce_function: Callable[[List[Any]], Any],
                      item_bytes: Callable[[Any], float]) -> MapReduceReport:
        started = time.perf_counter()
        map_values: List[Any] = []
        for bucket in buckets:
            value, _cost, _output_bytes = map_function([bucket])
            map_values.append(value)
        map_seconds = time.perf_counter() - started

        started = time.perf_counter()
        reduce_value, _reduce_cost = reduce_function(map_values)
        reduce_seconds = time.perf_counter() - started

        return MapReduceReport(
            machine_count=self.charge_units,
            partitions=max(1, len(buckets)),
            scatter_time=0.0,
            map_time=map_seconds,
            gather_time=0.0,
            reduce_time=reduce_seconds,
            reduce_value=reduce_value,
            backend=self.name,
        )

    def simulate_stage(self, report: MapReduceReport, name: str,
                       cost: float) -> float:
        return report.charge_stage(name, cost,
                                   machine_count=self.charge_units,
                                   spec=self.machine_spec)

    def run_partition_map(self, buckets, results, pool_seconds, pool_width,
                          reduce_function, item_bytes) -> MapReduceReport:
        """Inline backends report measured wall clock, so the map time is
        the real pool's wall clock rather than the near-zero cost of
        replaying precomputed values."""
        report = super().run_partition_map(buckets, results, pool_seconds,
                                           pool_width, reduce_function,
                                           item_bytes)
        report.map_time = pool_seconds
        return report


class SerialBackend(InlineBackend):
    """Run every stage inline in the current process — the reference
    substrate.  Report times are the measured wall clock."""

    name = "serial"


def create_backend(config: BackendConfig) -> ExecutionBackend:
    """Instantiate the backend named by ``config.kind``.

    Imports lazily so that ``repro.exec.backend`` stays importable from the
    configuration layer without dragging in multiprocessing plumbing.
    """
    if config.kind == "serial":
        return SerialBackend(config)
    if config.kind == "process":
        from repro.exec.process import ProcessBackend
        return ProcessBackend(config)
    if config.kind == "distsim":
        from repro.exec.distsim import DistsimBackend
        return DistsimBackend(config)
    if config.kind == "cluster":
        from repro.exec.cluster import ClusterBackend
        return ClusterBackend(config)
    raise ValueError(f"unknown backend kind {config.kind!r}")

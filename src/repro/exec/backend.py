"""The pluggable execution-backend interface.

The stage-graph pipeline (:mod:`repro.core.stages`) describes *what* the
daily loop does; an :class:`ExecutionBackend` decides *where* the work runs.
The clustering stage is one map over partitions plus one reduce (paper,
Section III-A, Figure 7), and there is one seam for it: every partition is a
:class:`~repro.clustering.partition.PartitionMapTask`, and
:meth:`ExecutionBackend.run_partition_map` is the only thing that differs
between the three transports:

* :class:`SerialBackend` — every task runs in the driver process on the
  clusterer's shared engine; the reference transport every other backend
  must match byte for byte.
* :class:`~repro.exec.process.ProcessBackend` (the default) — batches worth
  shipping run on a persistent :mod:`multiprocessing` pool; the rest run in
  process.
* :class:`~repro.exec.cluster.ClusterBackend` — true multi-machine
  execution: a TCP coordinator leases the tasks to
  :mod:`repro.exec.worker` processes on this or other hosts, with
  heartbeats, per-task deadlines and re-dispatch on worker loss
  (``tests/test_cluster_faults.py`` proves byte-identity under injected
  failures).

Every report carries the paper's 50-machine timeline, computed *after* the
map and reduce ran from the costs they recorded
(:func:`repro.distsim.virtual_timeline`) — the timing model observes a
transport, it is not one — with the seconds the run measurably took beside
it.

Backends only change *where and how fast* work executes, never its result:
results merge in task order whatever the completion order, so cluster
labels, signatures, per-day FP/FN and the virtual timeline are identical
across all of them (asserted in ``tests/test_backends.py``).  Anything that
affects results — partition counts, shuffle seeds, epsilon — stays in
:class:`~repro.core.config.KizzleConfig` and is shared by every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple, \
    TYPE_CHECKING

from repro.distsim import MapReduceReport, SimCluster, stage_seconds, \
    virtual_timeline

if TYPE_CHECKING:
    from repro.clustering.partition import PartitionMapResult, \
        PartitionMapTask
    from repro.distance.engine import DistanceEngine

#: Recognized backend kinds, in CLI/help order.
BACKEND_KINDS = ("serial", "process", "cluster")


@dataclass(frozen=True)
class BackendConfig:
    """Execution-transport settings, resolved by the pipeline.

    Attributes
    ----------
    kind:
        ``"serial"``, ``"process"`` (the default: whole partitions on a
        local process pool) or ``"cluster"`` (real multi-machine execution
        over TCP workers; see :mod:`repro.exec.cluster`).  The legacy
        spelling ``"distsim"`` — the timing model used to be a backend kind
        of its own, running on the pool transport — is stored as
        ``"process"``.
    machines:
        Size of the modelled machine pool every report's virtual timeline
        is computed over (:mod:`repro.distsim`).  ``None`` inherits
        ``KizzleConfig.machines``.  Note the *partition* count of the
        clustering stage always comes from ``KizzleConfig.machines`` so
        that clustering output never depends on the backend.
    workers:
        Width of the partition pool (process backend).  ``0``
        auto-detects; ``None`` inherits ``DistanceEngineConfig.workers``.
    partition_parallel:
        Let the process backend ship the partition map (tokenize + DBSCAN
        per partition) to a persistent worker pool.  On by default —
        results are byte-identical either way, and batches not worth
        shipping (one partition, or one worker) run in process
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
    """

    kind: str = "process"
    machines: Optional[int] = None
    workers: Optional[int] = None
    partition_parallel: bool = True
    listen: Optional[str] = None
    spawn_workers: int = 0
    task_deadline_s: float = 60.0
    heartbeat_timeout_s: float = 10.0
    max_task_retries: int = 3
    secret: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind == "distsim":
            object.__setattr__(self, "kind", "process")
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


class ExecutionBackend:
    """Where stage work runs: in process, on a process pool, or remotely.

    The interface has three load-bearing methods, and subclasses override
    only the first:

    * :meth:`run_partition_map` is the transport seam: it executes a batch
      of partition map tasks somewhere and returns their results in task
      order;
    * :meth:`run_mapreduce` is the one driver of the clustering stage — map
      through the seam, fold remote engine state back, reduce, report — and
      returns a :class:`~repro.distsim.MapReduceReport` (with
      ``reduce_value`` holding the merged clusters);
    * :meth:`simulate_stage` accounts an extra perfectly-parallel stage
      (shedding, carry-forward probes) against the modelled machine pool,
      recording virtual seconds in the report.

    The modelled pool (:attr:`virtual_pool`, ``config.machines`` machines,
    the paper's 50 when unset) is the same on every transport, so the
    virtual numbers in a report never depend on where the work ran.
    """

    #: Short identifier, also the CLI ``--backend`` value.
    name: str = "abstract"

    def __init__(self, config: BackendConfig) -> None:
        self.config = config
        self.virtual_pool = SimCluster(machine_count=config.machines or 50)

    # -- transport ------------------------------------------------------
    @property
    def ship_width(self) -> int:
        """Real worker width a shipped map runs with (reported as
        ``map_workers``; an in-process map always reports 1)."""
        return 1

    def close(self) -> None:
        """Release pooled resources (idempotent).  Backends without
        persistent transport state have nothing to do."""

    def run_partition_map(self, tasks: Sequence["PartitionMapTask"],
                          engine: "DistanceEngine"
                          ) -> List["PartitionMapResult"]:
        """Execute the tasks; return their results in task order.

        The base transport runs every task in this process on ``engine``,
        the clusterer's shared engine, which counts the map's pairs as it
        decides them.  Nothing is exported from that engine: copying its
        stats into each result only to absorb them back would double count
        them.  Overrides ship the batch elsewhere; their tasks run on
        task-private engines and the results carry that engine's stats
        home.
        """
        return [task.run(engine=engine, export=False) for task in tasks]

    # -- driver and timing model ----------------------------------------
    def run_mapreduce(self, tasks: Sequence["PartitionMapTask"],
                      reduce_function: Callable[[List[Any]],
                                                Tuple[Any, float]],
                      engine: "DistanceEngine") -> MapReduceReport:
        """Execute one map/reduce over pre-built partition tasks.

        ``reduce_function`` receives the per-partition cluster lists in
        task order and returns ``(value, cost)``; it runs in process on
        ``engine``.  The stats of shipped tasks are absorbed into
        ``engine`` first, in task order, so the per-layer accounting is
        what an in-process map gets from sharing the engine.  The report's
        four phases are the virtual timeline of the recorded costs; the
        measured map and reduce seconds sit beside them.
        """
        started = time.perf_counter()
        results = self.run_partition_map(tasks, engine)
        map_seconds = time.perf_counter() - started
        shipped = [result for result in results if result.stats]
        for result in shipped:
            engine.absorb_remote(result.stats, worker=result.worker_id)

        started = time.perf_counter()
        reduce_value, reduce_cost = reduce_function(
            [result.clusters for result in results])
        reduce_seconds = time.perf_counter() - started

        phases = virtual_timeline(
            self.virtual_pool,
            [task.input_bytes for task in tasks],
            [result.cost for result in results],
            [result.output_bytes for result in results],
            reduce_cost)
        return MapReduceReport(
            self.virtual_pool.machine_count, max(1, len(tasks)), *phases,
            reduce_value=reduce_value, backend=self.name,
            map_workers=self.ship_width if shipped else 1,
            map_wall_seconds=map_seconds, reduce_wall_seconds=reduce_seconds,
            token_total=sum(result.tokens for result in results))

    def simulate_stage(self, report: MapReduceReport, name: str,
                       cost: float) -> float:
        """Account an extra perfectly-parallel stage of ``cost`` work units.

        Adds the stage's virtual seconds on the modelled pool
        (:func:`repro.distsim.stage_seconds`) to ``report.stage_seconds``
        and returns them.
        """
        seconds = stage_seconds(self.virtual_pool, cost)
        report.stage_seconds[name] = report.stage_seconds.get(name, 0.0) \
            + seconds
        return seconds


class SerialBackend(ExecutionBackend):
    """Run every stage in the current process — the reference transport."""

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
    if config.kind == "cluster":
        from repro.exec.cluster import ClusterBackend
        return ClusterBackend(config)
    raise ValueError(f"unknown backend kind {config.kind!r}")

"""Simulated-cluster execution backend (the default).

Wraps the :mod:`repro.distsim` discrete-event simulator behind the
:class:`~repro.exec.backend.ExecutionBackend` interface: the clustering
stage runs through :class:`~repro.distsim.mapreduce.MapReduceJob` on a
:class:`~repro.distsim.mapreduce.SimCluster` exactly as the seed
reproduction did, and the extra pipeline stages (shedding, carry-forward
probes) are submitted as *real scheduled tasks* to a
:class:`~repro.distsim.scheduler.Scheduler` over the same machine pool — so
their makespan includes scheduling overhead and their per-machine
utilization is observable, instead of being a side-channel arithmetic
charge.

Real execution still uses real cores (the simulator models machine *time*,
not Python's speed): the partition-level map runs on the same persistent
:class:`~repro.exec.partition.PartitionPoolExecutor` the process backend
uses — with the recorded per-partition costs charged as simulated machine
time through :class:`MapReduceJob`.  A distsim day therefore runs as fast
as a process-backend day while also reporting the virtual 50-machine
timeline the paper describes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.distsim.machine import MachineSpec
from repro.distsim.mapreduce import MapReduceJob, MapReduceReport, SimCluster
from repro.distsim.scheduler import Scheduler, Task
from repro.exec.backend import BackendConfig, ExecutionBackend
from repro.exec.partition import PartitionPoolExecutor


class DistsimBackend(ExecutionBackend):
    """Execute stages on the simulated machine pool.

    An injected ``sim_cluster`` must agree with ``config.machines`` when
    both are given: the simulated pool size drives ``charge_units`` (what
    stage costs are spread over), so a silent mismatch would desynchronize
    the timing model from the configuration.
    """

    name = "distsim"

    def __init__(self, config: BackendConfig,
                 sim_cluster: Optional[SimCluster] = None) -> None:
        super().__init__(config)
        if sim_cluster is not None and config.machines is not None \
                and sim_cluster.machine_count != config.machines:
            raise ValueError(
                f"injected sim_cluster has {sim_cluster.machine_count} "
                f"machines but the backend config says {config.machines}; "
                f"pass a matching config (or leave machines unset to adopt "
                f"the cluster's size)")
        machines = config.machines if config.machines is not None else 50
        self.sim_cluster = sim_cluster or SimCluster(machine_count=machines)
        self._partition_executor = None
        if config.partition_parallel:
            self._partition_executor = PartitionPoolExecutor(
                workers=config.workers or 0)

    @classmethod
    def from_cluster(cls, sim_cluster: SimCluster) -> "DistsimBackend":
        """Wrap an existing simulated cluster (legacy construction path)."""
        config = BackendConfig(kind="distsim",
                               machines=sim_cluster.machine_count)
        return cls(config, sim_cluster=sim_cluster)

    # -- substrate ------------------------------------------------------
    @property
    def machine_spec(self) -> MachineSpec:
        return self.sim_cluster.machine_spec

    @property
    def charge_units(self) -> int:
        return self.sim_cluster.machine_count

    def partition_executor(self):
        return self._partition_executor

    def close(self) -> None:
        if self._partition_executor is not None:
            self._partition_executor.close()

    # -- execution ------------------------------------------------------
    def run_mapreduce(self, buckets: Sequence[Any],
                      map_function: Callable[[Sequence[Any]], Any],
                      reduce_function: Callable[[List[Any]], Any],
                      item_bytes: Callable[[Any], float]) -> MapReduceReport:
        job = MapReduceJob(self.sim_cluster, map_function, reduce_function)
        report = job.run(buckets, partitions=len(buckets),
                         item_bytes=item_bytes)
        report.backend = self.name
        return report

    def simulate_stage(self, report: MapReduceReport, name: str,
                       cost: float) -> float:
        """Schedule the stage as real tasks on the simulated pool.

        The stage is modelled as perfectly parallel: one task per machine,
        each carrying an equal share of the cost.  The recorded seconds are
        the scheduler's makespan (including per-task startup latency), and
        the pool's mean utilization over that makespan is kept in
        ``report.stage_utilization`` — both derived from actual scheduled
        tasks rather than a cost/`machines` division.
        """
        if cost <= 0:
            # A stage that did no work charges nothing — scheduling
            # zero-cost tasks would still bill per-task startup latency.
            report.stage_seconds.setdefault(name, 0.0)
            return 0.0
        machines = self.sim_cluster.machine_count
        scheduler = Scheduler(machines, spec=self.sim_cluster.machine_spec)
        share = cost / machines
        scheduler.run_tasks([
            Task(name=f"{name}-{index}", callable=lambda: None, cost=share)
            for index in range(machines)])
        seconds = scheduler.makespan
        report.stage_seconds[name] = report.stage_seconds.get(name, 0.0) \
            + seconds
        utilization = scheduler.utilization()
        if utilization:
            report.stage_utilization[name] = \
                sum(utilization.values()) / len(utilization)
        return seconds

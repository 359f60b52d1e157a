"""Simulated-cluster execution backend (the default).

Puts the :mod:`repro.distsim` timing model behind the
:class:`~repro.exec.backend.ExecutionBackend` interface as an *observer*:
the partition map runs on real cores through the same fork-pool transport
the process backend uses (the simulator models machine *time*, not Python's
speed), the reduce runs in process, and only afterwards is the paper's
50-machine scatter/map/gather/reduce timeline computed from the costs the
tasks recorded (:func:`~repro.distsim.mapreduce.virtual_timeline`).  A
distsim day therefore runs as fast as a process-backend day, and its virtual
timeline does not depend on where the map actually ran.

The extra pipeline stages (shedding, carry-forward probes) are submitted as
*real scheduled tasks* to a :class:`~repro.distsim.scheduler.Scheduler` over
the same machine pool — so their makespan includes scheduling overhead and
their per-machine utilization is observable, instead of being a
side-channel arithmetic charge.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.distsim.machine import MachineSpec
from repro.distsim.mapreduce import MapReduceReport, SimCluster, \
    virtual_timeline
from repro.distsim.scheduler import Scheduler, Task
from repro.exec.backend import BackendConfig, ExecutionBackend
from repro.exec.partition import PoolTransport


class DistsimBackend(PoolTransport, ExecutionBackend):
    """The pool transport, reported on the simulated machine pool.

    An injected ``sim_cluster`` (the way to simulate a non-default machine
    or network model) must agree with ``config.machines`` when both are
    given: the simulated pool size drives ``charge_units`` (what stage
    costs are spread over), so a silent mismatch would desynchronize the
    timing model from the configuration.  With ``machines`` unset the
    backend adopts the injected cluster's size.
    """

    name = "distsim"

    def __init__(self, config: BackendConfig,
                 sim_cluster: Optional[SimCluster] = None) -> None:
        if sim_cluster is not None and config.machines is not None \
                and sim_cluster.machine_count != config.machines:
            raise ValueError(
                f"injected sim_cluster has {sim_cluster.machine_count} "
                f"machines but the backend config says {config.machines}; "
                f"pass a matching config (or leave machines unset to adopt "
                f"the cluster's size)")
        self.sim_cluster = sim_cluster or SimCluster(
            machine_count=config.machines or 50)
        super().__init__(
            replace(config, machines=self.sim_cluster.machine_count))

    # -- substrate ------------------------------------------------------
    @property
    def machine_spec(self) -> MachineSpec:
        return self.sim_cluster.machine_spec

    @property
    def charge_units(self) -> int:
        return self.sim_cluster.machine_count

    # -- execution ------------------------------------------------------
    def _timeline(self, tasks, results, reduce_cost, map_seconds,
                  reduce_seconds) -> Tuple[float, float, float, float]:
        return virtual_timeline(
            self.sim_cluster,
            [task.input_bytes for task in tasks],
            [result.cost for result in results],
            [result.output_bytes for result in results],
            reduce_cost)

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

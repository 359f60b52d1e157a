"""The 50-machine timing model: pure functions of recorded costs.

The paper runs its clustering stage on 50 machines and reports that a daily
batch consistently completes in about 90 minutes, with the reduce
(cluster-reconciliation) step being the bottleneck (Section IV, "Cluster-Based
Processing Performance").  The pipeline is structured as: scatter samples to
machines, cluster each partition independently (map), then reconcile the
per-partition clusters on a single machine (reduce).

Nothing here executes or schedules anything.  The real computation runs on
whichever transport the execution backend provides (:mod:`repro.exec`) and
records abstract costs; :func:`virtual_timeline` and :func:`stage_seconds`
turn those costs into the seconds a pool of ``n`` machines would have taken,
so the timing model *observes* an execution instead of driving it — wherever
the work really ran, the same costs give the same timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a worker machine.

    A machine executes tasks one at a time (the paper's clustering workers
    are effectively single-threaded per partition).  The cost unit is
    deliberately abstract — the clustering layer reports the number of
    token-comparison operations it performed — so relative scaling across
    machine counts is faithful even though absolute times are synthetic.

    Attributes
    ----------
    ops_per_second:
        Abstract work units the machine retires per virtual second.  The
        default is calibrated so that a daily batch of a few thousand samples
        on 50 machines lands near the paper's ~90 minute wall-clock.
    startup_latency:
        Fixed time to provision/assign a task (scheduling overhead).
    """

    ops_per_second: float = 2_000_000.0
    startup_latency: float = 2.0


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth model for data movement between machines.

    A shared medium with a fixed per-transfer latency and a bandwidth in
    bytes per virtual second.  Intentionally simple — the observation to
    reproduce is only that the map phase parallelizes while the reduce phase
    serializes on one machine and on the transfer of intermediate results.
    """

    latency: float = 0.05
    bandwidth_bytes_per_second: float = 50_000_000.0

    def transfer_time(self, size_bytes: float) -> float:
        """Virtual seconds to transfer ``size_bytes`` between two machines."""
        if size_bytes < 0:
            raise ValueError("transfer size cannot be negative")
        return self.latency + size_bytes / self.bandwidth_bytes_per_second

    def scatter_time(self, total_bytes: float, machines: int) -> float:
        """Time to partition ``total_bytes`` across ``machines`` workers.

        Transfers to distinct workers proceed in parallel, so the scatter
        completes when one (even) share has crossed the network.
        """
        if machines <= 0:
            raise ValueError("machine count must be positive")
        return self.transfer_time(total_bytes / machines)

    def gather_time(self, per_machine_bytes: float, machines: int) -> float:
        """Time to collect per-machine outputs on a single reducer.

        The reducer's inbound link is the bottleneck: the transfers serialize
        on it, which is one of the reasons the paper identifies the reduce
        step as the bottleneck of the pipeline.
        """
        if machines <= 0:
            raise ValueError("machine count must be positive")
        return self.latency + (per_machine_bytes * machines) \
            / self.bandwidth_bytes_per_second


@dataclass
class SimCluster:
    """A pool of modelled machines plus a network model."""

    machine_count: int = 50
    machine_spec: MachineSpec = field(default_factory=MachineSpec)
    network: NetworkModel = field(default_factory=NetworkModel)

    def __post_init__(self) -> None:
        if self.machine_count <= 0:
            raise ValueError("machine_count must be positive")


def _task_seconds(spec: MachineSpec, cost: float) -> float:
    if cost < 0:
        raise ValueError("task cost cannot be negative")
    return spec.startup_latency + cost / spec.ops_per_second


def virtual_timeline(cluster: SimCluster, input_bytes: Sequence[float],
                     map_costs: Sequence[float],
                     output_bytes: Sequence[float], reduce_cost: float
                     ) -> Tuple[float, float, float, float]:
    """Virtual ``(scatter, map, gather, reduce)`` seconds of one job.

    A pure function of what a finished job recorded — per-task input
    bytes, map cost and output bytes (all in task order), plus the reduce
    cost.  The input is scattered evenly over the pool, the map tasks go to
    the least-loaded machine (lowest index on ties) in submission order,
    the reducer's inbound link serializes one largest-output transfer per
    task, and the reduce runs on a single machine.
    """
    network, spec = cluster.network, cluster.machine_spec
    scatter_time = network.scatter_time(sum(input_bytes),
                                        cluster.machine_count)
    busy_until = [0.0] * cluster.machine_count
    for cost in map_costs:
        machine = min(range(cluster.machine_count),
                      key=busy_until.__getitem__)
        busy_until[machine] += _task_seconds(spec, cost)
    gather_time = network.gather_time(max(output_bytes, default=0.0),
                                      len(output_bytes) or 1)
    return (scatter_time, max(busy_until), gather_time,
            _task_seconds(spec, reduce_cost))


def stage_seconds(cluster: SimCluster, cost: float) -> float:
    """Virtual seconds of an extra perfectly-parallel stage of ``cost`` work
    units: one task per machine, each carrying an equal share.

    A stage that did no work (zero, or a rounded-below-zero negative cost)
    charges nothing — not even the per-task startup latency.
    """
    if cost <= 0:
        return 0.0
    return _task_seconds(cluster.machine_spec, cost / cluster.machine_count)


@dataclass
class MapReduceReport:
    """Timing and accounting breakdown of one map/reduce execution.

    The four phase times and :attr:`stage_seconds` are *virtual* — the
    timeline of :attr:`machine_count` modelled machines — and mean the same
    thing on every execution backend; the ``*_wall_seconds`` fields beside
    them are what the run measurably took on this host.
    """

    machine_count: int
    partitions: int
    scatter_time: float
    map_time: float
    gather_time: float
    reduce_time: float
    reduce_value: Any = None
    #: Distance-engine accounting for the whole job (pairs per pruning
    #: layer, kernel calls), attached by engine-backed callers
    #: so benchmarks can attribute where the distance work went.
    distance_stats: Optional[Dict[str, int]] = None
    #: Extra pipeline stages charged against the same machine pool (the
    #: incremental path's shedding and absorption run before the map/reduce
    #: job but are real daily work; see :func:`stage_seconds`).  Virtual
    #: seconds per stage name; included in :attr:`total_time`.  Charging
    #: them keeps the virtual daily wall-clock honest: work the warm path
    #: *sheds* disappears from the total, work it merely *moves* does not.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Measured wall-clock per pipeline stage (shed/cluster/label/compile/
    #: finalize), attached by the pipeline so benchmarks can break an
    #: end-to-end day down without instrumenting it from outside.  Not part
    #: of the virtual :attr:`total_time`.
    wall_stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Which execution backend (transport) ran the job: ``serial`` /
    #: ``process`` / ``cluster``.
    backend: str = "process"
    #: Real worker-pool width the partition-level map executed with
    #: (``1`` = the map ran in the driver process).
    map_workers: int = 1
    #: Measured wall-clock seconds of the map and of the reduce, as the
    #: driver saw them (real time, not part of :attr:`total_time`).
    map_wall_seconds: float = 0.0
    reduce_wall_seconds: float = 0.0
    #: Abstract tokens over every sample the map clustered, as the tasks
    #: reported them (the pipeline prices carry-forward probes with it).
    token_total: int = 0

    @property
    def total_time(self) -> float:
        """End-to-end virtual wall-clock of the job (including any extra
        charged stages)."""
        return self.scatter_time + self.map_time + self.gather_time \
            + self.reduce_time + sum(self.stage_seconds.values())

    @property
    def reduce_fraction(self) -> float:
        """Share of total time spent gathering + reducing."""
        total = self.total_time
        if total <= 0:
            return 0.0
        return (self.gather_time + self.reduce_time) / total

    def summary(self) -> Dict[str, float]:
        """Flat summary dictionary suitable for benchmark reporting."""
        summary = {
            "machines": float(self.machine_count),
            "partitions": float(self.partitions),
            "scatter_s": self.scatter_time,
            "map_s": self.map_time,
            "gather_s": self.gather_time,
            "reduce_s": self.reduce_time,
            "total_s": self.total_time,
            "total_minutes": self.total_time / 60.0,
            "reduce_fraction": self.reduce_fraction,
        }
        if self.map_workers > 1:
            summary["map_workers"] = float(self.map_workers)
            summary["map_wall_s"] = self.map_wall_seconds
        if self.distance_stats:
            summary.update({f"distance_{name}": float(value)
                            for name, value in self.distance_stats.items()})
        for name, seconds in self.stage_seconds.items():
            summary[f"stage_{name}_s"] = seconds
        for name, seconds in self.wall_stage_seconds.items():
            summary[f"wall_{name}_s"] = seconds
        return summary

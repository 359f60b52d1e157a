"""Map/reduce timing model over the simulated cluster.

The clustering pipeline of the paper is structured as: scatter samples to
machines, cluster each partition independently (map), then reconcile the
per-partition clusters on a single machine (reduce).
:func:`virtual_timeline` turns the costs such a job recorded into the
scatter/map/gather/reduce breakdown that exposes the reduce bottleneck the
paper describes; :class:`MapReduceJob` is the standalone driver that runs
real map and reduce functions and reports that timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.distsim.machine import MachineSpec
from repro.distsim.network import NetworkModel
from repro.distsim.scheduler import Scheduler, Task


@dataclass
class MapReduceReport:
    """Timing and accounting breakdown of one map/reduce execution."""

    machine_count: int
    partitions: int
    scatter_time: float
    map_time: float
    gather_time: float
    reduce_time: float
    reduce_value: Any = None
    #: Distance-engine accounting for the whole job (pairs per pruning
    #: layer, cache hits, kernel calls), attached by engine-backed callers
    #: so benchmarks can attribute where the distance work went.
    distance_stats: Optional[Dict[str, int]] = None
    #: Extra pipeline stages charged against the same machine pool (the
    #: incremental path's shedding and absorption run before the map/reduce
    #: job but are real daily work; see :meth:`charge_stage`).  Virtual
    #: seconds per stage name; included in :attr:`total_time`.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Measured wall-clock per pipeline stage (shed/prepare/cluster/label/
    #: compile/finalize), attached by the pipeline so benchmarks can break an
    #: end-to-end day down without instrumenting it from outside.  Not part
    #: of the virtual :attr:`total_time`.
    wall_stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Which execution backend produced this report (``serial`` /
    #: ``process`` / ``distsim`` / ``cluster``).
    backend: str = "distsim"
    #: Mean machine utilization per extra charged stage, derived from the
    #: real scheduled tasks when the distsim backend simulates the stage.
    stage_utilization: Dict[str, float] = field(default_factory=dict)
    #: Real worker-pool width the partition-level map executed with
    #: (``1`` = the map ran inline in the driver process).
    map_workers: int = 1
    #: Measured wall-clock seconds of the partition-parallel map (the real
    #: pool, not simulated time); ``0.0`` when the map ran inline.
    map_wall_seconds: float = 0.0

    @property
    def total_time(self) -> float:
        """End-to-end virtual wall-clock of the job (including any extra
        charged stages)."""
        return self.scatter_time + self.map_time + self.gather_time \
            + self.reduce_time + sum(self.stage_seconds.values())

    def charge_stage(self, name: str, cost: float,
                     machine_count: Optional[int] = None,
                     spec: Optional[MachineSpec] = None) -> float:
        """Charge an extra perfectly-parallel stage against the pool.

        ``cost`` is in the same abstract work units as map/reduce task
        costs; it is spread over ``machine_count`` machines (default: the
        job's pool) and converted to virtual seconds with the machine spec.
        Returns the charged seconds.  Charging the incremental stages keeps
        the simulated daily wall-clock honest: work the warm path *sheds*
        disappears from the total, work it merely *moves* does not.
        """
        machines = machine_count or self.machine_count
        spec = spec or MachineSpec()
        seconds = (cost / max(1, machines)) / spec.ops_per_second
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
        return seconds

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
        for name, utilization in self.stage_utilization.items():
            summary[f"util_{name}"] = utilization
        return summary


@dataclass
class SimCluster:
    """A pool of simulated machines plus a network model."""

    machine_count: int = 50
    machine_spec: MachineSpec = field(default_factory=MachineSpec)
    network: NetworkModel = field(default_factory=NetworkModel)

    def __post_init__(self) -> None:
        if self.machine_count <= 0:
            raise ValueError("machine_count must be positive")


def virtual_timeline(cluster: SimCluster, input_bytes: Sequence[float],
                     map_costs: Sequence[float],
                     output_bytes: Sequence[float], reduce_cost: float
                     ) -> Tuple[float, float, float, float]:
    """Virtual ``(scatter, map, gather, reduce)`` seconds of one job.

    A pure function of what a finished job recorded — per-task input
    bytes, map cost and output bytes (all in task order), plus the reduce
    cost — so the timing model observes an execution instead of driving
    it: wherever the map really ran, the same costs give the same
    timeline.  The input is scattered evenly over the pool, the map tasks
    go to the least-loaded machine in submission order, the reducer's
    inbound link serializes one largest-output transfer per task, and the
    reduce runs on a single machine.
    """
    network, spec = cluster.network, cluster.machine_spec
    scatter_time = network.scatter_time(sum(input_bytes),
                                        cluster.machine_count)
    mappers = Scheduler(cluster.machine_count, spec=spec)
    # The work already happened; the tasks only carry its recorded cost.
    mappers.run_tasks([Task(name=f"map-{index}", callable=lambda: None,
                            cost=cost)
                       for index, cost in enumerate(map_costs)])
    gather_time = network.gather_time(max(output_bytes, default=0.0),
                                      len(output_bytes) or 1)
    reducer = Scheduler(1, spec=spec)
    reducer.run_tasks([Task(name="reduce", callable=lambda: None,
                            cost=reduce_cost)])
    return scatter_time, mappers.makespan, gather_time, reducer.makespan


class MapReduceJob:
    """Execute a map/reduce computation on a :class:`SimCluster`.

    Parameters
    ----------
    cluster:
        The simulated cluster to run on.
    map_function:
        Called once per partition with the partition's items; must return a
        tuple ``(value, cost, output_bytes)`` where ``cost`` is the abstract
        work performed and ``output_bytes`` the size of the intermediate
        result shipped to the reducer.
    reduce_function:
        Called once with the list of per-partition values; must return a
        tuple ``(value, cost)``.
    """

    def __init__(self, cluster: SimCluster,
                 map_function: Callable[[Sequence[Any]], Tuple[Any, float, float]],
                 reduce_function: Callable[[List[Any]], Tuple[Any, float]]) -> None:
        self.cluster = cluster
        self.map_function = map_function
        self.reduce_function = reduce_function

    def run(self, items: Sequence[Any],
            partitions: Optional[int] = None,
            item_bytes: Callable[[Any], float] = lambda item: float(len(str(item)))
            ) -> MapReduceReport:
        """Run the job over ``items``.

        ``partitions`` defaults to the machine count.  Items are assigned to
        partitions round-robin after the caller has already shuffled them if
        random partitioning is desired (the clustering layer shuffles with a
        seeded RNG so runs stay reproducible).  Map and reduce execute for
        real, in partition order; the report's times come from
        :func:`virtual_timeline` over the costs they returned.
        """
        partition_count = partitions or self.cluster.machine_count
        partition_count = max(1, min(partition_count, max(1, len(items))))
        buckets = [list(items[index::partition_count])
                   for index in range(min(partition_count, len(items)))]

        mapped = [self.map_function(bucket) for bucket in buckets]
        reduce_value, reduce_cost = self.reduce_function(
            [value for value, _cost, _output_bytes in mapped])
        phases = virtual_timeline(
            self.cluster,
            [sum(item_bytes(item) for item in bucket) for bucket in buckets],
            [cost for _value, cost, _output_bytes in mapped],
            [float(output_bytes) for _value, _cost, output_bytes in mapped],
            reduce_cost)
        return MapReduceReport(self.cluster.machine_count, partition_count,
                               *phases, reduce_value=reduce_value)

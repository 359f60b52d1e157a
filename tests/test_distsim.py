"""Tests for the 50-machine timing model (repro.distsim).

The model is a handful of pure functions; the golden literals below were
captured, to the last digit, from the commit that still computed them with a
scheduler over an event loop, and are asserted with ``==``.
"""

from __future__ import annotations

import pytest

from repro.distsim import (
    MachineSpec,
    MapReduceReport,
    NetworkModel,
    SimCluster,
    stage_seconds,
    virtual_timeline,
)
from repro.exec import BackendConfig, SerialBackend

UNIT_SPEC = MachineSpec(ops_per_second=1.0, startup_latency=0.0)


def map_seconds(cluster, costs):
    return virtual_timeline(cluster, [0.0] * len(costs), costs,
                            [0.0] * len(costs), 0.0)[1]


class TestMachine:
    def test_execution_time(self):
        """A task costs startup latency plus cost over the machine rate."""
        spec = MachineSpec(ops_per_second=100.0, startup_latency=1.0)
        assert stage_seconds(SimCluster(1, spec), 200.0) == pytest.approx(3.0)
        assert map_seconds(SimCluster(1, spec), [200.0]) == pytest.approx(3.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            map_seconds(SimCluster(1), [-1.0])
        with pytest.raises(ValueError):
            virtual_timeline(SimCluster(1), [], [], [], -1.0)

    def test_assign_serializes_tasks(self):
        """One machine executes its tasks one after the other."""
        cluster = SimCluster(1, MachineSpec(ops_per_second=100.0,
                                            startup_latency=0.0))
        assert map_seconds(cluster, [100.0]) == pytest.approx(1.0)
        assert map_seconds(cluster, [100.0, 100.0]) == pytest.approx(2.0)


class TestNetwork:
    def test_transfer_time(self):
        network = NetworkModel(latency=0.1, bandwidth_bytes_per_second=1000.0)
        assert network.transfer_time(500.0) == pytest.approx(0.6)

    def test_scatter_parallelizes(self):
        network = NetworkModel(latency=0.0, bandwidth_bytes_per_second=1000.0)
        one = network.scatter_time(10_000.0, 1)
        ten = network.scatter_time(10_000.0, 10)
        assert ten == pytest.approx(one / 10)

    def test_gather_serializes(self):
        network = NetworkModel(latency=0.0, bandwidth_bytes_per_second=1000.0)
        assert network.gather_time(100.0, 10) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        network = NetworkModel()
        with pytest.raises(ValueError):
            network.transfer_time(-1.0)
        with pytest.raises(ValueError):
            network.scatter_time(1.0, 0)
        with pytest.raises(ValueError):
            network.gather_time(1.0, 0)


class TestScheduler:
    """The map phase's placement policy: least-loaded machine first."""

    def test_tasks_spread_across_machines(self):
        assert map_seconds(SimCluster(4, UNIT_SPEC), [10.0] * 4) \
            == pytest.approx(10.0)

    def test_more_tasks_than_machines_queue(self):
        assert map_seconds(SimCluster(2, UNIT_SPEC), [5.0] * 4) \
            == pytest.approx(10.0)


class TestMapReduce:
    SPEC = MachineSpec(ops_per_second=1000.0, startup_latency=0.0)

    def job(self, machines, count):
        """The recorded costs of ``count`` unit items dealt round-robin over
        ``min(machines, count)`` partitions: ``(cluster, timeline args)``."""
        partitions = min(machines, count)
        sizes = [len(range(index, count, partitions))
                 for index in range(partitions)]
        return SimCluster(machines, self.SPEC), (
            [8.0 * size for size in sizes], [100.0 * size for size in sizes],
            [10.0 * size for size in sizes], 50.0 * partitions)

    def report(self, machines, count):
        cluster, recorded = self.job(machines, count)
        return MapReduceReport(machines, len(recorded[0]),
                               *virtual_timeline(cluster, *recorded))

    @pytest.mark.parametrize("machines,count", [(4, 100), (2, 200),
                                                (40, 200), (8, 3), (4, 0)])
    def test_virtual_timeline_is_a_pure_function_of_recorded_costs(
            self, machines, count):
        """Same recorded costs, same timeline — whatever sequence type
        carries them, however often it is asked, and without touching the
        inputs; the map phase is the largest partition's cost."""
        cluster, recorded = self.job(machines, count)
        before = [list(values) for values in recorded[:3]]
        timeline = virtual_timeline(cluster, *recorded)
        assert timeline == virtual_timeline(cluster, *recorded)
        assert timeline == virtual_timeline(
            SimCluster(machines, self.SPEC),
            *(tuple(values) for values in recorded[:3]), recorded[3])
        assert [list(values) for values in recorded[:3]] == before
        assert timeline[1] == (max(recorded[1]) / 1000.0 if count else 0.0)

    def test_scaling_reduces_map_time(self):
        assert self.report(20, 200).map_time < self.report(2, 200).map_time

    def test_reduce_fraction_grows_with_machines(self):
        """The reduce step is serial, so its share of the total grows as the
        map phase parallelizes — the paper's observed bottleneck."""
        assert self.report(40, 200).reduce_fraction \
            > self.report(2, 200).reduce_fraction

    def test_summary_keys(self):
        report = self.report(4, 10)
        report.stage_seconds["shed"] = 1.5
        report.wall_stage_seconds["cluster"] = 0.25
        summary = report.summary()
        for key in ("machines", "total_s", "reduce_fraction", "map_s",
                    "stage_shed_s", "wall_cluster_s"):
            assert key in summary
        assert not any(key.startswith("util_") for key in summary)

    def test_empty_items(self):
        """No tasks: both transfers pay latency only, nothing maps, and the
        reduce still provisions its machine."""
        cluster = SimCluster(4)
        assert virtual_timeline(cluster, [], [], [], 0.0) == (
            cluster.network.latency, 0.0, cluster.network.latency,
            cluster.machine_spec.startup_latency)

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            SimCluster(machine_count=0)


class TestGoldenTimeline:
    """Literals captured at the parent commit (scheduler + event loop)."""

    CUSTOM = SimCluster(
        7, MachineSpec(ops_per_second=12345.0, startup_latency=0.3),
        NetworkModel(latency=0.011, bandwidth_bytes_per_second=98765.0))

    CASES = {
        "no_tasks": (
            (SimCluster(50), [], [], [], 1234.5),
            (0.05, 0.0, 0.05, 2.00061725)),
        "one_machine": (
            (SimCluster(1), [1e6, 2e6, 3e6], [4e6, 1e6, 9e6],
             [1e3, 5e3, 2e3], 6e6),
            (0.16999999999999998, 13.0, 0.050300000000000004, 5.0)),
        "ties_on_equal_costs": (
            (SimCluster(3), [7e5] * 7, [5e6] * 7, [4096.0] * 7, 3e6),
            (0.08266666666666667, 13.5, 0.050573440000000004, 3.5)),
        "120_tasks_on_50_machines": (
            (SimCluster(50), [3e5 + 17 * i for i in range(120)],
             [1e6 * ((i * 37) % 11 + 1) + i for i in range(120)],
             [2e3 + (i * 13) % 7 for i in range(120)], 4.5e7),
            (0.064448552, 16.5001095, 0.0548144, 24.5)),
        "custom_machine_and_network": (
            (CUSTOM, [1e4, 2e4, 3e4, 4e4, 5e4, 6e4, 7e4, 8e4, 9e4],
             [1e5, 9e4, 8e4, 7e4, 6e4, 5e4, 4e4, 3e4, 2e4],
             [100.0, 900.0, 300.0, 50.0, 10.0, 0.0, 1.0, 2.0, 3.0], 77777.0),
            (0.6618957048115657, 8.400445524503848, 0.09301285880625727,
             6.6002835155933575)),
        "zero_reduce_cost": (
            (SimCluster(4), [1e6] * 5, [1e6, 2e6, 3e6, 4e6, 5e6],
             [1e3] * 5, 0.0),
            (0.07500000000000001, 7.0, 0.050100000000000006, 2.0)),
    }

    #: machines -> seconds for stage costs 1.0, 3e6 and 7.123456789e9.
    STAGE_GRID = {
        1: [2.0000005, 3.5, 3563.7283945],
        3: [2.0000001666666667, 2.5, 1189.2427981666667],
        50: [2.00000001, 2.03, 73.23456789],
        128: [2.00000000390625, 2.01171875, 29.82600308203125],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_virtual_timeline_matches_parent_commit(self, case):
        arguments, golden = self.CASES[case]
        assert virtual_timeline(*arguments) == golden

    @pytest.mark.parametrize("machines", sorted(STAGE_GRID))
    def test_stage_seconds_match_parent_commit(self, machines):
        """Captured through ``simulate_stage`` of a ``machines``-wide
        backend, which is now this formula on every transport."""
        costs = (1.0, 3e6, 7.123456789e9)
        assert [stage_seconds(SimCluster(machines), cost) for cost in costs] \
            == self.STAGE_GRID[machines]
        backend = SerialBackend(BackendConfig(kind="serial",
                                              machines=machines))
        assert [backend.simulate_stage(
                    MapReduceReport(machines, 1, 0.0, 0.0, 0.0, 0.0),
                    "shed", cost) for cost in costs] \
            == self.STAGE_GRID[machines]

    def test_stage_without_work_charges_nothing(self):
        assert stage_seconds(SimCluster(4), 0.0) == 0.0
        assert stage_seconds(SimCluster(4), -5.0) == 0.0

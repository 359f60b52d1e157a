"""Tests for the discrete-event cluster simulator."""

from __future__ import annotations

import pytest

from repro.distsim import (
    EventLoop,
    Machine,
    MachineSpec,
    MapReduceJob,
    NetworkModel,
    Scheduler,
    SimCluster,
    Task,
    virtual_timeline,
)


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(5.0, lambda: order.append("late"))
        loop.schedule(1.0, lambda: order.append("early"))
        loop.run()
        assert order == ["early", "late"]
        assert loop.now == 5.0

    def test_simultaneous_events_fifo(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append(1))
        loop.schedule(1.0, lambda: order.append(2))
        loop.run()
        assert order == [1, 2]

    def test_callback_can_schedule_more(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.schedule(2.0, lambda: seen.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert seen == ["first", "second"]
        assert loop.now == 3.0

    def test_cancel(self):
        loop = EventLoop()
        seen = []
        event = loop.schedule(1.0, lambda: seen.append("x"))
        event.cancel()
        loop.run()
        assert seen == []

    def test_run_until_horizon(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(10.0, lambda: seen.append("b"))
        loop.run(until=5.0)
        assert seen == ["a"]
        assert loop.now == 5.0
        assert loop.pending == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, lambda: None)

    def test_schedule_at(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(4.0, lambda: seen.append("x"))
        loop.run()
        assert loop.now == 4.0


class TestMachine:
    def test_execution_time(self):
        machine = Machine(0, MachineSpec(ops_per_second=100.0,
                                         startup_latency=1.0))
        assert machine.execution_time(200.0) == pytest.approx(3.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Machine(0).execution_time(-1.0)

    def test_assign_serializes_tasks(self):
        machine = Machine(0, MachineSpec(ops_per_second=100.0,
                                         startup_latency=0.0))
        first = machine.assign(0.0, 100.0)
        second = machine.assign(0.0, 100.0)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)
        assert machine.completed_tasks == 2

    def test_utilization(self):
        machine = Machine(0, MachineSpec(ops_per_second=100.0,
                                         startup_latency=0.0))
        machine.assign(0.0, 100.0)
        assert machine.utilization(2.0) == pytest.approx(0.5)
        assert machine.utilization(0.0) == 0.0


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
    def test_tasks_spread_across_machines(self):
        scheduler = Scheduler(4, spec=MachineSpec(ops_per_second=1.0,
                                                  startup_latency=0.0))
        tasks = [Task(name=f"t{i}", callable=lambda: None, cost=10.0)
                 for i in range(4)]
        results = scheduler.run_tasks(tasks)
        assert {result.machine_id for result in results} == {0, 1, 2, 3}
        assert scheduler.makespan == pytest.approx(10.0)

    def test_more_tasks_than_machines_queue(self):
        scheduler = Scheduler(2, spec=MachineSpec(ops_per_second=1.0,
                                                  startup_latency=0.0))
        tasks = [Task(name=f"t{i}", callable=lambda: None, cost=5.0)
                 for i in range(4)]
        scheduler.run_tasks(tasks)
        assert scheduler.makespan == pytest.approx(10.0)

    def test_task_values_and_errors_captured(self):
        def boom():
            raise RuntimeError("partition failed")

        scheduler = Scheduler(1)
        results = scheduler.run_tasks([
            Task(name="ok", callable=lambda: {"cost": 5.0, "value": 7}),
            Task(name="bad", callable=boom),
        ])
        assert results[0].succeeded and results[0].value["value"] == 7
        assert not results[1].succeeded
        assert isinstance(results[1].error, RuntimeError)

    def test_cost_from_return_value(self):
        scheduler = Scheduler(1, spec=MachineSpec(ops_per_second=1.0,
                                                  startup_latency=0.0))
        scheduler.run_tasks([Task(name="x", callable=lambda: {"cost": 42.0})])
        assert scheduler.makespan == pytest.approx(42.0)

    def test_invalid_machine_count(self):
        with pytest.raises(ValueError):
            Scheduler(0)

    def test_utilization_reported_per_machine(self):
        scheduler = Scheduler(2, spec=MachineSpec(ops_per_second=1.0,
                                                  startup_latency=0.0))
        scheduler.run_tasks([Task(name="a", callable=lambda: None, cost=10.0)])
        utilization = scheduler.utilization()
        assert utilization[0] == pytest.approx(1.0)
        assert utilization[1] == 0.0


class TestMapReduce:
    def run_job(self, machines, items):
        cluster = SimCluster(machine_count=machines,
                             machine_spec=MachineSpec(ops_per_second=1000.0,
                                                      startup_latency=0.0))

        def map_function(bucket):
            return sum(bucket), float(len(bucket) * 100), 10.0 * len(bucket)

        def reduce_function(values):
            return sum(values), float(len(values) * 50)

        job = MapReduceJob(cluster, map_function, reduce_function)
        return job.run(items, item_bytes=lambda item: 8.0)

    def test_computation_is_correct(self):
        report = self.run_job(4, list(range(100)))
        assert report.reduce_value == sum(range(100))

    @pytest.mark.parametrize("machines,count", [(4, 100), (2, 200),
                                                (40, 200), (8, 3), (4, 0)])
    def test_virtual_timeline_is_a_pure_function_of_recorded_costs(
            self, machines, count):
        """The job's times equal :func:`virtual_timeline` over what its
        map and reduce functions returned — no execution needed."""
        report = self.run_job(machines, list(range(count)))
        partitions = min(machines, count)
        sizes = [len(range(index, count, partitions))
                 for index in range(partitions)]
        timeline = virtual_timeline(
            SimCluster(machine_count=machines,
                       machine_spec=MachineSpec(ops_per_second=1000.0,
                                                startup_latency=0.0)),
            input_bytes=[8.0 * size for size in sizes],
            map_costs=[100.0 * size for size in sizes],
            output_bytes=[10.0 * size for size in sizes],
            reduce_cost=50.0 * partitions)
        assert timeline == (report.scatter_time, report.map_time,
                            report.gather_time, report.reduce_time)
        assert report.map_time == (max(sizes) * 100 / 1000.0 if sizes
                                   else 0.0)

    def test_scaling_reduces_map_time(self):
        small = self.run_job(2, list(range(200)))
        large = self.run_job(20, list(range(200)))
        assert large.map_time < small.map_time

    def test_reduce_fraction_grows_with_machines(self):
        """The reduce step is serial, so its share of the total grows as the
        map phase parallelizes — the paper's observed bottleneck."""
        small = self.run_job(2, list(range(200)))
        large = self.run_job(40, list(range(200)))
        assert large.reduce_fraction > small.reduce_fraction

    def test_summary_keys(self):
        report = self.run_job(4, list(range(10)))
        summary = report.summary()
        for key in ("machines", "total_s", "reduce_fraction", "map_s"):
            assert key in summary

    def test_empty_items(self):
        report = self.run_job(4, [])
        assert report.reduce_value == 0

    def test_partition_cap(self):
        report = self.run_job(8, list(range(3)))
        assert report.partitions <= 3

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            SimCluster(machine_count=0)

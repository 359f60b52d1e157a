"""Tests for partition-parallel map execution (repro.exec.partition).

The load-bearing property mirrors the backend contract: moving the whole
per-partition map (tokenize + DBSCAN + prototypes) into a persistent worker
pool changes *where* the map runs, never *what* comes out.  Labels,
signatures and per-day FP/FN must be byte-identical to inline execution for
any worker count, warm and cold; the engine's accounting must aggregate the
workers' stats; and the real pool must demonstrably engage (otherwise the
equivalence tests prove nothing).
"""

from __future__ import annotations

import datetime
import gc
import pickle
import weakref

import pytest

from repro.clustering.partition import ClusteredSample, PartitionMapTask, \
    partition_samples
from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.distance.engine import DistanceEngine, DistanceEngineConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.exec.backend import BackendConfig, create_backend
from repro.exec.partition import PartitionPoolExecutor, worth_shipping

D = datetime.date
KITS = ("nuclear", "angler", "rig", "sweetorange")

#: Pinned partition count: small seeded days would otherwise collapse to a
#: single partition and the pool would (correctly) never engage.
PARTITIONS = 4


def _generator():
    return TelemetryGenerator(StreamConfig(
        benign_per_day=8,
        kit_daily_counts={"angler": 6, "nuclear": 4, "sweetorange": 4,
                          "rig": 3},
        seed=20140801))


def _run_stream(backend_kind, incremental, workers,
                partition_parallel=True, days=2):
    """Process seeded days; returns (labels, fp/fn, signatures, last result,
    kizzle)."""
    generator = _generator()
    config = KizzleConfig(
        machines=6, min_points=3, partitions=PARTITIONS,
        distance=DistanceEngineConfig(workers=workers, shared_cache=False),
        incremental=IncrementalConfig(enabled=incremental),
        backend=BackendConfig(kind=backend_kind, workers=workers,
                              partition_parallel=partition_parallel))
    kizzle = Kizzle(config)
    for kit in KITS:
        kizzle.seed_known_kit(
            kit, [generator.reference_core(kit, D(2014, 7, 31))])
    day_labels, day_fpfn, result = [], [], None
    for offset in range(days):
        date = D(2014, 8, 1) + datetime.timedelta(days=offset)
        batch = generator.generate_day(date)
        result = kizzle.process_day(
            [(s.sample_id, s.content) for s in batch.samples], date)
        day_labels.append(sorted(
            (tuple(sorted(sample.sample_id
                          for sample in report.cluster.samples)),
             report.kit)
            for report in result.clusters))
        day_fpfn.append((
            sum(1 for sample in batch.benign
                if kizzle.detects(sample.content, as_of=date)),
            sum(1 for sample in batch.malicious
                if not kizzle.detects(sample.content, as_of=date))))
    signatures = [(s.kit, s.created, s.pattern) for s in kizzle.database]
    kizzle.close()
    return day_labels, day_fpfn, signatures, result, kizzle


# ----------------------------------------------------------------------
# byte-identity to inline execution
# ----------------------------------------------------------------------
class TestPartitionParallelEquivalence:
    @pytest.mark.slow
    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["cold", "warm"])
    def test_identical_to_serial_for_any_worker_count(self, incremental):
        reference = _run_stream("serial", incremental, workers=1)[:3]
        for workers in (2, 3):
            labels, fpfn, signatures, result, _ = _run_stream(
                "process", incremental, workers=workers)
            assert result.timing.map_workers == workers, \
                f"workers={workers}: partition pool not engaged"
            assert labels == reference[0], \
                f"workers={workers}: cluster labels diverged"
            assert fpfn == reference[1], \
                f"workers={workers}: FP/FN diverged"
            assert signatures == reference[2], \
                f"workers={workers}: signatures diverged"

    @pytest.mark.slow
    def test_disabled_knob_runs_inline_and_matches(self):
        enabled = _run_stream("process", False, workers=2)
        disabled = _run_stream("process", False, workers=2,
                               partition_parallel=False)
        assert disabled[3].timing.map_workers == 1
        assert "cluster.map" not in disabled[3].stage_walls
        assert enabled[:3] == disabled[:3]

    def test_pool_actually_engaged_and_attributed(self):
        """Engagement must be observable: the pool counts a shipped
        batch, the report carries the pool width, and the cluster stage
        attributes the pool's wall clock as the ``cluster.map`` sub-wall."""
        _, _, _, result, kizzle = _run_stream("process", False, workers=2,
                                              days=1)
        assert kizzle.backend.pool.pooled_batches > 0
        assert result.timing.map_workers == 2
        assert result.timing.partitions == PARTITIONS
        assert "cluster.map" in result.stage_walls
        assert result.stage_walls["cluster.map"] \
            == pytest.approx(result.timing.map_wall_seconds)
        summary = result.timing.summary()
        assert summary["map_workers"] == 2.0
        assert summary["map_wall_s"] >= 0.0

    def test_distsim_keeps_charging_simulated_machine_time(self):
        """The report must keep charging the recorded per-partition
        costs as virtual machine time even though the map ran on the real
        pool — same virtual timeline as in-process execution."""
        inline = _run_stream("process", False, workers=2,
                             partition_parallel=False, days=1)[3]
        pooled = _run_stream("process", False, workers=2, days=1)[3]
        assert pooled.timing.map_workers == 2
        assert pooled.timing.map_time > 0.0
        assert pooled.timing.map_time == inline.timing.map_time
        assert pooled.timing.reduce_time == inline.timing.reduce_time

    def test_engine_stats_aggregate_worker_pairs(self):
        """Pairs decided inside partition workers must show up in the
        parent engine's accounting (per-partition stats aggregation)."""
        inline = _run_stream("process", False, workers=2,
                             partition_parallel=False, days=1)[3]
        pooled = _run_stream("process", False, workers=2, days=1)[3]
        assert pooled.timing.distance_stats["pairs"] \
            == inline.timing.distance_stats["pairs"]
        assert pooled.timing.distance_stats["pairs"] > 0

    def test_serial_backend_has_no_partition_executor(self, no_fork):
        """The serial backend owns no pool: even a batch every other
        transport would ship runs in process, on the caller's engine."""
        backend = create_backend(
            BackendConfig(kind="serial", partition_parallel=True))
        assert not hasattr(backend, "pool")
        tasks = _raw(_make_tasks(count=2))
        engine = DistanceEngine(DistanceEngineConfig(shared_cache=False))
        results = backend.run_partition_map(tasks, engine)
        private = [task.run() for task in tasks]
        assert _comparable(results) == _comparable(private)
        assert engine.stats.pairs \
            == sum(result.stats["pairs"] for result in private) > 0
        backend.close()  # must be a harmless no-op


# ----------------------------------------------------------------------
# the executor itself
# ----------------------------------------------------------------------
def _make_tasks(count=3, per_partition=6):
    generator = _generator()
    batch = generator.generate_day(D(2014, 8, 1))
    samples = [ClusteredSample.from_content(s.sample_id, s.content)
               for s in batch.samples]
    buckets = partition_samples(samples, count, seed=0)
    return [PartitionMapTask(index=index, samples=bucket, epsilon=0.10,
                             min_points=3,
                             engine_config=DistanceEngineConfig(
                                 shared_cache=False))
            for index, bucket in enumerate(buckets)]


def _raw(tasks):
    """The same tasks with token strings dropped — a cold day's partitions,
    the strongest case for shipping."""
    for task in tasks:
        task.samples = [ClusteredSample(sample.sample_id, sample.content)
                        for sample in task.samples]
    return tasks


def _comparable(results):
    return [(r.index, r.comparisons, r.cost, r.output_bytes,
             [(c.cluster_id, sorted(s.sample_id for s in c.samples))
              for c in r.clusters])
            for r in results]


class TestPartitionPoolExecutor:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            PartitionPoolExecutor(workers=-1)

    def test_should_engage_needs_partitions_and_workers(self):
        raw = _raw(_make_tasks(count=8))
        assert worth_shipping(raw[:2], width=2)
        assert not worth_shipping(raw[:1], width=2)
        assert not worth_shipping(raw, width=1)

    def test_single_partition_batch_runs_inline(self, no_fork):
        """A one-task batch has nothing to overlap: the pool backend runs
        it in process (never forks) on the caller's engine."""
        backend = create_backend(BackendConfig(kind="process", workers=2))
        engine = DistanceEngine(DistanceEngineConfig(shared_cache=False))
        results = backend.run_partition_map(_raw(_make_tasks(count=1)),
                                            engine)
        assert backend.pool.pooled_batches == 0
        assert backend.pool._pool is None  # never forked
        assert len(results) == 1 and results[0].stats == {}
        backend.close()

    def test_pooled_results_identical_to_inline_fallback(self):
        tasks = _make_tasks(count=3)
        inline = [task.run() for task in tasks]
        pooled_exec = PartitionPoolExecutor(workers=2)
        pooled = pooled_exec.run(tasks)
        assert pooled_exec.pooled_batches == 1
        assert _comparable(pooled) == _comparable(inline)
        assert [r.stats for r in pooled] == [r.stats for r in inline]
        assert [r.cache_entries for r in pooled] \
            == [r.cache_entries for r in inline]
        pooled_exec.close()
        pooled_exec.close()  # idempotent
        # A closed executor recovers: the pool is re-created on demand.
        again = pooled_exec.run(tasks)
        assert _comparable(again) == _comparable(inline)
        pooled_exec.close()

    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["never-pooled", "pooled-then-closed"])
    def test_closed_executor_is_collectable(self, pooled):
        """An atexit handler holds a strong reference: it must exist only
        while a pool is live, or every executor ever built is pinned (with
        its pool, if never closed) until interpreter exit."""
        executor = PartitionPoolExecutor(workers=2)
        if pooled:
            executor.run(_make_tasks(count=2))
            assert executor.pooled_batches == 1
        executor.close()
        alive = weakref.ref(executor)
        del executor
        gc.collect()
        assert alive() is None

    def test_tasks_are_picklable(self):
        task = _make_tasks(count=2)[0]
        clone = pickle.loads(pickle.dumps(task))
        assert _comparable([clone.run()]) == _comparable([task.run()])


class TestPartitionMapTask:
    def test_worker_engine_never_forks_and_keeps_cache_private(
            self, no_fork):
        task = _make_tasks(count=2)[0]
        engine = task.worker_engine()
        assert engine.config.shared_cache is False
        result = task.run(engine=engine)
        assert result.cache_entries == engine.export_cache()

    def test_run_is_deterministic(self):
        task = _make_tasks(count=2)[0]
        assert _comparable([task.run()]) == _comparable([task.run()])

    def test_absorb_remote_merges_stats_and_cache(self):
        task = _make_tasks(count=2)[0]
        result = task.run()
        assert result.stats["pairs"] > 0
        parent = DistanceEngine(DistanceEngineConfig(shared_cache=False))
        parent.absorb_remote(result.stats, result.cache_entries)
        assert parent.stats.pairs == result.stats["pairs"]
        assert parent.stats.kernel_calls == result.stats["kernel_calls"]
        for a, b, distance in result.cache_entries:
            assert parent.cache.get(a, b) == distance


class TestWorthFanningOut:
    """Any batch of two or more buckets fans out to two or more workers:
    the day loop ships raw buckets, so the map carries the lexer."""

    @staticmethod
    def _tasks(*buckets):
        return [PartitionMapTask(index=index, samples=bucket, epsilon=0.10,
                                 min_points=3,
                                 engine_config=DistanceEngineConfig())
                for index, bucket in enumerate(buckets)]

    def test_raw_buckets_always_fan_out(self):
        raw = [ClusteredSample(sample_id="a", content="var a = 1;")]
        assert worth_shipping(self._tasks(raw, raw), width=2)

    def test_tokenized_buckets_fan_out_like_raw_ones(self):
        """No size floor: what the buckets hold never vetoes a ship."""
        sample = ClusteredSample.from_content("a", "var a = 1;")
        assert worth_shipping(self._tasks([sample], [sample]), width=2)
        assert not worth_shipping(self._tasks([sample] * 300), width=2)
        assert not worth_shipping(self._tasks([sample] * 300, [sample]),
                                  width=1)


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestKnobPlumbing:
    def test_backend_config_resolved_preserves_flag(self):
        config = BackendConfig(kind="process", partition_parallel=False)
        assert config.resolved(machines=4,
                               workers=2).partition_parallel is False

    def test_cli_flag_reaches_backend_config(self):
        from repro.cli import _backend_config, build_parser

        parser = build_parser()
        on = parser.parse_args(["process-day"])
        assert _backend_config(on).partition_parallel is True
        off = parser.parse_args(["--no-partition-parallel", "process-day"])
        assert _backend_config(off).partition_parallel is False

    def test_backends_expose_executor_when_enabled(self):
        enabled = create_backend(BackendConfig(kind="process", workers=3))
        assert isinstance(enabled.pool, PartitionPoolExecutor)
        assert enabled.pool.pool_width() == 3
        assert enabled.ship_width == 3
        enabled.close()
        disabled = create_backend(
            BackendConfig(kind="process", partition_parallel=False))
        assert disabled.pool is None
        disabled.close()

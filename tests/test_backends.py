"""Tests for the pluggable execution backends (repro.exec).

The load-bearing property: backends change *where* work runs, never *what*
comes out.  On a seeded multi-day stream — warm and cold — the serial,
process and cluster backends must produce byte-identical cluster labels,
signatures and per-day FP/FN.  The process pool must additionally be
deterministic across worker counts, and must not be forked at all for
partitions too small to be worth shipping.  Every backend runs the map
through the one ``run_partition_map`` seam, so the transports (in process,
fork pool, TCP) are also compared directly, and the virtual timeline every
report carries — computed after the fact from recorded costs, the same on
every transport — is pinned to golden values.
"""

from __future__ import annotations

import contextlib
import datetime
import random

import pytest

from repro.clustering.partition import ClusteredSample, DistributedClusterer
from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.distance.engine import DistanceEngineConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.exec import (
    BACKEND_KINDS,
    BackendConfig,
    ProcessBackend,
    SerialBackend,
    create_backend,
)

D = datetime.date
KITS = ("nuclear", "angler", "rig", "sweetorange")


# ----------------------------------------------------------------------
# configuration and factory
# ----------------------------------------------------------------------
class TestBackendConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="gpu")

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(machines=0)
        with pytest.raises(ValueError):
            BackendConfig(workers=-1)

    def test_resolved_fills_unset_fields_only(self):
        config = BackendConfig(kind="process", machines=8)
        resolved = config.resolved(machines=50, workers=4)
        assert resolved.machines == 8      # explicitly set: kept
        assert resolved.workers == 4       # inherited
        assert resolved.kind == "process"  # everything else: copied

    def test_kizzle_config_resolves_backend(self):
        config = KizzleConfig(machines=12, seed=3,
                              distance=DistanceEngineConfig(workers=2))
        resolved = config.resolved_backend()
        assert resolved.kind == "process"
        assert resolved.machines == 12
        assert resolved.workers == 2

    def test_factory_returns_each_kind(self):
        from repro.exec.cluster import ClusterBackend

        backends = {kind: create_backend(BackendConfig(kind=kind))
                    for kind in BACKEND_KINDS}
        try:
            assert {kind: type(b) for kind, b in backends.items()} == {
                "serial": SerialBackend,
                "process": ProcessBackend,
                "cluster": ClusterBackend}
        finally:
            for backend in backends.values():
                backend.close()

    def test_legacy_distsim_spelling_is_the_process_kind(self):
        """``kind="distsim"`` (still spelled by ``bench/workloads.py``) is
        stored as ``"process"``, so nothing downstream can branch on it."""
        legacy = BackendConfig(kind="distsim", workers=1,
                               partition_parallel=False)
        assert legacy == BackendConfig(kind="process", workers=1,
                                       partition_parallel=False)
        assert "distsim" not in BACKEND_KINDS
        backend = create_backend(legacy)
        assert type(backend) is ProcessBackend and backend.pool is None

    def test_cluster_config_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="cluster", spawn_workers=-1)
        with pytest.raises(ValueError):
            BackendConfig(kind="cluster", heartbeat_timeout_s=0.0)
        with pytest.raises(ValueError):
            BackendConfig(kind="cluster", task_deadline_s=-1.0)
        with pytest.raises(ValueError):
            BackendConfig(kind="cluster", max_task_retries=-1)

    def test_resolved_preserves_cluster_fields(self):
        config = BackendConfig(kind="cluster", listen="0.0.0.0:7777",
                               spawn_workers=3, task_deadline_s=5.0,
                               heartbeat_timeout_s=2.0, max_task_retries=1,
                               secret="hunter2")
        resolved = config.resolved(machines=50, workers=4)
        assert resolved.listen == "0.0.0.0:7777"
        assert resolved.spawn_workers == 3
        assert resolved.task_deadline_s == 5.0
        assert resolved.heartbeat_timeout_s == 2.0
        assert resolved.max_task_retries == 1
        assert resolved.secret == "hunter2"

    def test_clusterer_machine_count_is_backend_invariant(self):
        """The logical machine count (which sets the default partition
        count, and therefore shapes clustering output) must come from the
        configured value on every backend kind, not from the substrate."""
        backends = {kind: create_backend(BackendConfig(kind=kind,
                                                       machines=10))
                    for kind in BACKEND_KINDS}
        try:
            counts = {kind: DistributedClusterer(backend=backend).machines
                      for kind, backend in backends.items()}
            assert counts == {kind: 10 for kind in BACKEND_KINDS}
        finally:
            for backend in backends.values():
                backend.close()

    def test_zero_cost_stage_charges_nothing(self):
        """A stage that did no work must not bill per-task startup
        latency on the modelled pool."""
        from repro.distsim import MapReduceReport

        backend = create_backend(BackendConfig(kind="serial", machines=4))
        report = MapReduceReport(machine_count=4, partitions=1,
                                 scatter_time=0.0, map_time=0.0,
                                 gather_time=0.0, reduce_time=0.0)
        assert backend.simulate_stage(report, "shed", 0.0) == 0.0
        assert report.stage_seconds["shed"] == 0.0
        assert backend.simulate_stage(report, "shed", 1e6) > 0.0

    def test_negative_cost_stage_charges_nothing(self):
        """A (buggy or rounded-below-zero) negative cost takes the same
        short-circuit as zero: no virtual seconds."""
        from repro.distsim import MapReduceReport

        backend = create_backend(BackendConfig(kind="serial", machines=4))
        report = MapReduceReport(machine_count=4, partitions=1,
                                 scatter_time=0.0, map_time=0.0,
                                 gather_time=0.0, reduce_time=0.0)
        assert backend.simulate_stage(report, "shed", -5.0) == 0.0
        assert report.stage_seconds["shed"] == 0.0

    def test_stage_seconds_accumulate(self):
        """Repeated charges to one stage accumulate virtual seconds."""
        from repro.distsim import MapReduceReport

        backend = create_backend(BackendConfig(kind="serial", machines=3))
        report = MapReduceReport(machine_count=3, partitions=1,
                                 scatter_time=0.0, map_time=0.0,
                                 gather_time=0.0, reduce_time=0.0)
        first = backend.simulate_stage(report, "shed", 3e6)
        second = backend.simulate_stage(report, "shed", 3e6)
        assert first > 0.0 and second > 0.0
        assert report.stage_seconds["shed"] == pytest.approx(first + second)
        assert report.total_time == pytest.approx(first + second)

    def test_distsim_accepts_matching_or_unset_machines(self):
        """The modelled pool is ``config.machines`` wide on every kind (the
        legacy spelling included), the paper's 50 when unset."""
        for kind in ("serial", "process", "distsim"):
            sized = create_backend(BackendConfig(kind=kind, machines=4))
            unset = create_backend(BackendConfig(kind=kind))
            assert sized.virtual_pool.machine_count == 4
            assert unset.virtual_pool.machine_count == 50


# ----------------------------------------------------------------------
# backend equivalence on a seeded multi-day stream
# ----------------------------------------------------------------------
def _generator():
    return TelemetryGenerator(StreamConfig(
        benign_per_day=8,
        kit_daily_counts={"angler": 6, "nuclear": 4, "sweetorange": 4,
                          "rig": 3},
        seed=20140801))


def _run_stream(backend_kind, incremental, days=3, distance=None,
                partitions=None, backend_overrides=None, telemetry=None):
    """Process ``days`` seeded days; return (labels, fp/fn, signatures).

    ``backend_overrides`` feeds extra :class:`BackendConfig` fields (the
    cluster runs pass ``spawn_workers``); a ``telemetry`` dict, when given,
    receives the cluster backend's engagement counters before teardown.
    """
    generator = _generator()
    config = KizzleConfig(
        machines=6, min_points=3, partitions=partitions,
        distance=distance or DistanceEngineConfig(),
        incremental=IncrementalConfig(enabled=incremental),
        backend=BackendConfig(kind=backend_kind, **(backend_overrides or {})))
    kizzle = Kizzle(config)
    with contextlib.ExitStack() as stack:
        stack.callback(kizzle.close)
        for kit in KITS:
            kizzle.seed_known_kit(
                kit, [generator.reference_core(kit, D(2014, 7, 31))])
        day_labels, day_fpfn = [], []
        for offset in range(days):
            date = D(2014, 8, 1) + datetime.timedelta(days=offset)
            batch = generator.generate_day(date)
            result = kizzle.process_day(
                [(s.sample_id, s.content) for s in batch.samples], date)
            assert result.backend == backend_kind
            day_labels.append(sorted(
                (tuple(sorted(sample.sample_id
                              for sample in report.cluster.samples)),
                 report.kit)
                for report in result.clusters))
            false_positives = sum(
                1 for sample in batch.benign
                if kizzle.detects(sample.content, as_of=date))
            false_negatives = sum(
                1 for sample in batch.malicious
                if not kizzle.detects(sample.content, as_of=date))
            day_fpfn.append((false_positives, false_negatives))
        signatures = [(s.kit, s.created, s.pattern) for s in kizzle.database]
        if telemetry is not None and backend_kind == "cluster":
            telemetry["remote_tasks"] = kizzle.backend.remote_task_count
            telemetry["redispatch"] = kizzle.backend.redispatch_count
            telemetry["tasks_by_worker"] = \
                dict(kizzle.backend.coordinator.tasks_by_worker)
            telemetry["worker_stats"] = {
                worker: stats.as_dict()
                for worker, stats in
                kizzle.clusterer.engine.remote_worker_stats.items()}
    if backend_kind == "cluster":
        # Clean shutdown is part of the contract: close() must join every
        # coordinator service/handler thread, not abandon them.
        assert kizzle.backend.coordinator.leaked_threads() == [], \
            "cluster coordinator close() leaked service threads"
    return day_labels, day_fpfn, signatures


def _family_samples(families):
    """``(sample_id, content)`` pairs: ``families`` groups of 8 same-length
    scripts.  One statement differs per member, so members are distinct
    token strings within epsilon of each other and every pair gets past the
    length filter — the distance engine does real kernel and cache work."""
    statements = ("var a = 1;", "f(a);", "a = [];", "a = {};",
                  "a += 's';", "return a - b;", "delete a.b;",
                  "a = !b;", "a = typeof b;")
    rng = random.Random(20140801)
    samples = []
    for family in range(families):
        shapes = rng.sample(statements, 3)
        base = [rng.choice(shapes) for _ in range(40)]
        for member in range(8):
            body = list(base)
            body[member] = "void a, b;"
            samples.append((f"f{family}m{member}", " ".join(body)))
    return samples


class TestBackendEquivalence:
    @pytest.mark.slow
    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["cold", "warm"])
    def test_all_backends_byte_identical(self, incremental):
        reference = _run_stream("serial", incremental)
        labels, fpfn, signatures = _run_stream("process", incremental)
        assert labels == reference[0], "process cluster labels diverged"
        assert fpfn == reference[1], "process FP/FN diverged"
        assert signatures == reference[2], "process signatures diverged"

    @pytest.mark.slow
    def test_worker_count_does_not_change_signatures(self):
        """Repeated runs with --workers N are byte-identical for any N
        (cold days ship raw partitions, so the pool engages for N > 1)."""
        reference = None
        for workers in (1, 2, 3):
            distance = DistanceEngineConfig(workers=workers)
            result = _run_stream("process", incremental=False, days=2,
                                 distance=distance, partitions=4)
            if reference is None:
                reference = result
            else:
                assert result == reference, \
                    f"workers={workers} diverged from workers=1"

    @pytest.mark.slow
    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["cold", "warm"])
    def test_cluster_backend_byte_identical(self, incremental):
        """The multi-machine backend joins the identity matrix: two real
        localhost worker subprocesses, same labels/FP-FN/signatures as the
        serial reference — and the tasks demonstrably ran remotely (the
        engagement counters rule out a silent serial fallback)."""
        reference = _run_stream("serial", incremental, partitions=4)
        telemetry = {}
        labels, fpfn, signatures = _run_stream(
            "cluster", incremental, partitions=4,
            backend_overrides=dict(spawn_workers=2, heartbeat_timeout_s=4.0),
            telemetry=telemetry)
        assert labels == reference[0], "cluster labels diverged"
        assert fpfn == reference[1], "cluster FP/FN diverged"
        assert signatures == reference[2], "cluster signatures diverged"
        assert telemetry["remote_tasks"] > 0, \
            "no task executed remotely - the cluster silently fell back " \
            "to inline execution"
        assert sum(telemetry["tasks_by_worker"].values()) == \
            telemetry["remote_tasks"]

    @pytest.mark.slow
    def test_cluster_remote_stats_attributed_per_worker(self):
        """Each accepted remote result attributes its distance-engine work
        to the worker that produced it (cold path: lexing + DBSCAN ran in
        the workers, so every contributing worker shows engine activity)."""
        telemetry = {}
        _run_stream("cluster", incremental=False, days=2, partitions=4,
                    backend_overrides=dict(spawn_workers=2,
                                           heartbeat_timeout_s=4.0),
                    telemetry=telemetry)
        worker_stats = telemetry["worker_stats"]
        assert worker_stats, "no per-worker stats were attributed"
        assert set(worker_stats) == set(telemetry["tasks_by_worker"])
        assert sum(stats["pairs"] for stats in worker_stats.values()) > 0

    def test_small_warm_partitions_never_fork(self, no_fork):
        """Whole partitions are the only unit of fan-out: a warm day of one
        partition runs in one process on the process backend, however many
        distance pairs the partition holds (here 7,140, all past the length
        filter) — the distance engine never forks."""
        samples = _family_samples(15)

        def labels(backend):
            config = KizzleConfig(
                partitions=1, incremental=IncrementalConfig(enabled=True),
                distance=DistanceEngineConfig(),
                backend=backend)
            with Kizzle(config) as kizzle:
                result = kizzle.process_day(samples, D(2014, 8, 1))
            return sorted(
                (sorted(sample.sample_id
                        for sample in report.cluster.samples), report.kit)
                for report in result.clusters)

        reference = labels(BackendConfig(kind="serial"))
        assert reference, "fixture produced no clusters"
        assert labels(BackendConfig(kind="process", workers=2)) == reference


# ----------------------------------------------------------------------
# the one map seam: transports compared directly, timeline as an observer
# ----------------------------------------------------------------------
def _cluster_day(backend, samples):
    """Cluster one day's samples; returns (labels, report, clusterer)."""
    clusterer = DistributedClusterer(
        min_points=3, machines=6, backend=backend,
        engine_config=DistanceEngineConfig(workers=1))
    clusters, report = clusterer.run(samples, partitions=4)
    labels = [(cluster.cluster_id, cluster.prototype.sample_id,
               [sample.sample_id for sample in cluster.samples])
              for cluster in clusters]
    return labels, report, clusterer


def _phases(report):
    return (report.scatter_time, report.map_time, report.gather_time,
            report.reduce_time)


def _golden_stream_timings(backend, incremental, days):
    """Timing reports of the first ``days`` August days of the stream the
    golden timeline was captured on (6 machines, 4 partitions)."""
    generator = TelemetryGenerator(StreamConfig(
        benign_per_day=20,
        kit_daily_counts={"angler": 24, "nuclear": 16,
                          "sweetorange": 16, "rig": 12},
        seed=20140801))
    config = KizzleConfig(
        machines=6, min_points=3, partitions=4,
        distance=DistanceEngineConfig(workers=1),
        incremental=IncrementalConfig(enabled=incremental), backend=backend)
    timings = []
    with Kizzle(config) as kizzle:
        for kit in KITS:
            kizzle.seed_known_kit(
                kit, [generator.reference_core(kit, D(2014, 7, 31))])
        for offset in range(days):
            date = D(2014, 8, 1) + datetime.timedelta(days=offset)
            batch = generator.generate_day(date)
            timings.append(kizzle.process_day(
                [(s.sample_id, s.content) for s in batch.samples],
                date).timing)
    return timings


class TestOneMapSeam:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_transports_agree_on_clusters_stats_and_timeline(self, warm):
        """The same day through the three transports — in process, fork
        pool, TCP lease — gives equal clusters, equal engine accounting
        and equal virtual phases in the report."""
        make = ClusteredSample.from_content if warm else ClusteredSample
        samples = [make(sample_id, content)
                   for sample_id, content in _family_samples(12)]
        outcomes = {}
        for name, config in (
                ("in-process", BackendConfig(kind="serial", machines=6)),
                ("fork-pool", BackendConfig(kind="process", machines=6,
                                            workers=2)),
                ("tcp", BackendConfig(kind="cluster", machines=6,
                                      spawn_workers=2,
                                      heartbeat_timeout_s=4.0))):
            transport = create_backend(config)
            try:
                labels, report, _ = _cluster_day(transport, samples)
                outcomes[name] = (labels, report.distance_stats,
                                  _phases(report))
                if name == "fork-pool":
                    assert transport.pool.pooled_batches == 1
                if name == "tcp":
                    assert transport.remote_task_count == 4
            finally:
                transport.close()
        reference = outcomes["in-process"]
        assert reference[0], "fixture produced no clusters"
        assert reference[1]["kernel_calls"] > 0
        assert outcomes["fork-pool"] == reference
        assert outcomes["tcp"] == reference

    def test_in_process_map_does_not_double_count_engine_stats(self):
        """An in-process map works on the shared engine directly: nothing
        is exported from it and absorbed back, so its totals equal the
        pair decisions actually made — the totals a pooled run absorbs
        from its task-private engines."""
        samples = [ClusteredSample(sample_id, content)
                   for sample_id, content in _family_samples(12)]
        serial = create_backend(BackendConfig(kind="serial"))
        pooled = create_backend(BackendConfig(kind="process", workers=2))
        try:
            _, in_process, clusterer = _cluster_day(serial, samples)
            _, shipped, pooled_clusterer = _cluster_day(pooled, samples)
            assert shipped.map_workers == 2 and in_process.map_workers == 1
            assert in_process.distance_stats == shipped.distance_stats
            # One run on a fresh engine: the engine's totals *are* the
            # run's delta — a double absorb would have inflated them.
            assert clusterer.engine.stats.as_dict() \
                == in_process.distance_stats
            assert clusterer.engine.stats.as_dict() \
                == pooled_clusterer.engine.stats.as_dict()
            assert clusterer.engine.remote_worker_stats == {}
        finally:
            serial.close()
            pooled.close()

    def test_distsim_timeline_matches_parent_commit_golden(self):
        """The virtual timeline is computed after the fact from recorded
        costs; these values were captured from the commit that still drove
        the map through the simulator's scheduler, to the last digit."""
        golden = {
            False: [((0.05635402666666667, 6.084152290816327,
                      0.059758240000000004, 22.613830737500002), {})],
            True: [((0.05635402666666667, 6.084152290816327,
                     0.059758240000000004, 22.613830737500002),
                    {"shed": 0.0, "carry_forward": 0.0}),
                   ((0.05045600666666667, 2.494211675,
                     0.05711104, 4.053382592857142),
                    {"shed": 2.1549490000000002,
                     "carry_forward": 2.0451316901041667})],
        }
        for incremental, days in golden.items():
            timings = _golden_stream_timings(
                BackendConfig(kind="distsim", workers=1), incremental,
                len(days))
            for timing, (phases, stage_seconds) in zip(timings, days):
                assert _phases(timing) == phases
                assert timing.stage_seconds == stage_seconds
                assert (timing.machine_count, timing.partitions) == (6, 4)

    def test_every_kind_reports_the_same_virtual_timeline(self):
        """One warm day 2 reports one timeline, whatever ran it: the phases,
        the charged stages and the pool size come from the recorded costs
        and the configured machine count — never from the transport, its
        pool width, or how many cluster workers happen to be connected."""
        def observed(**backend):
            timing = _golden_stream_timings(BackendConfig(**backend), True,
                                            2)[1]
            return (_phases(timing), timing.stage_seconds,
                    timing.machine_count, timing.total_time)

        reference = observed(kind="serial")
        assert all(seconds > 0 for seconds in reference[0])
        assert reference[1]["shed"] > 0 and reference[1]["carry_forward"] > 0
        assert observed(kind="process", workers=2) == reference
        assert observed(kind="distsim") == reference
        for spawned in (1, 2):
            assert observed(kind="cluster", spawn_workers=spawned,
                            heartbeat_timeout_s=4.0) == reference


# ----------------------------------------------------------------------
# backend-specific reporting
# ----------------------------------------------------------------------
class TestBackendReports:
    def _warm_timing(self, **backend):
        """The report of a warm day 2 (it sheds and carries forward)."""
        return _golden_stream_timings(BackendConfig(**backend), True, 2)[1]

    def test_serial_report_has_no_simulated_network(self):
        """The serial report carries the same modelled network and machine
        phases the default's does; what this host measurably took sits
        beside them, outside the virtual total."""
        timing = self._warm_timing(kind="serial")
        default = self._warm_timing()
        assert (timing.backend, default.backend) == ("serial", "process")
        assert timing.machine_count == 6
        assert timing.scatter_time > 0.0 and timing.gather_time > 0.0
        assert _phases(timing) == _phases(default)
        assert timing.stage_seconds == default.stage_seconds
        assert timing.stage_seconds["shed"] > 0
        assert timing.map_workers == 1
        assert timing.map_wall_seconds > 0.0
        assert timing.reduce_wall_seconds > 0.0
        assert set(timing.wall_stage_seconds) >= {"shed", "cluster"}
        assert timing.total_time == default.total_time

    def test_process_report_scales_charge_by_workers(self):
        """The pool width changes what a run measures, never what it
        reports on the modelled pool."""
        narrow = self._warm_timing(kind="process", workers=1)
        wide = self._warm_timing(kind="process", workers=3)
        assert wide.backend == "process"
        assert wide.machine_count == narrow.machine_count == 6
        assert wide.stage_seconds == narrow.stage_seconds
        assert _phases(wide) == _phases(narrow)
        assert wide.map_wall_seconds > 0.0

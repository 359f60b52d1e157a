"""Fault-injection tests for the multi-machine cluster backend.

Extends the damaged-input philosophy of ``tests/test_failure_injection.py``
to the execution substrate itself: real localhost worker *subprocesses* are
killed mid-partition-map (SIGKILL), have their sockets severed mid-frame,
stall their heartbeats past the deadline — or turn actively hostile,
sending tampered-HMAC frames, replayed frames, and forbidden pickles — and
in every case the day's cluster labels, signatures and FP/FN must come out
byte-identical to the serial backend, with the re-dispatch path
demonstrably exercised (``cluster_redispatch_count >= 1``) and hostile
frames rejected with their typed error *before* any payload decode
(``reject_counts``).

Determinism of the recovery rests on two properties asserted throughout:
task identity (not worker identity) carries every RNG seed, and the
coordinator accepts at most one result per task (late duplicates from a
torn-down lease are dropped).
"""

from __future__ import annotations

import datetime
import os
import time
from types import SimpleNamespace

import pytest

from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.exec.backend import BackendConfig
from repro.exec.cluster import ClusterCoordinator, ClusterError, \
    SECRET_ENV, spawn_local_worker

#: The shared wire secret this test run operates under.  CI exports
#: ``REPRO_CLUSTER_SECRET`` so the whole matrix runs authenticated
#: end-to-end; locally it is usually unset (public default key).  Spawned
#: workers inherit the environment either way, so direct-coordinator
#: tests must register under the same secret.
TEST_SECRET = os.environ.get(SECRET_ENV)

D = datetime.date
KITS = ("nuclear", "angler", "rig", "sweetorange")

#: Tight failure-detection knobs so each injected fault resolves in about a
#: second instead of the production-default tens of seconds.
FAULT_BACKEND = dict(kind="cluster", heartbeat_timeout_s=1.0,
                     task_deadline_s=10.0, max_task_retries=3)


def _generator():
    return TelemetryGenerator(StreamConfig(
        benign_per_day=8,
        kit_daily_counts={"angler": 6, "nuclear": 4, "sweetorange": 4,
                          "rig": 3},
        seed=20140801))


def _run_days(kizzle, generator, days):
    """Process ``days`` seeded days; returns (labels, fpfn) per day."""
    day_labels, day_fpfn = [], []
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
        false_positives = sum(
            1 for sample in batch.benign
            if kizzle.detects(sample.content, as_of=date))
        false_negatives = sum(
            1 for sample in batch.malicious
            if not kizzle.detects(sample.content, as_of=date))
        day_fpfn.append((false_positives, false_negatives))
    return day_labels, day_fpfn


def _reference(incremental=False, days=2):
    """Serial-backend ground truth for the seeded stream."""
    generator = _generator()
    kizzle = Kizzle(KizzleConfig(
        machines=6, min_points=3, partitions=4,
        incremental=IncrementalConfig(enabled=incremental),
        backend=BackendConfig(kind="serial")))
    for kit in KITS:
        kizzle.seed_known_kit(
            kit, [generator.reference_core(kit, D(2014, 7, 31))])
    labels, fpfn = _run_days(kizzle, generator, days)
    signatures = [(s.kit, s.created, s.pattern) for s in kizzle.database]
    kizzle.close()
    return labels, fpfn, signatures


@pytest.fixture(scope="module")
def serial_reference():
    return _reference(incremental=False, days=2)


def _run_cluster_with_fault(fault, days=2, incremental=False):
    """Run the stream on a 2-worker localhost cluster, one worker faulty.

    The coordinator's first-lease fairness guarantees the faulty worker
    holds a task when its fault fires, so the re-dispatch path is
    exercised deterministically, not raced for.
    """
    generator = _generator()
    kizzle = Kizzle(KizzleConfig(
        machines=6, min_points=3, partitions=4,
        incremental=IncrementalConfig(enabled=incremental),
        backend=BackendConfig(**FAULT_BACKEND)))
    backend = kizzle.backend
    backend.coordinator.min_workers = 2  # both workers present at dispatch
    procs = [
        spawn_local_worker(backend.address, heartbeat_interval=0.25),
        spawn_local_worker(backend.address, heartbeat_interval=0.25,
                           fault=fault),
    ]
    try:
        for kit in KITS:
            kizzle.seed_known_kit(
                kit, [generator.reference_core(kit, D(2014, 7, 31))])
        labels, fpfn = _run_days(kizzle, generator, days)
        signatures = [(s.kit, s.created, s.pattern)
                      for s in kizzle.database]
        outcome = SimpleNamespace(
            labels=labels, fpfn=fpfn, signatures=signatures,
            redispatched=backend.redispatch_count,
            remote=backend.remote_task_count,
            rejects=backend.reject_counts,
            departures=backend.coordinator.graceful_departures)
    finally:
        kizzle.close()
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10.0)
    return outcome


class TestWorkerLossMidMap:
    """One worker of two dies mid-map; the day must still be perfect."""

    @pytest.mark.parametrize("fault", ["sigkill-mid-task", "drop-mid-frame",
                                       "stall-heartbeat"])
    def test_byte_identical_to_serial_with_redispatch(self, fault,
                                                      serial_reference):
        run = _run_cluster_with_fault(fault)
        assert run.labels == serial_reference[0], \
            f"{fault}: cluster labels diverged after worker loss"
        assert run.fpfn == serial_reference[1], f"{fault}: FP/FN diverged"
        assert run.signatures == serial_reference[2], \
            f"{fault}: signatures diverged"
        assert run.redispatched >= 1, \
            f"{fault}: the faulty worker never held a task - the " \
            f"re-dispatch path was not exercised"
        assert run.remote >= 1, f"{fault}: no task executed remotely"

    @pytest.mark.slow
    def test_warm_path_survives_sigkill(self):
        """The incremental pipeline (shed/carry-forward state across days)
        must also come through a mid-map worker loss byte-identical."""
        reference = _reference(incremental=True, days=2)
        run = _run_cluster_with_fault("sigkill-mid-task", days=2,
                                      incremental=True)
        assert (run.labels, run.fpfn, run.signatures) == reference
        assert run.redispatched >= 1


class TestHostilePeerMidMap:
    """One worker of two turns hostile mid-map: tampered HMAC, replayed
    frame, or a forbidden pickle.  Each must be rejected with its typed
    error *before* payload decode, the peer dropped, its lease
    re-dispatched, and the month byte-identical to serial."""

    @pytest.mark.parametrize("fault,reject", [
        ("bad-hmac", "auth"),
        ("replayed-frame", "replay"),
        ("rogue-pickle", "forbidden"),
    ])
    def test_byte_identical_with_typed_reject(self, fault, reject,
                                              serial_reference):
        run = _run_cluster_with_fault(fault)
        assert run.labels == serial_reference[0], \
            f"{fault}: cluster labels diverged after the hostile peer"
        assert run.fpfn == serial_reference[1], f"{fault}: FP/FN diverged"
        assert run.signatures == serial_reference[2], \
            f"{fault}: signatures diverged"
        assert run.rejects[reject] >= 1, \
            f"{fault}: the hostile frame was not rejected as {reject!r}"
        assert run.redispatched >= 1, \
            f"{fault}: the hostile worker's lease was never re-dispatched"
        assert run.remote >= 1, f"{fault}: no task executed remotely"

    def test_graceful_drain_mid_map_returns_result_exactly_once(
            self, serial_reference):
        """SIGTERM mid-lease: the worker finishes the task, its result is
        accepted exactly once, it says goodbye, and nothing re-dispatches."""
        run = _run_cluster_with_fault("drain-mid-task")
        assert run.labels == serial_reference[0], \
            "drain: cluster labels diverged after the graceful departure"
        assert run.fpfn == serial_reference[1]
        assert run.signatures == serial_reference[2]
        assert run.departures >= 1, "the worker never said goodbye"
        assert run.remote >= 1


class TestCoordinatorFailureHandling:
    """Direct coordinator-level failure semantics (no pipeline)."""

    def _coordinator(self, **overrides):
        settings = dict(task_deadline_s=10.0, heartbeat_timeout_s=1.0,
                        max_task_retries=2, min_workers=1, worker_wait_s=10.0,
                        secret=TEST_SECRET)
        settings.update(overrides)
        coordinator = ClusterCoordinator("127.0.0.1", 0, **settings)
        coordinator.start()
        return coordinator

    def test_no_workers_fails_fast_not_hangs(self):
        coordinator = self._coordinator(worker_wait_s=0.5)
        try:
            started = time.monotonic()
            with pytest.raises(ClusterError, match="workers"):
                coordinator.submit("partition_map", [object()])
            assert time.monotonic() - started < 5.0
        finally:
            coordinator.close()

    def test_retry_budget_exhaustion_raises_cluster_error(self):
        """A task that kills every worker it lands on must fail the
        submission once its retry budget is gone — never loop forever."""
        from repro.clustering.partition import PartitionMapTask
        from repro.distance.engine import DistanceEngineConfig

        coordinator = self._coordinator(max_task_retries=1, min_workers=1)
        procs = [spawn_local_worker(coordinator.address,
                                    heartbeat_interval=0.25,
                                    fault="sigkill-mid-task")
                 for _ in range(3)]
        task = PartitionMapTask(index=0, samples=[], epsilon=0.1,
                                min_points=3,
                                engine_config=DistanceEngineConfig())
        try:
            with pytest.raises(ClusterError, match="died|attempt"):
                coordinator.submit("partition_map", [task], timeout=30.0)
            assert coordinator.redispatch_count >= 2
        finally:
            coordinator.close()
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10.0)

    def test_unframeable_task_payload_fails_task_not_workers(self,
                                                             monkeypatch):
        """A payload the wire codec refuses (FrameTooLarge before any byte
        hits the socket) must fail the *submission* with the real cause —
        not masquerade as a dead worker and serially tear down healthy
        ones."""
        from repro.clustering.partition import PartitionMapTask
        from repro.distance.engine import DistanceEngineConfig
        from repro.exec import wire

        real_send = wire.FrameCodec.send

        def refusing_send(self, sock, payload):
            if isinstance(payload, tuple) and payload \
                    and payload[0] == "task":
                raise wire.FrameTooLarge("injected: payload over the bound")
            return real_send(self, sock, payload)

        coordinator = self._coordinator()
        proc = spawn_local_worker(coordinator.address,
                                  heartbeat_interval=0.25)
        task = PartitionMapTask(index=0, samples=[], epsilon=0.1,
                                min_points=3,
                                engine_config=DistanceEngineConfig())
        try:
            coordinator.wait_for_workers(1, timeout=15.0)
            monkeypatch.setattr(wire.FrameCodec, "send", refusing_send)
            with pytest.raises(ClusterError, match="framed"):
                coordinator.submit("partition_map", [task], timeout=20.0)
            monkeypatch.setattr(wire.FrameCodec, "send", real_send)
            # The healthy worker was never torn down over the local
            # encode failure.
            assert coordinator.worker_count == 1
            assert coordinator.redispatch_count == 0
        finally:
            coordinator.close()
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10.0)

    def test_late_duplicate_results_are_dropped(self):
        """At-most-once observable effects: a result frame for a task whose
        lease was torn down (and re-dispatched elsewhere) is ignored."""
        import socket as socket_module

        from repro.exec import wire

        coordinator = self._coordinator(heartbeat_timeout_s=30.0)
        try:
            sock = socket_module.create_connection(coordinator.address,
                                                   timeout=5.0)
            codec = wire.FrameCodec(TEST_SECRET)
            codec.send(sock, ("hello", {"version": wire.WIRE_VERSION,
                                        "pid": 0}))
            kind, body = codec.recv(sock)
            assert kind == "welcome"
            # A result for a task this worker never leased: dropped.
            codec.send(sock, ("result", {"task_id": 12345,
                                         "payload": "stale"}))
            # The connection survives the stale result: a task request is
            # still answered (idle — nothing is queued).
            codec.send(sock, ("request", {}))
            sock.settimeout(5.0)
            assert codec.recv(sock) == ("idle", {})
            assert coordinator.remote_results == 0
            sock.close()
        finally:
            coordinator.close()

    def test_close_is_idempotent_and_shuts_workers_down(self):
        coordinator = self._coordinator()
        proc = spawn_local_worker(coordinator.address,
                                  heartbeat_interval=0.25)
        try:
            coordinator.wait_for_workers(1, timeout=15.0)
            coordinator.close()
            coordinator.close()  # idempotent
            # The worker sees the shutdown (or the dropped socket) and
            # exits on its own.
            deadline = time.monotonic() + 10.0
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert proc.poll() is not None, \
                "worker outlived the coordinator shutdown"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10.0)

    def test_version_mismatched_peer_is_rejected(self):
        """A frame from a different protocol generation must drop the peer
        (typed failure at the wire layer), not corrupt coordinator state."""
        import socket as socket_module
        import struct

        from repro.exec import wire

        coordinator = self._coordinator()
        try:
            sock = socket_module.create_connection(coordinator.address,
                                                   timeout=5.0)
            frame = bytearray(wire.encode_frame(
                ("hello", {"version": wire.WIRE_VERSION, "pid": 0})))
            struct.pack_into(">H", frame, 4, wire.WIRE_VERSION + 1)
            sock.sendall(bytes(frame))
            # The coordinator drops the connection without a welcome
            # (clean FIN or RST, depending on close timing — either way
            # the peer never registers).
            sock.settimeout(5.0)
            try:
                assert sock.recv(1024) == b""
            except ConnectionError:
                pass
            assert coordinator.worker_count == 0
            sock.close()
        finally:
            coordinator.close()

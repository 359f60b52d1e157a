"""Elastic membership tests for the cluster coordinator.

The fleet contract under test: workers may join mid-map (a late
registration folds into the lease pool immediately), leave gracefully
(SIGTERM drains the in-flight lease, returns its result exactly once,
says goodbye — no re-dispatch), and reconnect on a bounded, jittered
exponential schedule (unit-tested as pure numbers, no sleeps).  Workers
are stateless: every lease ships the whole task, whoever served that
partition index before.

Where the fault-injection suite drives real worker subprocesses, most
tests here emulate workers over raw authenticated sockets so lease-level
interleavings (who holds what when a peer joins or leaves) are
deterministic rather than raced for.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import threading
import time
from unittest import mock

import pytest

from repro.clustering.partition import ClusteredSample, PartitionMapTask
from repro.distance.engine import DistanceEngineConfig
from repro.exec import wire
from repro.exec.cluster import ClusterCoordinator, SECRET_ENV, \
    spawn_local_worker
from repro.exec.worker import ReconnectPolicy, Worker, execute_task

#: Secret this run operates under (CI exports it; spawned worker
#: subprocesses inherit it from the environment, so directly constructed
#: coordinators and emulated peers must register under the same one).
TEST_SECRET = os.environ.get(SECRET_ENV)


def _coordinator(**overrides):
    settings = dict(task_deadline_s=30.0, heartbeat_timeout_s=30.0,
                    max_task_retries=2, min_workers=1, worker_wait_s=10.0,
                    secret=TEST_SECRET)
    settings.update(overrides)
    coordinator = ClusterCoordinator("127.0.0.1", 0, **settings)
    coordinator.start()
    return coordinator


def _task(index, samples=()):
    return PartitionMapTask(index=index, samples=list(samples), epsilon=0.1,
                            min_points=3,
                            engine_config=DistanceEngineConfig())


class EmulatedWorker:
    """A protocol-faithful worker the test drives step by step."""

    def __init__(self, address, secret=TEST_SECRET):
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.settimeout(15.0)
        self.codec = wire.FrameCodec(secret)
        self.codec.send(self.sock, ("hello", {"version": wire.WIRE_VERSION,
                                              "pid": 0}))
        kind, body = self.codec.recv(self.sock)
        assert kind == "welcome"
        self.worker_id = body["worker_id"]

    def request(self):
        self.codec.send(self.sock, ("request", {}))
        return self.codec.recv(self.sock)

    def finish(self, body):
        result = execute_task(body["kind"], body["payload"])
        self.codec.send(self.sock, ("result", {"task_id": body["task_id"],
                                               "payload": result}))
        return result

    def drain_loop(self):
        """Serve requests until the queue runs dry (idle)."""
        while True:
            kind, body = self.request()
            if kind != "task":
                return
            self.finish(body)

    def goodbye(self):
        self.codec.send(self.sock, ("goodbye", {}))

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def _submit_async(coordinator, kind, payloads, timeout=30.0):
    """Run submit() on a thread; returns (thread, outcome-box)."""
    box = {}

    def runner():
        try:
            box["result"] = coordinator.submit(kind, payloads,
                                               timeout=timeout)
        except Exception as exc:  # pragma: no cover - surfaced by asserts
            box["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    return thread, box


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.01)


# ----------------------------------------------------------------------
# elastic membership
# ----------------------------------------------------------------------
class TestMidMapJoin:
    def test_late_joiner_contributes_leases_immediately(self):
        """A worker registering while a batch is in flight starts pulling
        leases on its first request — no waiting for the next batch."""
        coordinator = _coordinator()
        first = second = None
        try:
            first = EmulatedWorker(coordinator.address)
            thread, box = _submit_async(
                coordinator, "partition_map", [_task(i) for i in range(3)])
            # The first worker takes a lease and sits on it (mid-map).
            # (Retry: the submit thread may not have enqueued yet.)
            _wait_until(lambda: coordinator.worker_count == 1)
            kind, held = first.request()
            while kind != "task":
                time.sleep(0.01)
                kind, held = first.request()
            # Mid-map join: the second worker registers and immediately
            # receives one of the remaining leases.
            second = EmulatedWorker(coordinator.address)
            kind, body = second.request()
            assert kind == "task", \
                "late joiner was idled despite pending leases"
            second.finish(body)
            first.finish(held)
            for worker in (first, second):
                worker.drain_loop()
            thread.join(timeout=10.0)
            assert "result" in box, box.get("error")
            assert coordinator.tasks_by_worker.get(second.worker_id, 0) >= 1
            assert coordinator.redispatch_count == 0
        finally:
            for worker in (first, second):
                if worker is not None:
                    worker.close()
            coordinator.close()


class TestMidMapJoinByteIdentity:
    def test_late_join_day_is_byte_identical_to_serial(self):
        """Full clustering stage: a second real worker joining while the
        map is in flight changes placement only — the day's clusters are
        byte-identical to the serial run."""
        import datetime

        from repro.clustering.partition import DistributedClusterer
        from repro.ekgen import StreamConfig, TelemetryGenerator
        from repro.exec.backend import BackendConfig, create_backend

        # A day big enough (640 pages, ~1.6 s of map on one worker) that
        # the single starting worker is still mid-map when the late
        # joiner's subprocess finishes starting up and registers.
        generator = TelemetryGenerator(StreamConfig(
            benign_per_day=240,
            kit_daily_counts={"angler": 160, "rig": 120, "nuclear": 120},
            seed=20140801))
        batch = generator.generate_day(datetime.date(2014, 8, 1))
        samples = [ClusteredSample(sample_id=s.sample_id, content=s.content)
                   for s in batch.samples]

        def cluster_key(clusters):
            return [(c.cluster_id,
                     sorted(s.sample_id for s in c.samples))
                    for c in clusters]

        serial = create_backend(BackendConfig(kind="serial"))
        try:
            reference, _ = DistributedClusterer(
                epsilon=0.10, min_points=3, seed=0, backend=serial,
                machines=8).run(samples, partitions=8)
        finally:
            serial.close()

        backend = create_backend(BackendConfig(kind="cluster",
                                               spawn_workers=1))
        joiner = None
        joined = {}

        def join_mid_map():
            _wait_until(lambda: backend.coordinator.remote_results >= 1
                        or backend.coordinator._leased, timeout=30.0,
                        message="the map to start")
            joined["proc"] = spawn_local_worker(backend.address,
                                                heartbeat_interval=0.25)

        thread = threading.Thread(target=join_mid_map, daemon=True)
        try:
            clusterer = DistributedClusterer(
                epsilon=0.10, min_points=3, seed=0, backend=backend,
                machines=8)
            thread.start()
            clusters, _ = clusterer.run(samples, partitions=8)
            thread.join(timeout=30.0)
            joiner = joined.get("proc")
            assert cluster_key(clusters) == cluster_key(reference), \
                "mid-map join changed the clustering output"
            assert backend.coordinator.workers_seen >= 2, \
                "the second worker never registered"
        finally:
            backend.close()
            if joiner is not None and joiner.poll() is None:
                joiner.terminate()
            if joiner is not None:
                joiner.wait(timeout=10.0)


class TestGracefulLeave:
    def test_goodbye_removes_worker_without_redispatch(self):
        coordinator = _coordinator()
        worker = None
        try:
            worker = EmulatedWorker(coordinator.address)
            _wait_until(lambda: coordinator.worker_count == 1)
            worker.goodbye()
            _wait_until(lambda: coordinator.worker_count == 0,
                        message="departure to be processed")
            assert coordinator.graceful_departures == 1
            assert coordinator.redispatch_count == 0
        finally:
            if worker is not None:
                worker.close()
            coordinator.close()

    def test_shrinking_below_min_workers_warns_but_keeps_running(
            self, caplog):
        """min_workers gates only initial assembly: a fleet that shrinks
        below it keeps serving, loudly."""
        coordinator = _coordinator(min_workers=2)
        workers = []
        try:
            workers = [EmulatedWorker(coordinator.address)
                       for _ in range(2)]
            _wait_until(lambda: coordinator.worker_count == 2)
            with caplog.at_level(logging.WARNING,
                                 logger="repro.exec.cluster"):
                workers[1].goodbye()
                _wait_until(lambda: coordinator.worker_count == 1,
                            message="departure to be processed")
            assert any("degraded" in record.message
                       for record in caplog.records), \
                "no degradation warning when the fleet shrank below " \
                "min_workers"
            # The shrunken fleet still serves a whole batch.
            thread, box = _submit_async(coordinator, "partition_map",
                                        [_task(0), _task(1)])
            workers[0].drain_loop()
            thread.join(timeout=10.0)
            assert "result" in box, box.get("error")
        finally:
            for worker in workers:
                worker.close()
            coordinator.close()

    def test_sigterm_drains_real_worker_to_exit_zero(self):
        """Integration: SIGTERM on a live worker subprocess ends in a
        goodbye and exit code 0, with nothing re-dispatched."""
        coordinator = _coordinator()
        proc = spawn_local_worker(coordinator.address,
                                  heartbeat_interval=0.25)
        try:
            coordinator.wait_for_workers(1, timeout=15.0)
            outcomes = coordinator.submit("partition_map", [_task(0)],
                                          timeout=30.0)
            assert len(outcomes) == 1
            proc.terminate()  # SIGTERM: drain, goodbye, exit 0
            assert proc.wait(timeout=15.0) == 0
            _wait_until(lambda: coordinator.graceful_departures == 1,
                        message="goodbye to be processed")
            assert coordinator.redispatch_count == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
            coordinator.close()


class TestReconnectPolicy:
    def test_schedule_is_bounded_and_jittered_without_sleeping(self):
        policy = ReconnectPolicy(base_s=0.5, cap_s=30.0, max_attempts=8,
                                 rng=random.Random(7))
        delays = [policy.delay(attempt) for attempt in range(32)]
        for attempt, delay in enumerate(delays):
            bound = min(30.0, 0.5 * 2.0 ** attempt)
            assert 0.5 * bound <= delay <= bound, \
                f"attempt {attempt}: {delay} outside [{0.5 * bound}, {bound}]"
        assert max(delays) <= 30.0
        # Jitter: the late (cap-bounded) delays must not all collapse to
        # one value — lockstep reconnect storms are the failure mode.
        capped = delays[10:]
        assert len({round(delay, 6) for delay in capped}) > 1

    def test_schedule_is_deterministic_under_a_seeded_rng(self):
        one = ReconnectPolicy(rng=random.Random(3))
        two = ReconnectPolicy(rng=random.Random(3))
        assert [one.delay(a) for a in range(10)] == \
            [two.delay(a) for a in range(10)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReconnectPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            ReconnectPolicy(base_s=2.0, cap_s=1.0)
        with pytest.raises(ValueError):
            ReconnectPolicy(max_attempts=-1)

    def test_real_worker_reconnects_after_a_dropped_connection(self):
        """Integration: severing a worker's connection coordinator-side
        makes the worker re-register (a second registration of the same
        process), not die."""
        coordinator = _coordinator()
        proc = spawn_local_worker(coordinator.address,
                                  heartbeat_interval=0.25)
        try:
            coordinator.wait_for_workers(1, timeout=15.0)
            with coordinator._state:
                victim = next(iter(coordinator._workers.values()))
            victim.kill_connection()
            _wait_until(lambda: coordinator.workers_seen >= 2, timeout=15.0,
                        message="the worker to reconnect")
            assert proc.poll() is None, "worker died instead of reconnecting"
        finally:
            coordinator.close()
            if proc.poll() is None:
                proc.terminate()
            proc.wait(timeout=10.0)


# ----------------------------------------------------------------------
# stateless workers: every lease is a full lease
# ----------------------------------------------------------------------
def _tokenized_samples(day):
    return [ClusteredSample.from_content(f"d{day}s{i}",
                                         f"var x{day}_{i} = {i} + {day};")
            for i in range(4)]


class TestFullLeases:
    def _serve_one(self, coordinator, worker, payloads):
        thread, box = _submit_async(coordinator, "partition_map", payloads)
        bodies = []
        while True:
            kind, body = worker.request()
            if kind != "task":
                if "result" in box or "error" in box:
                    break
                time.sleep(0.01)
                continue
            bodies.append(body)
            worker.finish(body)
        thread.join(timeout=10.0)
        assert "result" in box, box.get("error")
        return bodies

    def test_repeat_partition_index_ships_every_token_again(self):
        """Day over day the same worker serves partition 0 — of different
        samples, as the daily shuffle guarantees.  Each lease carries the
        tokens the driver already derived; the worker holds nothing that
        could stand in for them."""
        coordinator = _coordinator()
        worker = None
        try:
            worker = EmulatedWorker(coordinator.address)
            for day in (1, 2):
                samples = _tokenized_samples(day)
                bodies = self._serve_one(coordinator, worker,
                                         [_task(0, samples)])
                assert [body["payload"].index for body in bodies] == [0]
                assert bodies[0]["payload"].samples == samples, \
                    f"day {day}: lease did not ship the task as submitted"
            assert coordinator.tasks_by_worker == {worker.worker_id: 2}
            assert coordinator.task_bytes_sent > 0
        finally:
            if worker is not None:
                worker.close()
            coordinator.close()

    def test_worker_never_lexes_what_the_driver_already_lexed(self):
        task = _task(0, _tokenized_samples(1) + _tokenized_samples(2))
        expected = task.run()
        with mock.patch("repro.clustering.partition.abstract_token_string",
                        side_effect=AssertionError("worker ran the lexer")):
            result = execute_task("partition_map", task)
        assert result == expected


class TestCleanShutdown:
    def test_close_joins_every_service_thread(self):
        coordinator = _coordinator()
        worker = EmulatedWorker(coordinator.address)
        try:
            _wait_until(lambda: coordinator.worker_count == 1)
        finally:
            worker.close()
            coordinator.close()
        assert coordinator.leaked_threads() == [], \
            "coordinator close() left service threads running"

    def test_silent_peer_is_dropped_within_the_heartbeat_timeout(self):
        """A peer that connects and never says hello is not a registered
        worker, so no heartbeat covers it; the handshake has its own
        deadline (the same heartbeat timeout)."""
        coordinator = _coordinator(heartbeat_timeout_s=0.5)
        peers = [socket.create_connection(coordinator.address, timeout=5.0)
                 for _ in range(3)]
        try:
            started = time.monotonic()
            for peer in peers:
                peer.settimeout(5.0)
                assert peer.recv(1) == b"", "silent peer was not dropped"
            assert time.monotonic() - started < 3.0
            _wait_until(lambda: len(coordinator.leaked_threads()) == 2,
                        message="the silent peers' handlers to exit")
            assert coordinator.worker_count == 0
        finally:
            for peer in peers:
                peer.close()
            coordinator.close()

    def test_close_tears_down_peers_that_never_said_hello(self):
        coordinator = _coordinator(heartbeat_timeout_s=30.0)
        peers = [socket.create_connection(coordinator.address, timeout=5.0)
                 for _ in range(3)]
        try:
            _wait_until(lambda: len(coordinator._handshaking) == 3,
                        message="the silent peers to be accepted")
            started = time.monotonic()
            coordinator.close()
            elapsed = time.monotonic() - started
            assert coordinator.leaked_threads() == [], \
                "close() left handlers of unregistered peers running"
            assert elapsed < coordinator.CLOSE_JOIN_TIMEOUT
        finally:
            for peer in peers:
                peer.close()
            coordinator.close()

    def test_handler_thread_list_stays_bounded_under_churn(self):
        """Connect-and-close cycles (a reconnecting worker, a port scan)
        must not grow the coordinator's thread list for its lifetime."""
        coordinator = _coordinator()
        try:
            for _ in range(40):
                socket.create_connection(coordinator.address,
                                         timeout=5.0).close()
            def only_the_live_handler_is_listed():
                # Finished handlers are dropped at the next accept, and some
                # of the 40 may still sit in the listen backlog, so keep
                # offering one live peer until the list is exactly
                # accept + monitor + that peer's handler.
                live = socket.create_connection(coordinator.address,
                                                timeout=5.0)
                try:
                    deadline = time.monotonic() + 0.5
                    while time.monotonic() < deadline:
                        if len(coordinator._threads) == 3:
                            return True
                        time.sleep(0.01)
                    return False
                finally:
                    live.close()

            _wait_until(only_the_live_handler_is_listed,
                        message="finished handlers to be dropped")
        finally:
            coordinator.close()
        assert coordinator.leaked_threads() == []

    def test_fault_armed_worker_never_reconnects(self):
        """Fault scenarios are one-shot: a worker armed with a fault must
        not rejoin the fleet after its connection is torn down."""
        import signal

        worker = Worker(("127.0.0.1", 1), fault="bad-hmac",
                        reconnect=ReconnectPolicy(max_attempts=5))
        # No coordinator is listening: the dial fails, and because a fault
        # is armed the worker gives up instead of running its backoff
        # schedule (total wait would otherwise be seconds).
        previous = signal.getsignal(signal.SIGTERM)
        started = time.monotonic()
        try:
            assert worker.run() == 1
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert time.monotonic() - started < 2.0

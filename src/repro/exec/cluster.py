"""True multi-machine execution: a TCP coordinator and its backend.

The paper ran the daily clustering as map tasks on a real machine cluster;
this module closes that gap.  A :class:`ClusterCoordinator` listens on a
TCP socket, registers :mod:`repro.exec.worker` processes as they connect
(from this host or any other), leases them whole
:class:`~repro.clustering.partition.PartitionMapTask` objects and collects
the results.  :class:`ClusterBackend` wraps the coordinator behind the
ordinary :class:`~repro.exec.backend.ExecutionBackend` interface: its
``run_partition_map`` is the TCP lease, so the pipeline drives a real
cluster through exactly the seam the process backend uses.

Trust model
-----------
Every frame on the wire is HMAC-authenticated under a shared secret
(``--cluster-secret`` / ``REPRO_CLUSTER_SECRET``) and carries a
per-connection monotonic sequence number; payloads decode through an
allow-listed, pickle-free codec (:mod:`repro.exec.wire`).  All three
checks run at one boundary *before* any payload is interpreted, so a
hostile peer — or a compromised worker — can tamper, replay, or ship a
code-executing pickle and get nothing but a typed rejection
(:class:`~repro.exec.wire.AuthError` /
:class:`~repro.exec.wire.ReplayError` /
:class:`~repro.exec.wire.ForbiddenPayload`), a dropped connection, and
its lease re-dispatched to a surviving worker.  The coordinator counts
each rejection kind in :attr:`ClusterCoordinator.reject_counts`.

Failure and membership model
----------------------------
Workers lease one task at a time (pull model) and are monitored two ways:
a *heartbeat* timeout (any frame from the worker counts as liveness; the
worker also sends explicit heartbeats while computing) and a *per-task
deadline* on every lease.  A worker that misses either — or whose socket
drops, cleanly or mid-frame — is declared dead: its connection is torn
down and its leased task goes back to the front of the queue with the dead
worker recorded in the task's *exclusion list* and its attempt counter
bumped.  A task that exhausts ``max_task_retries`` re-dispatches fails the
whole submission (:class:`ClusterError`) rather than silently degrading.
A peer that connects and does not say ``hello`` within the heartbeat
timeout never registered, so it holds no lease; it is simply dropped.

The fleet is *elastic*: workers may register at any time — including in
the middle of a map, where a late joiner immediately folds into the lease
pool — and leave gracefully: a SIGTERM'd worker finishes its current
lease, returns the result, sends ``goodbye`` and exits, never tripping
the re-dispatch path.  ``min_workers`` gates only the *initial* fleet
assembly; a fleet that later shrinks below it keeps running, loudly
(``repro.exec.cluster`` logger) but correctly.

Determinism: a task's result is a pure function of the task — never of the
worker that ran it — and results are merged in task order regardless of
completion order, so any worker count, placement, churn, or mid-map
re-dispatch is byte-identical to in-process execution.  Effects are
at-most-once *observable*: a re-dispatched task may execute twice, but the
coordinator accepts only the result of the live lease and drops late
duplicates — and task execution is pure, so even the dropped duplicate had
no side effects.
"""

from __future__ import annotations

import logging
import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec import wire
from repro.exec.backend import BackendConfig, ExecutionBackend
from repro.exec.partition import worth_shipping

logger = logging.getLogger("repro.exec.cluster")

#: Default coordinator bind address: loopback, OS-assigned port.
DEFAULT_LISTEN = "127.0.0.1:0"

#: Environment variable carrying the shared wire secret (the CLI's
#: ``--cluster-secret`` overrides it; worker subprocesses inherit it).
SECRET_ENV = "REPRO_CLUSTER_SECRET"


class ClusterError(RuntimeError):
    """The cluster could not complete a submission (no workers arrived,
    a task exhausted its retry budget, or the overall deadline passed)."""


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (IPv4/hostname form).

    Raises ``ValueError`` unless the port is an integer in 0-65535, so a
    bad address is a usage error, not a failure inside ``bind``/``connect``.
    """
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        number = int(port)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise ValueError(
            f"port must be an integer in 0-65535, got {text!r}")
    return host, number


# ----------------------------------------------------------------------
# coordinator internals
# ----------------------------------------------------------------------
@dataclass
class _TaskState:
    """One unit of leased work and its lifecycle bookkeeping."""

    task_id: int
    kind: str
    payload: Any
    attempts: int = 0
    excluded: set = field(default_factory=set)
    lease_worker: Optional[str] = None
    lease_deadline: float = 0.0
    done: bool = False
    failed: Optional[str] = None
    result: Any = None
    worker_id: Optional[str] = None  # who produced the accepted result


def _kill_socket(conn: socket.socket) -> None:
    """Tear a socket down; unblocks a thread blocked in ``recv`` on it."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    def __init__(self, worker_id: str, conn: socket.socket,
                 address: Tuple[str, int], pid: Optional[int],
                 codec: wire.FrameCodec) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.address = address
        self.pid = pid
        self.codec = codec
        self.last_seen = time.monotonic()
        self.batch_tasks = 0   # tasks leased in the current submission
        self.tasks_done = 0
        self.send_lock = threading.Lock()
        self.alive = True

    def send(self, payload: Any) -> int:
        """Frame-and-send under the send lock; returns bytes written."""
        with self.send_lock:
            return self.codec.send(self.conn, payload)

    def kill_connection(self) -> None:
        """Tear the socket down; unblocks the handler thread's recv."""
        _kill_socket(self.conn)


class ClusterCoordinator:
    """TCP coordinator: registers workers, leases tasks, collects results.

    Parameters
    ----------
    host, port:
        Bind address; port 0 asks the OS for a free port (read the real
        one from :attr:`address` after :meth:`start`).
    task_deadline_s:
        Per-lease execution deadline.  A worker holding a lease past this
        is presumed stuck and declared dead.
    heartbeat_timeout_s:
        Maximum silence (no frame of any kind) before a worker is declared
        dead.  Workers heartbeat from a side thread while computing, so a
        long task does not trip this.
    max_task_retries:
        Re-dispatch budget per task; exhausting it fails the submission.
    min_workers:
        Workers the *initial* fleet must reach before the first lease is
        handed out.  Once that many have registered at least once, later
        submissions only require a single live worker — a fleet shrunk by
        failures or graceful departures keeps making progress, with a
        loud degradation warning on the module logger.
    worker_wait_s:
        How long :meth:`submit` waits for ``min_workers`` to arrive.
    secret:
        Shared wire secret: every frame either way is HMAC'd under it and
        a peer that cannot produce valid tags never registers, let alone
        leases work.  ``None`` falls back to the public default key
        (integrity checking only — single-host development mode).
    """

    #: Monitor thread poll interval (heartbeat/deadline sweep).
    MONITOR_INTERVAL = 0.1

    #: How long :meth:`close` waits on each service thread before
    #: declaring it leaked (loud warning, but shutdown proceeds).
    CLOSE_JOIN_TIMEOUT = 2.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 task_deadline_s: float = 60.0,
                 heartbeat_timeout_s: float = 10.0,
                 max_task_retries: int = 3,
                 min_workers: int = 1,
                 worker_wait_s: float = 30.0,
                 secret: Optional[str] = None) -> None:
        if task_deadline_s <= 0 or heartbeat_timeout_s <= 0:
            raise ValueError("deadlines must be positive")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be non-negative")
        if min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        self.task_deadline_s = task_deadline_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_task_retries = max_task_retries
        self.min_workers = min_workers
        self.worker_wait_s = worker_wait_s
        self.secret = secret

        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(64)
        #: Resolved ``(host, port)`` the coordinator is reachable on.
        self.address: Tuple[str, int] = self._server.getsockname()[:2]

        self._state = threading.Condition()
        self._workers: Dict[str, _WorkerConn] = {}
        #: Accepted connections that have not said ``hello`` yet -> accept
        #: time.  No worker entry covers them, so the monitor sweep and
        #: :meth:`close` reach them through this table.
        self._handshaking: Dict[socket.socket, float] = {}
        self._pending: "deque[_TaskState]" = deque()
        self._leased: Dict[int, _TaskState] = {}
        self._next_worker = 0
        self._next_task = 0
        self._closed = False
        self._submit_lock = threading.Lock()
        self._threads: List[threading.Thread] = []

        #: Tasks whose lease was torn down and re-queued (the fault
        #: tests and the nightly benchmark assert on this).
        self.redispatch_count = 0
        #: Results accepted from remote workers.
        self.remote_results = 0
        #: worker_id -> accepted result count.
        self.tasks_by_worker: Dict[str, int] = {}
        #: Workers that ever completed registration.
        self.workers_seen = 0
        #: Workers that said ``goodbye`` (graceful SIGTERM drains).
        self.graceful_departures = 0
        #: Typed wire rejections, counted before any payload decode.
        self.reject_counts: Dict[str, int] = {
            "auth": 0, "replay": 0, "forbidden": 0}
        #: Total encoded bytes of ``task`` frames sent to workers.
        self.task_bytes_sent = 0

        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Launch the accept and monitor threads; returns the address."""
        if self._started:
            return self.address
        self._started = True
        for target, name in ((self._accept_loop, "cluster-accept"),
                             (self._monitor_loop, "cluster-monitor")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def close(self) -> None:
        """Drain and shut down: tell workers to exit, drop connections,
        stop the service threads.  Idempotent.  Threads that fail to join
        within :attr:`CLOSE_JOIN_TIMEOUT` are reported loudly (and in the
        backend tests, assertively) rather than silently abandoned."""
        with self._state:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            handshaking = list(self._handshaking)
            threads = list(self._threads)
            self._state.notify_all()
        for worker in workers:
            try:
                worker.send(("shutdown", {}))
            except (OSError, wire.WireError):
                pass
            worker.kill_connection()
        for conn in handshaking:
            _kill_socket(conn)
        # Wake the accept loop (closing the listener alone does not
        # reliably unblock accept() on every platform).
        try:
            poke = socket.create_connection(self.address, timeout=0.5)
            poke.close()
        except OSError:
            pass
        try:
            self._server.close()
        except OSError:
            pass
        for thread in threads:
            thread.join(timeout=self.CLOSE_JOIN_TIMEOUT)
        leaked = self.leaked_threads()
        if leaked:
            logger.warning(
                "coordinator close() leaked %d thread(s) still alive after "
                "the %.1fs join window: %s — shutdown proceeds, but this "
                "indicates a stuck connection handler or monitor",
                len(leaked), self.CLOSE_JOIN_TIMEOUT,
                [thread.name for thread in leaked])

    def leaked_threads(self) -> List[threading.Thread]:
        """Service/handler threads still alive (expected empty once
        :meth:`close` returns; the backend tests assert exactly that)."""
        return [thread for thread in self._threads if thread.is_alive()]

    @property
    def worker_count(self) -> int:
        with self._state:
            return len(self._workers)

    def wait_for_workers(self, count: int,
                         timeout: Optional[float] = None) -> None:
        """Block until ``count`` workers are registered."""
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.worker_wait_s)
        with self._state:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"only {len(self._workers)} of {count} workers "
                        f"connected within the wait window")
                self._state.wait(timeout=min(remaining, 0.2))

    # -- submission -----------------------------------------------------
    def submit(self, kind: str, payloads: Sequence[Any],
               timeout: Optional[float] = None
               ) -> List[Tuple[Any, Optional[str]]]:
        """Lease every payload to the worker pool; block for all results.

        Returns ``[(result, worker_id), ...]`` in payload order.  One
        submission runs at a time (the pipeline's stages are sequential);
        raises :class:`ClusterError` on retry exhaustion, worker drought,
        or overall timeout — never hangs.  The default timeout scales with
        the batch: even one surviving worker grinding through every task
        serially, each near its per-lease deadline, stays within it.

        Membership is sampled continuously, not at entry: a worker that
        registers while the batch is in flight starts pulling leases on
        its next request (mid-map joins contribute immediately).
        """
        if timeout is None:
            timeout = self.worker_wait_s + 30.0 + self.task_deadline_s * (
                len(payloads) + self.max_task_retries + 1)
        with self._submit_lock:
            # Assemble the full fleet once; after that, one survivor is
            # enough (shrinkage is the failure model, not a config error).
            if self.workers_seen < self.min_workers:
                self.wait_for_workers(self.min_workers)
            else:
                self.wait_for_workers(1)
            deadline = time.monotonic() + timeout
            with self._state:
                states = []
                for payload in payloads:
                    state = _TaskState(task_id=self._next_task, kind=kind,
                                       payload=payload)
                    self._next_task += 1
                    states.append(state)
                    self._pending.append(state)
                # New batch: reset the first-lease fairness counters.
                for worker in self._workers.values():
                    worker.batch_tasks = 0
                self._state.notify_all()
                while True:
                    failed = next((s for s in states if s.failed), None)
                    if failed is not None:
                        self._abort_batch(states)
                        raise ClusterError(
                            f"task {failed.task_id} ({kind}) failed after "
                            f"{failed.attempts} attempt(s): {failed.failed}")
                    if all(s.done for s in states):
                        break
                    if time.monotonic() > deadline:
                        self._abort_batch(states)
                        raise ClusterError(
                            f"submission of {len(states)} {kind} task(s) "
                            f"did not complete within {timeout:.1f}s "
                            f"({sum(s.done for s in states)} done, "
                            f"{len(self._workers)} worker(s) connected)")
                    self._state.wait(timeout=0.2)
                return [(s.result, s.worker_id) for s in states]

    def _abort_batch(self, states: List[_TaskState]) -> None:
        """Withdraw a failed batch's tasks (caller holds the lock)."""
        batch = {s.task_id for s in states}
        self._pending = deque(s for s in self._pending
                              if s.task_id not in batch)
        for task_id in [t for t in self._leased if t in batch]:
            del self._leased[task_id]

    # -- accept/handler/monitor threads ---------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, address = self._server.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_worker, args=(conn, address),
                name="cluster-conn", daemon=True)
            with self._state:
                if self._closed:
                    conn.close()
                    return
                self._handshaking[conn] = time.monotonic()
                # Finished handlers are dropped here, so reconnects and
                # port scans cannot grow the list for the coordinator's
                # lifetime.  The thread starts under the lock because
                # close() snapshots the list under it and joins every entry.
                self._threads = [t for t in self._threads
                                 if t.is_alive()] + [thread]
                thread.start()

    def _serve_worker(self, conn: socket.socket,
                      address: Tuple[str, int]) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        codec = wire.FrameCodec(self.secret)
        worker: Optional[_WorkerConn] = None
        try:
            hello = codec.recv(conn)
            if not (isinstance(hello, tuple) and len(hello) == 2
                    and hello[0] == "hello" and isinstance(hello[1], dict)):
                conn.close()
                return
            info = hello[1]
            with self._state:
                if self._closed:
                    # Raced with close(): the shutdown snapshot no longer
                    # covers us, so registering now would leak this
                    # handler, socket and worker process past close().
                    conn.close()
                    return
                del self._handshaking[conn]
                self._next_worker += 1
                worker = _WorkerConn(f"w{self._next_worker}", conn, address,
                                     info.get("pid"), codec)
                self._workers[worker.worker_id] = worker
                self.workers_seen += 1
                self._state.notify_all()
            logger.info("worker %s registered from %s (pid %s); fleet=%d",
                        worker.worker_id, address, info.get("pid"),
                        self.worker_count)
            worker.send(("welcome", {
                "worker_id": worker.worker_id,
                "heartbeat_timeout_s": self.heartbeat_timeout_s}))
            while True:
                message = codec.recv(conn)
                if not (isinstance(message, tuple) and len(message) == 2
                        and isinstance(message[1], dict)):
                    break  # protocol drift: drop the peer
                kind, body = message
                with self._state:
                    worker.last_seen = time.monotonic()
                if kind == "heartbeat":
                    continue
                if kind == "request":
                    self._handle_request(worker)
                elif kind == "result":
                    self._handle_result(worker, body)
                elif kind == "failed":
                    self._handle_failed(worker, body)
                elif kind == "goodbye":
                    self._handle_goodbye(worker)
                    return
                else:  # unknown frame kind: protocol drift, drop the peer
                    break
        except wire.AuthError as exc:
            self._record_reject("auth", worker, address, exc)
        except wire.ReplayError as exc:
            self._record_reject("replay", worker, address, exc)
        except wire.ForbiddenPayload as exc:
            self._record_reject("forbidden", worker, address, exc)
        except (wire.WireError, OSError):
            pass
        finally:
            if worker is not None:
                self._mark_dead(worker)
            else:
                with self._state:
                    self._handshaking.pop(conn, None)
                _kill_socket(conn)

    def _record_reject(self, category: str, worker: Optional[_WorkerConn],
                       address: Tuple[str, int], exc: Exception) -> None:
        """Count and loudly log a typed wire rejection.  The frame never
        reached payload decode; the connection is torn down by the
        caller's ``finally`` (re-queueing any lease the peer held)."""
        with self._state:
            self.reject_counts[category] += 1
        who = worker.worker_id if worker is not None else "unregistered peer"
        logger.warning("rejected frame from %s at %s before decode "
                       "(%s): %s", who, address, category, exc)

    def _handle_request(self, worker: _WorkerConn) -> None:
        with self._state:
            task = self._next_task_for(worker)
            if task is not None:
                task.lease_worker = worker.worker_id
                task.lease_deadline = time.monotonic() + self.task_deadline_s
                task.attempts += 1
                self._leased[task.task_id] = task
                worker.batch_tasks += 1
        if task is None:
            worker.send(("idle", {}))
            return
        try:
            # An OSError here means the connection is dead; the handler's
            # recv side hits the same error and _mark_dead re-queues the
            # lease.
            sent = worker.send(("task", {"task_id": task.task_id,
                                         "kind": task.kind,
                                         "payload": task.payload,
                                         "deadline_s": self.task_deadline_s}))
            with self._state:
                self.task_bytes_sent += sent
        except wire.FrameTooLarge as exc:
            # Local encode failure: no byte hit the socket, the worker is
            # perfectly healthy, and every other worker would fail the
            # same way — fail the *task*, not the connection (otherwise
            # one oversized payload would serially kill healthy workers
            # and surface as a misleading "worker died").
            with self._state:
                if self._leased.pop(task.task_id, None) is not None:
                    task.lease_worker = None
                    task.failed = f"task payload cannot be framed: {exc}"
                    self._state.notify_all()
            worker.send(("idle", {}))

    def _next_task_for(self, worker: _WorkerConn) -> Optional[_TaskState]:
        """Pop the first pending task this worker should run (lock held).

        First-lease fairness: while some *connected* workers have not
        received any task of the current batch, the last ``k`` pending
        tasks are reserved for those ``k`` workers.  Work still flows —
        a fast worker is only deferred when pending tasks are scarcer
        than unserved workers — but every live worker is guaranteed a
        first lease, which both spreads the map and makes the
        fault-injection tests deterministic (the faulty worker *will*
        hold a task when it dies)."""
        if not self._pending:
            return None
        unserved = sum(
            1 for other in self._workers.values()
            if other.batch_tasks == 0 and other.worker_id != worker.worker_id)
        if worker.batch_tasks > 0 and len(self._pending) <= unserved:
            return None
        for index, task in enumerate(self._pending):
            if worker.worker_id not in task.excluded:
                del self._pending[index]
                return task
        return None

    def _handle_result(self, worker: _WorkerConn, body: Dict) -> None:
        task_id = body.get("task_id")
        with self._state:
            task = self._leased.get(task_id)
            if task is None or task.lease_worker != worker.worker_id \
                    or task.done:
                # Late duplicate from a lease already torn down and
                # re-dispatched: at-most-once observable effects — drop it.
                return
            del self._leased[task_id]
            task.done = True
            task.result = body.get("payload")
            task.worker_id = worker.worker_id
            task.lease_worker = None
            worker.tasks_done += 1
            self.remote_results += 1
            self.tasks_by_worker[worker.worker_id] = \
                self.tasks_by_worker.get(worker.worker_id, 0) + 1
            self._state.notify_all()

    def _handle_failed(self, worker: _WorkerConn, body: Dict) -> None:
        """A worker reported a task error without dying: exclude it from
        this task and re-queue (same path as a dead worker's lease)."""
        task_id = body.get("task_id")
        with self._state:
            task = self._leased.get(task_id)
            if task is None or task.lease_worker != worker.worker_id:
                return
            del self._leased[task_id]
            self._requeue(task, worker.worker_id,
                          reason=body.get("error", "worker error"))
            self._state.notify_all()

    def _handle_goodbye(self, worker: _WorkerConn) -> None:
        """A graceful departure: the worker drained its lease (result
        already accepted) and is leaving.  No re-dispatch, no exclusion —
        just removal from the fleet and, if it dropped us below the
        initial assembly size, a loud degradation note."""
        with self._state:
            if not worker.alive:
                return
            worker.alive = False
            self._workers.pop(worker.worker_id, None)
            self.graceful_departures += 1
            # A drained worker holds no lease; if one slipped through
            # (goodbye raced a lease grant), re-queue it like a death.
            for task_id in [t for t, s in self._leased.items()
                            if s.lease_worker == worker.worker_id]:
                task = self._leased.pop(task_id)
                self._requeue(task, worker.worker_id,
                              reason=f"worker {worker.worker_id} left "
                                     f"mid-lease")
            self._state.notify_all()
            # Logged before the lock is released (it is re-entrant), so
            # whoever sees the smaller fleet also sees the notes about it.
            logger.info("worker %s left gracefully; fleet=%d",
                        worker.worker_id, self.worker_count)
            self._warn_if_degraded()
        worker.kill_connection()

    def _requeue(self, task: _TaskState, worker_id: str,
                 reason: str) -> None:
        """Return a torn-down lease to the queue front (lock held)."""
        task.lease_worker = None
        task.excluded.add(worker_id)
        self.redispatch_count += 1
        if task.attempts > self.max_task_retries:
            task.failed = reason
        else:
            self._pending.appendleft(task)

    def _mark_dead(self, worker: _WorkerConn) -> None:
        worker.kill_connection()
        with self._state:
            if not worker.alive:
                return
            worker.alive = False
            self._workers.pop(worker.worker_id, None)
            reclaimed = 0
            for task_id in [t for t, s in self._leased.items()
                            if s.lease_worker == worker.worker_id]:
                task = self._leased.pop(task_id)
                self._requeue(task, worker.worker_id,
                              reason=f"worker {worker.worker_id} died or "
                                     f"timed out")
                reclaimed += 1
            self._state.notify_all()
            if not self._closed:        # logged under the lock, as above
                logger.warning("worker %s died or timed out; %d lease(s) "
                               "re-queued; fleet=%d", worker.worker_id,
                               reclaimed, self.worker_count)
                self._warn_if_degraded()

    def _warn_if_degraded(self) -> None:
        """Loud note when the live fleet is below the assembly size.  The
        cluster keeps running — shrinkage is the failure model — but an
        operator should know the month is grinding on fewer machines."""
        live = self.worker_count
        if self.workers_seen >= self.min_workers and live < self.min_workers:
            logger.warning(
                "cluster degraded: %d live worker(s), below the initial "
                "assembly size min_workers=%d; continuing with re-dispatch "
                "onto the survivors", live, self.min_workers)

    def _monitor_loop(self) -> None:
        """Sweep heartbeats, lease deadlines and overdue handshakes;
        killing the connection of an expired worker unblocks its handler
        thread, which re-queues the lease through :meth:`_mark_dead`.  A
        peer that connected and has not said ``hello`` within the heartbeat
        timeout is dropped the same way."""
        while True:
            with self._state:
                if self._closed:
                    return
                now = time.monotonic()
                expired = [
                    worker for worker in self._workers.values()
                    if now - worker.last_seen > self.heartbeat_timeout_s]
                overdue = [
                    self._workers[state.lease_worker]
                    for state in self._leased.values()
                    if state.lease_worker in self._workers
                    and now > state.lease_deadline]
                silent = [
                    conn for conn, since in self._handshaking.items()
                    if now - since > self.heartbeat_timeout_s]
            for worker in {w.worker_id: w
                           for w in expired + overdue}.values():
                worker.kill_connection()
            for conn in silent:
                _kill_socket(conn)
            time.sleep(self.MONITOR_INTERVAL)


# ----------------------------------------------------------------------
# local worker spawning (tests, examples, and the CLI's convenience path)
# ----------------------------------------------------------------------
def spawn_local_worker(address: Tuple[str, int], *,
                       heartbeat_interval: float = 2.0,
                       fault: Optional[str] = None,
                       secret: Optional[str] = None,
                       python: Optional[str] = None,
                       capture_output: bool = False,
                       extra_args: Sequence[str] = ()) -> subprocess.Popen:
    """Launch ``python -m repro.exec.worker --connect host:port`` locally.

    The child inherits the environment with this package's ``src`` root
    prepended to ``PYTHONPATH`` (the worker must import the very same code
    the coordinator frames tasks from) and, when ``secret`` is given, the
    shared wire secret via ``REPRO_CLUSTER_SECRET`` (environment, not
    argv, so it never shows in a process listing).  ``fault`` forwards a
    fault-injection flag (test harness only; see :mod:`repro.exec.worker`).
    """
    import repro

    host, port = address
    # Locally spawned workers share the coordinator's fate, so a long
    # reconnect schedule only delays teardown; external workers keep the
    # CLI's larger default budget.
    command = [python or sys.executable, "-m", "repro.exec.worker",
               "--connect", f"{host}:{port}",
               "--heartbeat-interval", str(heartbeat_interval),
               "--reconnect-attempts", "2"]
    if fault:
        command += ["--fault", fault]
    command += list(extra_args)
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    if secret is not None:
        env[SECRET_ENV] = secret
    sink = subprocess.PIPE if capture_output else subprocess.DEVNULL
    return subprocess.Popen(command, env=env, stdout=sink, stderr=sink)


# ----------------------------------------------------------------------
# the backend
# ----------------------------------------------------------------------
class ClusterBackend(ExecutionBackend):
    """Real multi-machine execution behind the standard backend seam.

    The coordinator starts (and binds) at construction, so callers can
    read :attr:`address` and point external workers at it before the
    first day is processed; ``config.spawn_workers`` optionally launches
    that many localhost worker subprocesses for single-host use (the CI
    and example path).  The wire secret resolves from ``config.secret``
    or the ``REPRO_CLUSTER_SECRET`` environment variable and is handed to
    spawned workers through their environment.  :attr:`redispatch_count`,
    :attr:`reject_counts` and the per-worker task counts surface the
    failure-handling telemetry the fault tests and the nightly benchmark
    assert on.
    """

    name = "cluster"

    def __init__(self, config: BackendConfig) -> None:
        super().__init__(config)
        host, port = parse_address(config.listen or DEFAULT_LISTEN)
        min_workers = max(1, config.spawn_workers)
        secret = config.secret if config.secret is not None \
            else os.environ.get(SECRET_ENV)
        self.coordinator = ClusterCoordinator(
            host, port,
            task_deadline_s=config.task_deadline_s,
            heartbeat_timeout_s=config.heartbeat_timeout_s,
            max_task_retries=config.max_task_retries,
            min_workers=min_workers,
            secret=secret)
        self.coordinator.start()
        self._procs: List[subprocess.Popen] = [
            spawn_local_worker(
                self.coordinator.address,
                heartbeat_interval=config.heartbeat_timeout_s / 4.0,
                secret=secret)
            for _ in range(config.spawn_workers)]

    # -- transport ------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """Where workers should ``--connect``."""
        return self.coordinator.address

    @property
    def ship_width(self) -> int:
        """Workers connected right now — telemetry only (``map_workers``);
        no reported time is derived from the fleet's momentary size."""
        return max(1, self.coordinator.worker_count)

    @property
    def redispatch_count(self) -> int:
        """Leases torn down (dead/timed-out worker) and re-queued."""
        return self.coordinator.redispatch_count

    @property
    def remote_task_count(self) -> int:
        """Results accepted from remote workers (engagement telemetry)."""
        return self.coordinator.remote_results

    @property
    def reject_counts(self) -> Dict[str, int]:
        """Typed wire rejections (auth/replay/forbidden), pre-decode."""
        return dict(self.coordinator.reject_counts)

    def run_partition_map(self, tasks: Sequence[Any], engine: Any
                          ) -> List[Any]:
        """Lease the batch to the worker fleet.  Each result is annotated
        with the worker that produced it (``result.worker_id``) so the
        distance engine can attribute remote stats per worker."""
        # The fleet is elastic — workers may still be connecting, and are
        # awaited at dispatch — so its momentary width never vetoes a ship.
        if not worth_shipping(tasks, width=2):
            return super().run_partition_map(tasks, engine)
        results = []
        for result, worker_id in self.coordinator.submit("partition_map",
                                                         list(tasks)):
            result.worker_id = worker_id
            results.append(result)
        return results

    def close(self) -> None:
        """Drain the cluster: shut the coordinator down (which tells
        connected workers to exit) and reap spawned local workers."""
        self.coordinator.close()
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        self._procs = []

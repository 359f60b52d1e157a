"""Standalone cluster worker: ``python -m repro.exec.worker --connect ...``.

One worker process serves one coordinator at a time.  The loop is a pull
model: the worker requests a task, executes it, sends the result, repeats;
a side thread heartbeats over the same socket (sends are serialized by a
lock) so liveness is visible even while a long task computes.  Every frame
either way is HMAC-authenticated and sequence-numbered by the shared
:class:`~repro.exec.wire.FrameCodec` under the secret from
``--cluster-secret`` / ``REPRO_CLUSTER_SECRET`` — a worker with the wrong
secret never gets past ``hello``.

Membership is elastic:

* **Join any time.**  A worker started mid-month registers and starts
  pulling leases immediately.
* **Leave gracefully.**  SIGTERM sets a drain flag: the in-flight task
  finishes, its result is delivered, the worker sends ``goodbye`` and
  exits 0.  The coordinator treats this as departure, not death — no
  re-dispatch, no exclusion-list entry.
* **Reconnect with bounded backoff.**  A dropped connection (coordinator
  restart, network blip) is retried on a jittered exponential schedule
  (:class:`ReconnectPolicy`) until the attempt budget runs out; an
  explicit ``shutdown`` from the coordinator ends the worker for good.

The worker is stateless between leases: the paper partitions each day's
batch randomly, so nothing a worker computed for yesterday's partition
``k`` recurs in today's.  The one task kind is ``partition_map`` — a
:class:`~repro.clustering.partition.PartitionMapTask`; execution is
``task.run()`` and nothing else — the same decision code path the inline
and process substrates use, which is what keeps cluster execution
byte-identical by construction.

A task that raises, or names any other kind, is reported back as
``failed`` (the coordinator re-dispatches it elsewhere); the worker itself
stays up.

Fault injection (test harness)
------------------------------
``--fault`` arms one deliberately broken behaviour so the fault-injection
suite can exercise the coordinator's failure handling deterministically:

* ``sigkill-mid-task`` — SIGKILL this very process the moment the first
  task arrives (a machine lost mid-map: no goodbye, no flush);
* ``drop-mid-frame`` — compute the first result, send only half of its
  frame, then sever the connection (a torn write: the coordinator must
  treat the truncated frame as a dead worker, never decode it);
* ``stall-heartbeat`` — accept the first task, then stop heartbeating and
  never answer (a wedged process: only the heartbeat/deadline sweep can
  reclaim the lease);
* ``bad-hmac`` — on the first task, send a frame whose authentication tag
  is tampered (the coordinator must reject it with ``AuthError`` before
  any payload decode and drop us);
* ``replayed-frame`` — send a valid frame, then replay the identical
  bytes (same sequence number twice: ``ReplayError`` before decode);
* ``rogue-pickle`` — send a perfectly framed, correctly authenticated
  payload whose pickle names a forbidden callable (``os.system``); the
  allow-listed decoder must reject it with ``ForbiddenPayload`` without
  ever constructing the object;
* ``drain-mid-task`` — deliver SIGTERM to ourselves the moment the first
  task arrives, proving a drain returns the in-flight result exactly
  once and departs without re-dispatch.

Fault-armed workers never reconnect (each fault is a one-shot scenario).
These flags exist for the test suite; production deployments simply never
pass ``--fault``.
"""

from __future__ import annotations

import argparse
import os
import pickle
import random
import signal
import socket
import sys
import threading
import time
from typing import Any, Optional, Tuple

from repro.exec import wire
from repro.exec.cluster import SECRET_ENV, parse_address

FAULTS = ("sigkill-mid-task", "drop-mid-frame", "stall-heartbeat",
          "bad-hmac", "replayed-frame", "rogue-pickle", "drain-mid-task")


class ReconnectPolicy:
    """Bounded exponential backoff with jitter for re-dialing a coordinator.

    ``delay(attempt)`` is pure given the policy's RNG: attempt ``n`` waits
    ``min(cap_s, base_s * 2**n)`` scaled by a uniform jitter in
    ``[0.5, 1.0)`` — bounded above by ``cap_s`` always, and never zero, so
    a fleet of workers losing the same coordinator does not reconnect in
    lockstep.  The schedule is unit-testable without sleeping: it returns
    numbers, the caller decides how to wait on them.
    """

    def __init__(self, base_s: float = 0.5, cap_s: float = 30.0,
                 max_attempts: int = 6,
                 rng: Optional[random.Random] = None) -> None:
        if base_s <= 0 or cap_s < base_s:
            raise ValueError("need 0 < base_s <= cap_s")
        if max_attempts < 0:
            raise ValueError("max_attempts must be non-negative")
        self.base_s = base_s
        self.cap_s = cap_s
        self.max_attempts = max_attempts
        self.rng = rng if rng is not None else random.Random()

    def delay(self, attempt: int) -> float:
        """Seconds to wait before reconnect attempt ``attempt`` (0-based)."""
        bounded = min(self.cap_s, self.base_s * (2.0 ** attempt))
        return bounded * (0.5 + 0.5 * self.rng.random())


def execute_task(kind: str, payload: Any) -> Any:
    """Run one leased task; shared by the worker loop and its tests."""
    if kind == "partition_map":
        return payload.run()
    raise ValueError(f"unknown task kind {kind!r}")


class Worker:
    """A worker process's state across its (possibly several) connections."""

    def __init__(self, address: Tuple[str, int], *,
                 heartbeat_interval: float = 2.0,
                 fault: Optional[str] = None,
                 secret: Optional[str] = None,
                 reconnect: Optional[ReconnectPolicy] = None) -> None:
        if fault is not None and fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}")
        self.address = address
        self.heartbeat_interval = heartbeat_interval
        self.fault = fault
        self.secret = secret
        self.reconnect = reconnect if reconnect is not None \
            else ReconnectPolicy()
        self.worker_id: Optional[str] = None
        self.tasks_done = 0
        self._sock: Optional[socket.socket] = None
        self._codec: Optional[wire.FrameCodec] = None
        self._send_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()
        self._draining = threading.Event()
        self._welcomed = False

    # -- plumbing -------------------------------------------------------
    def _send(self, payload: Any) -> None:
        with self._send_lock:
            self._codec.send(self._sock, payload)

    def _heartbeat_loop(self, stop: threading.Event, sock: socket.socket,
                        codec: wire.FrameCodec) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                with self._send_lock:
                    codec.send(sock, ("heartbeat", {}))
            except (OSError, wire.WireError):
                return

    def _on_sigterm(self, signum, frame) -> None:  # pragma: no cover - signal
        self._draining.set()

    # -- faults ---------------------------------------------------------
    def _inject_on_task(self, task_id: int) -> None:
        """Fire the armed fault now that a task is leased to us."""
        if self.fault == "sigkill-mid-task":
            os.kill(os.getpid(), signal.SIGKILL)
        if self.fault == "stall-heartbeat":
            self._stop_heartbeat.set()
            # Wedged: hold the lease, answer nothing.  The coordinator's
            # heartbeat sweep must reclaim it; the test harness reaps this
            # process afterwards.
            time.sleep(3600.0)
            sys.exit(1)
        if self.fault == "drain-mid-task":
            # A graceful departure caught mid-lease: the SIGTERM handler
            # sets the drain flag, this task still runs to completion and
            # its result is delivered, then the loop says goodbye.
            self.fault = None
            os.kill(os.getpid(), signal.SIGTERM)
            return
        if self.fault == "bad-hmac":
            with self._send_lock:
                tampered = bytearray(self._codec.encode(("heartbeat", {})))
                tampered[-1] ^= 0xFF  # flip a bit inside the HMAC tag
                self._sock.sendall(bytes(tampered))
            self._await_teardown()
        if self.fault == "replayed-frame":
            with self._send_lock:
                frame = self._codec.encode(("heartbeat", {}))
                self._sock.sendall(frame)
                self._sock.sendall(frame)  # identical bytes, same sequence
            self._await_teardown()
        if self.fault == "rogue-pickle":
            # Correctly framed, correctly authenticated, fresh sequence —
            # but the payload pickle names a callable outside the
            # allow-list.  Only the restricted decoder stands between
            # this and code execution on the coordinator.
            hostile = pickle.dumps(os.system, protocol=4)
            with self._send_lock:
                self._sock.sendall(self._codec.encode_raw(hostile))
            self._await_teardown()

    def _await_teardown(self) -> None:
        """Wait for the coordinator to drop us, then exit nonzero."""
        self._stop_heartbeat.set()
        try:
            self._sock.settimeout(30.0)
            while self._sock.recv(4096):
                pass
        except OSError:
            pass
        sys.exit(1)

    def _send_truncated_result(self, task_id: int, result: Any) -> None:
        with self._send_lock:
            frame = self._codec.encode(("result", {"task_id": task_id,
                                                   "payload": result}))
            self._sock.sendall(frame[:max(1, len(frame) // 2)])
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        sys.exit(1)

    # -- the loop -------------------------------------------------------
    def run(self) -> int:
        """Serve the coordinator until shutdown, drain, or the reconnect
        budget runs out; returns an exit code."""
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, self._on_sigterm)
        attempt = 0
        while True:
            self._welcomed = False
            try:
                outcome = self._serve_once()
                if outcome is not None:
                    return outcome
            except (OSError, wire.WireError):
                pass
            # Connection lost without a verdict: maybe reconnect.
            if self._draining.is_set():
                return 0
            if self.fault is not None:
                return 1  # fault scenarios are one-shot: never rejoin
            if self._welcomed:
                attempt = 0  # we served successfully; restart the schedule
            if attempt >= self.reconnect.max_attempts:
                return 1
            delay = self.reconnect.delay(attempt)
            attempt += 1
            if self._draining.wait(delay):
                return 0

    def _serve_once(self) -> Optional[int]:
        """One connection's conversation.  Returns an exit code when the
        worker should stop for good (shutdown, drain, protocol drift),
        ``None`` or raises ``OSError``/``WireError`` when the connection
        was lost and reconnecting is reasonable."""
        self._sock = socket.create_connection(self.address, timeout=30.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Individual reads block at most this long; the coordinator's idle
        # replies keep the stream active, so a long silence means it died.
        self._sock.settimeout(300.0)
        self._codec = wire.FrameCodec(self.secret)
        self._stop_heartbeat = threading.Event()
        stop = self._stop_heartbeat
        try:
            self._send(("hello", {"version": wire.WIRE_VERSION,
                                  "pid": os.getpid()}))
            kind, body = self._codec.recv(self._sock)
            if kind != "welcome":
                return 1
            self.worker_id = body["worker_id"]
            self._welcomed = True
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                args=(stop, self._sock, self._codec),
                name="worker-heartbeat", daemon=True)
            heartbeat.start()
            while True:
                if self._draining.is_set():
                    self._send(("goodbye", {}))
                    return 0
                self._send(("request", {}))
                kind, body = self._codec.recv(self._sock)
                if kind == "shutdown":
                    return 0
                if kind == "idle":
                    self._draining.wait(0.05)
                    continue
                if kind != "task":
                    return 1
                task_id = body["task_id"]
                self._inject_on_task(task_id)
                try:
                    result = execute_task(body["kind"], body["payload"])
                except Exception as exc:
                    self._send(("failed", {"task_id": task_id,
                                           "error": f"{type(exc).__name__}: "
                                                    f"{exc}"}))
                    continue
                if self.fault == "drop-mid-frame":
                    self._send_truncated_result(task_id, result)
                try:
                    self._send(("result", {"task_id": task_id,
                                           "payload": result}))
                except wire.FrameTooLarge as exc:
                    # Local encode failure: the socket is untouched and
                    # this worker is healthy — report the task failed
                    # instead of dying over a payload no worker could
                    # frame either.
                    self._send(("failed", {
                        "task_id": task_id,
                        "error": f"result cannot be framed: {exc}"}))
                    continue
                self.tasks_done += 1
        finally:
            stop.set()
            try:
                self._sock.close()
            except OSError:
                pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.worker",
        description="Kizzle cluster worker: connect to a coordinator and "
                    "execute leased map tasks")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        type=parse_address,
                        help="coordinator address to register with")
    parser.add_argument("--heartbeat-interval", type=float, default=2.0,
                        help="seconds between heartbeat frames (keep well "
                             "under the coordinator's heartbeat timeout)")
    parser.add_argument("--cluster-secret", default=None,
                        help="shared wire secret (defaults to the "
                             f"{SECRET_ENV} environment variable; must "
                             "match the coordinator's)")
    parser.add_argument("--reconnect-attempts", type=int, default=6,
                        help="reconnect budget after a lost connection "
                             "(0 disables reconnecting)")
    parser.add_argument("--fault", choices=FAULTS, default=None,
                        help="arm one fault-injection behaviour "
                             "(test harness only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    secret = args.cluster_secret if args.cluster_secret is not None \
        else os.environ.get(SECRET_ENV)
    worker = Worker(args.connect,
                    heartbeat_interval=args.heartbeat_interval,
                    fault=args.fault,
                    secret=secret,
                    reconnect=ReconnectPolicy(
                        max_attempts=args.reconnect_attempts))
    return worker.run()


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())

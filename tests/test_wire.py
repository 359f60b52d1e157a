"""Property and unit tests for the cluster wire codec (repro.exec.wire).

The contract under test: framed round-trips are lossless for the real task
payloads (``PartitionMapTask``/``PartitionMapResult``), and every malformed
input — truncated, oversized, version-mismatched, wrong-magic, or garbage
payload — raises a *typed* :class:`WireError`.  A reader must never hang on
a bad length and never unpickle bytes that failed header validation.
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
from collections import Counter, OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.partition import ClusteredSample, PartitionMapResult, \
    PartitionMapTask
from repro.distance.engine import DistanceEngineConfig
from repro.exec import wire

DEFAULT_SETTINGS = settings(max_examples=60, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])

token_alphabet = st.sampled_from(
    ["var", "Identifier", "String", "(", ")", "=", ";", "+"])
token_strings = st.lists(token_alphabet, min_size=0, max_size=12).map(tuple)

samples = st.builds(
    ClusteredSample,
    sample_id=st.text(min_size=1, max_size=12),
    content=st.text(max_size=80),
    tokens=token_strings,
    weight=st.integers(min_value=1, max_value=9))

map_tasks = st.builds(
    PartitionMapTask,
    index=st.integers(min_value=0, max_value=63),
    samples=st.lists(samples, max_size=5),
    epsilon=st.floats(min_value=0.01, max_value=0.5,
                      allow_nan=False, allow_infinity=False),
    min_points=st.integers(min_value=1, max_value=5),
    engine_config=st.builds(
        DistanceEngineConfig,
        workers=st.integers(min_value=0, max_value=4)))

map_results = st.builds(
    PartitionMapResult,
    index=st.integers(min_value=0, max_value=63),
    clusters=st.just([]),
    comparisons=st.integers(min_value=0, max_value=10_000),
    cost=st.floats(min_value=0.0, max_value=1e9,
                   allow_nan=False, allow_infinity=False),
    output_bytes=st.floats(min_value=0.0, max_value=1e9,
                           allow_nan=False, allow_infinity=False),
    stats=st.dictionaries(st.sampled_from(["pairs", "kernel_calls",
                                           "bag_pruned"]),
                          st.integers(min_value=0, max_value=1_000_000),
                          max_size=3),
    worker_id=st.one_of(st.none(), st.text(min_size=1, max_size=8)))


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @DEFAULT_SETTINGS
    @given(map_tasks)
    def test_partition_map_task_round_trips(self, task):
        assert wire.decode_frame(wire.encode_frame(task)) == task

    @DEFAULT_SETTINGS
    @given(map_results)
    def test_partition_map_result_round_trips(self, result):
        assert wire.decode_frame(wire.encode_frame(result)) == result

    @DEFAULT_SETTINGS
    @given(st.tuples(st.sampled_from(["hello", "task", "result",
                                      "heartbeat"]),
                     st.dictionaries(st.text(max_size=8),
                                     st.integers(), max_size=4)))
    def test_protocol_messages_round_trip(self, message):
        assert wire.decode_frame(wire.encode_frame(message)) == message

    def test_empty_payload_round_trips(self):
        assert wire.decode_frame(wire.encode_frame(None)) is None


# ----------------------------------------------------------------------
# malformed frames: typed errors, never garbage
# ----------------------------------------------------------------------
class TestMalformedFrames:
    @DEFAULT_SETTINGS
    @given(map_tasks, st.data())
    def test_any_truncation_raises_typed_error(self, task, data):
        """Cutting a valid frame anywhere short of its full length must
        raise a WireError (truncated — or, for a sub-magic prefix, the
        codec may report nothing more specific than truncation)."""
        frame = wire.encode_frame(task)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(wire.WireError) as excinfo:
            wire.decode_frame(frame[:cut])
        assert isinstance(excinfo.value, wire.FrameTruncated)

    def test_bad_magic_raises_before_unpickling(self):
        frame = bytearray(wire.encode_frame({"x": 1}))
        frame[:4] = b"HTTP"
        with pytest.raises(wire.BadMagic):
            wire.decode_frame(bytes(frame))

    def test_bad_magic_detected_even_in_short_buffer(self):
        with pytest.raises(wire.BadMagic):
            wire.decode_frame(b"GET / HT")

    def test_version_mismatch_raises(self):
        frame = bytearray(wire.encode_frame({"x": 1}))
        struct.pack_into(">H", frame, 4, wire.WIRE_VERSION + 1)
        with pytest.raises(wire.VersionMismatch):
            wire.decode_frame(bytes(frame))

    def test_oversized_declaration_raises_frame_too_large(self):
        frame = wire.encode_frame(list(range(1000)))
        payload_size = len(frame) - wire.HEADER.size - wire.TAG_SIZE
        with pytest.raises(wire.FrameTooLarge):
            wire.decode_frame(frame, max_bytes=payload_size - 1)

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(wire.FrameTooLarge):
            wire.encode_frame(b"x" * 1024, max_bytes=16)

    def test_garbage_payload_raises_payload_error(self):
        body = b"\x93 definitely not a pickle \x00"
        header = wire.HEADER.pack(wire.MAGIC, wire.WIRE_VERSION, 1,
                                  len(body))
        frame = header + body + wire._tag(wire.UNAUTHENTICATED_KEY,
                                          header, body)
        with pytest.raises(wire.PayloadError):
            wire.decode_frame(frame)

    @DEFAULT_SETTINGS
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_never_unpickle_silently(self, blob):
        """Random bytes either fail with a typed WireError or — in the
        astronomically unlikely case they form a whole valid frame — decode
        to *something*; they never raise an untyped exception."""
        try:
            wire.decode_frame(blob)
        except wire.WireError:
            pass

    def test_header_is_validated_before_payload_is_unpickled(self):
        """A frame whose header fails must not have its payload unpickled
        (the payload here is a pickle that would explode on load)."""
        class Bomb:
            def __reduce__(self):
                return (pytest.fail,
                        ("payload was unpickled despite a bad header",))

        body = pickle.dumps(Bomb())
        frame = bytearray(wire.HEADER.pack(wire.MAGIC, wire.WIRE_VERSION, 1,
                                           len(body)) + body)
        struct.pack_into(">H", frame, 4, wire.WIRE_VERSION + 7)
        with pytest.raises(wire.VersionMismatch):
            wire.decode_frame(bytes(frame))


# ----------------------------------------------------------------------
# stream/socket transport
# ----------------------------------------------------------------------
class TestStreamTransport:
    def test_socket_round_trip(self):
        left, right = socket.socketpair()
        try:
            wire.send_frame(left, ("task", {"task_id": 3}))
            assert wire.recv_frame(right) == ("task", {"task_id": 3})
        finally:
            left.close()
            right.close()

    def test_clean_close_on_boundary_is_wire_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(wire.WireClosed):
                wire.recv_frame(right)
        finally:
            right.close()

    def test_mid_frame_close_is_frame_truncated(self):
        """The drop-mid-frame fault: half a frame then EOF."""
        left, right = socket.socketpair()
        try:
            frame = wire.encode_frame(("result", {"task_id": 9,
                                                  "payload": "x" * 200}))
            left.sendall(frame[:len(frame) // 2])
            left.close()
            with pytest.raises(wire.FrameTruncated):
                wire.recv_frame(right)
        finally:
            right.close()

    def test_oversized_frame_rejected_before_payload_read(self):
        """recv_frame must raise on the header alone — without waiting for
        payload bytes that may never arrive."""
        left, right = socket.socketpair()
        try:
            left.sendall(wire.HEADER.pack(wire.MAGIC, wire.WIRE_VERSION, 1,
                                          2**31))
            # Deliberately send no payload: a reader that tried to consume
            # the declared bytes would block until the timeout below.
            right.settimeout(5.0)
            with pytest.raises(wire.FrameTooLarge):
                wire.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_read_frame_from_buffered_stream(self):
        buffer = io.BytesIO(wire.encode_frame({"a": 1})
                            + wire.encode_frame({"b": 2}))
        assert wire.read_frame(buffer) == {"a": 1}
        assert wire.read_frame(buffer) == {"b": 2}
        with pytest.raises(wire.WireClosed):
            wire.read_frame(buffer)

    def test_read_frame_truncated_stream(self):
        frame = wire.encode_frame({"a": 1})
        with pytest.raises(wire.FrameTruncated):
            wire.read_frame(io.BytesIO(frame[:-3]))


# ----------------------------------------------------------------------
# authentication: tampered or wrong-secret frames never reach decode
# ----------------------------------------------------------------------
class _DecodeBomb:
    """Pickles fine; explodes the test if the payload is ever decoded."""

    def __reduce__(self):
        return (pytest.fail,
                ("payload was decoded despite failing a pre-decode check",))


class TestAuthentication:
    def test_round_trip_under_a_secret(self):
        key = wire.derive_key("hunter2")
        frame = wire.encode_frame({"x": 1}, key=key)
        assert wire.decode_frame(frame, key=key) == {"x": 1}

    def test_wrong_secret_raises_auth_error(self):
        frame = wire.encode_frame({"x": 1}, key=wire.derive_key("right"))
        with pytest.raises(wire.AuthError):
            wire.decode_frame(frame, key=wire.derive_key("wrong"))

    def test_missing_secret_raises_auth_error(self):
        """An unauthenticated peer talking to a secret-bearing reader."""
        frame = wire.encode_frame({"x": 1})  # public default key
        with pytest.raises(wire.AuthError):
            wire.decode_frame(frame, key=wire.derive_key("s3cret"))

    @DEFAULT_SETTINGS
    @given(st.data())
    def test_any_flipped_bit_raises_auth_error(self, data):
        """Flipping any single bit of body or tag must fail the tag check
        (header flips may fail header validation first, also typed)."""
        key = wire.derive_key("bits")
        frame = bytearray(wire.encode_frame(("task", {"task_id": 1}),
                                            key=key))
        position = data.draw(st.integers(min_value=wire.HEADER.size,
                                         max_value=len(frame) - 1))
        frame[position] ^= 1 << data.draw(st.integers(min_value=0,
                                                      max_value=7))
        with pytest.raises(wire.AuthError):
            wire.decode_frame(bytes(frame), key=key)

    def test_tampered_frame_never_reaches_decode(self):
        key = wire.derive_key("s")
        frame = bytearray(wire.encode_frame_raw(pickle.dumps(_DecodeBomb()),
                                                key=key))
        frame[-1] ^= 0xFF
        with pytest.raises(wire.AuthError):
            wire.decode_frame(bytes(frame), key=key)

    def test_unauthenticated_frame_never_reaches_decode(self):
        """Even a *valid* pickle from a peer without the secret is never
        deserialized — auth runs strictly before decode."""
        frame = wire.encode_frame_raw(pickle.dumps(_DecodeBomb()))
        with pytest.raises(wire.AuthError):
            wire.decode_frame(frame, key=wire.derive_key("fleet-secret"))


# ----------------------------------------------------------------------
# freshness: replayed frames die after auth, before decode
# ----------------------------------------------------------------------
class TestReplayProtection:
    def test_replayed_sequence_raises(self):
        key = wire.derive_key("r")
        frame = wire.encode_frame({"x": 1}, key=key, seq=5)
        assert wire.decode_frame(frame, key=key, last_seq=4) == {"x": 1}
        with pytest.raises(wire.ReplayError):
            wire.decode_frame(frame, key=key, last_seq=5)

    def test_stale_sequence_raises(self):
        key = wire.derive_key("r")
        frame = wire.encode_frame({"x": 1}, key=key, seq=3)
        with pytest.raises(wire.ReplayError):
            wire.decode_frame(frame, key=key, last_seq=7)

    def test_replayed_frame_never_reaches_decode(self):
        frame = wire.encode_frame_raw(pickle.dumps(_DecodeBomb()), seq=2)
        with pytest.raises(wire.ReplayError):
            wire.decode_frame(frame, last_seq=2)


# ----------------------------------------------------------------------
# allow-listed decode: a hostile pickle is structurally inert
# ----------------------------------------------------------------------
class TestForbiddenPayload:
    def test_os_system_pickle_is_forbidden(self):
        import os

        frame = wire.encode_frame_raw(pickle.dumps(os.system, protocol=4))
        with pytest.raises(wire.ForbiddenPayload):
            wire.decode_frame(frame)

    @pytest.mark.parametrize("payload", [Counter(a=1), OrderedDict(a=1)],
                             ids=["Counter", "OrderedDict"])
    def test_unused_stdlib_containers_are_forbidden(self, payload):
        """No frame type holds a ``Counter`` or an ``OrderedDict``, so
        neither is on the allow-list."""
        with pytest.raises(wire.ForbiddenPayload):
            wire.decode_frame(wire.encode_frame(payload))

    def test_reduce_to_forbidden_callable_is_rejected_before_call(self):
        """A __reduce__ payload targeting subprocess never gets its callable
        resolved, let alone invoked."""
        class Evil:
            def __reduce__(self):
                import subprocess
                return (subprocess.check_output, (["true"],))

        frame = wire.encode_frame_raw(pickle.dumps(Evil(), protocol=4))
        with pytest.raises(wire.ForbiddenPayload):
            wire.decode_frame(frame)

    def test_loads_payload_allows_task_types(self):
        task = PartitionMapTask(index=0, samples=[], epsilon=0.1,
                                min_points=3,
                                engine_config=DistanceEngineConfig())
        assert wire.loads_payload(wire.dumps_payload(task)) == task

    def test_persistent_id_is_forbidden(self):
        class Pickler(pickle.Pickler):
            def persistent_id(self, obj):
                if obj == "external":
                    return "pid-0"
                return None

        buffer = io.BytesIO()
        Pickler(buffer, protocol=4).dump(["external"])
        with pytest.raises(wire.ForbiddenPayload):
            wire.loads_payload(buffer.getvalue())

    def test_removed_pair_chunk_lease_is_rejected_end_to_end(self):
        """The distance-pair lease is gone from the protocol: a frame
        naming its payload class is forbidden before any lookup, and a
        worker leased the old task kind answers ``failed`` without
        executing anything."""
        import threading

        from repro.exec.cluster import ClusterCoordinator, ClusterError
        from repro.exec.worker import Worker

        frame = wire.encode_frame_raw(
            b"crepro.exec.cluster\nPairChunkLease\n.")
        with pytest.raises(wire.ForbiddenPayload):
            wire.decode_frame(frame)

        coordinator = ClusterCoordinator(max_task_retries=0,
                                         worker_wait_s=10.0)
        worker = Worker(coordinator.start())
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            with pytest.raises(ClusterError, match="unknown task kind"):
                coordinator.submit("pair_chunks", [{"chunks": []}])
            assert worker.tasks_done == 0
        finally:
            coordinator.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# the per-connection codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_socket_conversation_round_trips(self):
        left, right = socket.socketpair()
        sender = wire.FrameCodec("pair-secret")
        receiver = wire.FrameCodec("pair-secret")
        try:
            for expected in (("hello", {"pid": 1}), ("request", {}),
                             ("result", {"task_id": 0, "payload": None})):
                sender.send(left, expected)
                assert receiver.recv(right) == expected
        finally:
            left.close()
            right.close()

    def test_sequences_increase_per_send(self):
        codec = wire.FrameCodec()
        first = codec.encode({"n": 1})
        second = codec.encode({"n": 2})
        receiver = wire.FrameCodec()
        assert receiver.decode(first) == {"n": 1}
        assert receiver.decode(second) == {"n": 2}

    def test_replayed_bytes_rejected_by_receiving_codec(self):
        codec = wire.FrameCodec()
        frame = codec.encode(("heartbeat", {}))
        receiver = wire.FrameCodec()
        assert receiver.decode(frame) == ("heartbeat", {})
        with pytest.raises(wire.ReplayError):
            receiver.decode(frame)

    def test_send_returns_frame_byte_count(self):
        left, right = socket.socketpair()
        codec = wire.FrameCodec()
        try:
            sent = codec.send(left, ("idle", {}))
            assert sent == len(wire.encode_frame(("idle", {}), seq=1))
            assert wire.FrameCodec().recv(right) == ("idle", {})
        finally:
            left.close()
            right.close()

    def test_coordinator_frames_carry_no_worker_cache_state(self):
        """Workers are stateless, so the protocol names nothing for them
        to key a cache by: ``welcome`` and ``task`` bodies hold exactly
        the registration and lease fields — in particular no ``epoch``."""
        import os
        import threading

        from repro.exec.cluster import ClusterCoordinator, SECRET_ENV

        secret = os.environ.get(SECRET_ENV)
        task = PartitionMapTask(
            index=0, samples=[ClusteredSample("s0", "var a = 1;",
                                              tokens=("var", "Identifier"))],
            epsilon=0.1, min_points=3, engine_config=DistanceEngineConfig())
        coordinator = ClusterCoordinator(worker_wait_s=10.0, secret=secret)
        submission = threading.Thread(
            target=coordinator.submit, args=("partition_map", [task]),
            daemon=True)
        sock = socket.create_connection(coordinator.start(), timeout=5.0)
        sock.settimeout(15.0)
        codec = wire.FrameCodec(secret)
        try:
            codec.send(sock, ("hello", {"version": wire.WIRE_VERSION,
                                        "pid": 0}))
            kind, welcome = codec.recv(sock)
            assert kind == "welcome"
            assert set(welcome) == {"worker_id", "heartbeat_timeout_s"}
            submission.start()
            kind = "idle"
            while kind == "idle":
                codec.send(sock, ("request", {}))
                kind, body = codec.recv(sock)
            assert kind == "task"
            assert set(body) == {"task_id", "kind", "payload", "deadline_s"}
            assert body["payload"] == task
            codec.send(sock, ("result", {"task_id": body["task_id"],
                                         "payload": task.run()}))
            submission.join(timeout=10.0)
            assert not submission.is_alive()
        finally:
            sock.close()
            coordinator.close()

    def test_mismatched_secrets_cannot_talk(self):
        codec = wire.FrameCodec("alpha")
        eavesdropper = wire.FrameCodec("beta")
        frame = codec.encode({"x": 1})
        with pytest.raises(wire.AuthError):
            eavesdropper.decode(frame)

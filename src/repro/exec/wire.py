"""Authenticated, pickle-free, length-prefixed wire codec (version 2).

Everything the cluster backend sends over a socket — worker registration,
task leases, heartbeats, :class:`~repro.clustering.partition.PartitionMapTask`
payloads and their results — travels as one *frame*::

    +-------+---------+----------+----------------+---------+----------+
    | magic | version | sequence | payload length | payload | HMAC tag |
    | 4 B   | 2 B     | 8 B      | 4 B big-endian | n bytes | 32 B     |
    +-------+---------+----------+----------------+---------+----------+

Validation runs at **one boundary**, in a strict order, and every failure
raises a typed :class:`WireError` subclass *before* any payload byte is
interpreted:

1. **header** — magic, version, declared length bound (:class:`BadMagic`,
   :class:`VersionMismatch`, :class:`FrameTooLarge`), checked before the
   payload is even read off the socket;
2. **authenticity** — the trailing tag is HMAC-SHA256 over the header and
   payload bytes, verified with a constant-time compare
   (:class:`AuthError`); a peer without the shared secret cannot produce a
   frame that passes, so nothing it sends is ever decoded;
3. **freshness** — the header's sequence number must be strictly greater
   than the last one accepted on this connection (:class:`ReplayError`);
   recording and replaying an old authenticated frame buys an attacker
   nothing;
4. **decode** — only now are the payload bytes deserialized, and only
   through an *allow-listed* unpickler (:class:`ForbiddenPayload`): the
   payload may reference nothing but the task dataclasses of
   ``repro.exec``/``repro.clustering``/``repro.distance`` and stdlib
   container scalars.  A malicious or compromised worker can therefore
   never execute code on the coordinator — ``pickle.loads`` of an
   attacker-chosen global is structurally impossible, not merely
   unlikely.  Bytes that pass the allow-list but still fail to decode
   raise :class:`PayloadError`.

Connection state (the send counter and the last accepted receive counter)
lives in :class:`FrameCodec`, one per socket per direction pair.  The
module-level :func:`encode_frame`/:func:`decode_frame`/:func:`send_frame`/
:func:`recv_frame` helpers are the stateless core the codec is built on
(and what the property tests drive); protocol peers always speak through a
codec.

The shared secret comes from ``--cluster-secret`` or the
``REPRO_CLUSTER_SECRET`` environment variable.  Without one, frames are
MAC'd under a fixed, publicly known key: the tag then still catches
corruption and accidents (port scanners, stale peers, torn writes) but
authenticates nothing — single-host development convenience, not a
deployment mode for untrusted networks.

Trust model in one line: the secret authenticates *who* may speak; the
allow-listed decoder bounds *what* they may say; neither protects payload
confidentiality (use a private network or a tunnel for that).

The pickle protocol is pinned to 4 (supported since Python 3.4) so a
coordinator and workers on different interpreter minor versions
interoperate.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import io
import pickle
import socket
import struct
from typing import Any, Optional, Tuple

#: Frame magic: "Kizzle Wire Frame".
MAGIC = b"KZWF"

#: Protocol generation; bump on any incompatible message-shape change.
#: Version 2: added the sequence-number field, the trailing HMAC-SHA256
#: tag, and the allow-listed (pickle-free) payload decoder.
WIRE_VERSION = 2

#: Default upper bound on one frame's payload (64 MiB — a whole paper-scale
#: partition of raw HTML fits with a wide margin).
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: ``magic(4s) version(H) sequence(Q) payload_length(I)``, big-endian.
HEADER = struct.Struct(">4sHQI")

#: HMAC-SHA256 digest size appended to every frame.
TAG_SIZE = 32

#: The key used when no shared secret is configured: a fixed, public
#: string.  The tag then detects corruption (like a checksum) but
#: authenticates nothing — configure a real secret for untrusted networks.
UNAUTHENTICATED_KEY = b"kizzle-wire-v2-unauthenticated"


class WireError(Exception):
    """Base of every framing/codec failure."""


class WireClosed(WireError):
    """The peer closed the stream cleanly on a frame boundary."""


class FrameTruncated(WireError):
    """The stream/buffer ended in the middle of a frame."""


class FrameTooLarge(WireError):
    """A frame's declared payload exceeds the reader's bound."""


class VersionMismatch(WireError):
    """The frame was written by a different protocol generation."""


class BadMagic(WireError):
    """The bytes are not a frame of this protocol at all."""


class AuthError(WireError):
    """The frame's HMAC tag does not verify under the shared secret.

    Raised *before* the payload is decoded: an unauthenticated peer's
    bytes are never interpreted."""


class ReplayError(WireError):
    """The frame's sequence number is not strictly greater than the last
    accepted one on this connection — a replayed (or reordered) frame.

    Raised after authentication but *before* the payload is decoded."""


class ForbiddenPayload(WireError):
    """The payload references a global outside the allow-list (a pickle
    that could execute code or build objects this protocol never ships)."""


class PayloadError(WireError):
    """The framed payload passed the allow-list but does not decode."""


# ----------------------------------------------------------------------
# allow-listed payload decoding
# ----------------------------------------------------------------------
#: The only globals a frame payload may reference: the task dataclasses
#: the protocol actually ships, plus the stdlib containers they embed.
#: Everything else — notably anything callable with side effects — raises
#: :class:`ForbiddenPayload` at the first reference, before construction.
ALLOWED_GLOBALS = frozenset({
    ("collections", "Counter"),
    ("collections", "OrderedDict"),
    ("repro.clustering.partition", "ClusteredSample"),
    ("repro.clustering.partition", "Cluster"),
    ("repro.clustering.partition", "PartitionMapTask"),
    ("repro.clustering.partition", "PartitionMapResult"),
    ("repro.distance.engine", "DistanceEngineConfig"),
    ("repro.distance.engine", "EngineStats"),
})


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that admits only :data:`ALLOWED_GLOBALS`.

    ``find_class`` is the single gate every ``GLOBAL``/``STACK_GLOBAL``
    opcode passes through; rejecting there means a forbidden class is
    never looked up, let alone instantiated or called.  Persistent ids
    and extension codes are refused outright — the protocol uses neither.
    """

    def find_class(self, module: str, name: str):
        if (module, name) in ALLOWED_GLOBALS:
            return super().find_class(module, name)
        raise ForbiddenPayload(
            f"payload references forbidden global {module}.{name}; "
            f"only the cluster task types may travel in frames")

    def persistent_load(self, pid: Any):
        raise ForbiddenPayload("persistent ids are not part of this protocol")


def dumps_payload(payload: Any) -> bytes:
    """Serialize one payload object (pinned pickle protocol 4)."""
    return pickle.dumps(payload, protocol=4)


def loads_payload(data: bytes) -> Any:
    """Decode payload bytes through the allow-listed unpickler.

    :class:`ForbiddenPayload` for disallowed references; every other
    decode failure is a :class:`PayloadError`.
    """
    try:
        return _RestrictedUnpickler(io.BytesIO(data)).load()
    except ForbiddenPayload:
        raise
    except Exception as exc:
        raise PayloadError(f"frame payload does not decode: {exc}") from exc


# ----------------------------------------------------------------------
# keys and tags
# ----------------------------------------------------------------------
def derive_key(secret: Optional[str]) -> bytes:
    """The MAC key for a shared secret (``None`` -> the public default)."""
    if secret is None or secret == "":
        return UNAUTHENTICATED_KEY
    return hashlib.sha256(secret.encode("utf-8")).digest()


def _tag(key: bytes, header: bytes, body: bytes) -> bytes:
    return hmac_module.new(key, header + body, hashlib.sha256).digest()


# ----------------------------------------------------------------------
# pure codec (unit- and property-tested without sockets)
# ----------------------------------------------------------------------
def encode_frame(payload: Any, *, max_bytes: int = DEFAULT_MAX_FRAME,
                 key: bytes = UNAUTHENTICATED_KEY, seq: int = 0) -> bytes:
    """Serialize one object into a framed, authenticated byte string."""
    return encode_frame_raw(dumps_payload(payload), max_bytes=max_bytes,
                            key=key, seq=seq)


def encode_frame_raw(data: bytes, *, max_bytes: int = DEFAULT_MAX_FRAME,
                     key: bytes = UNAUTHENTICATED_KEY, seq: int = 0) -> bytes:
    """Frame pre-serialized payload bytes (the fault harness uses this to
    ship deliberately hostile payloads through a valid envelope)."""
    if len(data) > max_bytes:
        raise FrameTooLarge(
            f"payload of {len(data)} bytes exceeds the {max_bytes}-byte "
            f"frame bound")
    header = HEADER.pack(MAGIC, WIRE_VERSION, seq, len(data))
    return header + data + _tag(key, header, data)


def _check_header(header: bytes, *, max_bytes: int) -> Tuple[int, int]:
    """Validate a complete header; returns ``(seq, payload_length)``."""
    magic, version, seq, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, got {magic!r}")
    if version != WIRE_VERSION:
        raise VersionMismatch(
            f"frame version {version} != supported version {WIRE_VERSION}")
    if length > max_bytes:
        raise FrameTooLarge(
            f"declared payload of {length} bytes exceeds the "
            f"{max_bytes}-byte frame bound")
    return seq, length


def _authenticate(key: bytes, header: bytes, body: bytes,
                  tag: bytes) -> None:
    """Constant-time tag verification; :class:`AuthError` on mismatch."""
    if not hmac_module.compare_digest(tag, _tag(key, header, body)):
        raise AuthError(
            "frame HMAC tag does not verify (wrong or missing shared "
            "secret, or a tampered frame)")


def _check_fresh(seq: int, last_seq: Optional[int]) -> None:
    if last_seq is not None and seq <= last_seq:
        raise ReplayError(
            f"frame sequence {seq} is not beyond the last accepted "
            f"sequence {last_seq} on this connection (replayed or "
            f"reordered frame)")


def decode_frame(data: bytes, *, max_bytes: int = DEFAULT_MAX_FRAME,
                 key: bytes = UNAUTHENTICATED_KEY,
                 last_seq: Optional[int] = None) -> Any:
    """Decode one complete frame from a byte string.

    The buffer must hold exactly one whole frame; anything shorter raises
    :class:`FrameTruncated` (validation still runs on whatever prefix is
    present, so a bad magic or alien version in a short buffer reports the
    more specific error).  With ``last_seq``, the frame's sequence number
    must land strictly beyond it.  Authentication and freshness are
    checked before the payload is decoded.
    """
    payload, _seq = decode_frame_ex(data, max_bytes=max_bytes, key=key,
                                    last_seq=last_seq)
    return payload


def decode_frame_ex(data: bytes, *, max_bytes: int = DEFAULT_MAX_FRAME,
                    key: bytes = UNAUTHENTICATED_KEY,
                    last_seq: Optional[int] = None) -> Tuple[Any, int]:
    """:func:`decode_frame`, also returning the frame's sequence number."""
    if len(data) < HEADER.size:
        # Validate what we can see: a wrong magic/version is a more useful
        # diagnosis than "truncated" when the prefix is already alien.
        if len(data) >= 4 and data[:4] != MAGIC:
            raise BadMagic(f"expected magic {MAGIC!r}, got {data[:4]!r}")
        raise FrameTruncated(
            f"{len(data)} bytes is shorter than the {HEADER.size}-byte "
            f"header")
    header = data[:HEADER.size]
    seq, length = _check_header(header, max_bytes=max_bytes)
    rest = data[HEADER.size:]
    if len(rest) < length + TAG_SIZE:
        raise FrameTruncated(
            f"frame declares {length} payload bytes plus a {TAG_SIZE}-byte "
            f"tag but only {len(rest)} bytes are present")
    body = rest[:length]
    tag = rest[length:length + TAG_SIZE]
    _authenticate(key, header, body, tag)
    _check_fresh(seq, last_seq)
    return loads_payload(body), seq


# ----------------------------------------------------------------------
# stream transport
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, count: int, *,
                at_boundary: bool) -> bytes:
    """Read exactly ``count`` bytes from a socket.

    ``at_boundary`` marks a read that starts a new frame: a clean EOF there
    is :class:`WireClosed` (the peer hung up between frames), while EOF
    anywhere else is :class:`FrameTruncated` (the peer died mid-send).
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and remaining == count:
                raise WireClosed("peer closed the connection")
            raise FrameTruncated(
                f"stream ended {remaining} bytes short of a "
                f"{count}-byte read")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Any, *,
               max_bytes: int = DEFAULT_MAX_FRAME,
               key: bytes = UNAUTHENTICATED_KEY, seq: int = 0) -> int:
    """Frame and send one object over a socket; returns bytes sent."""
    frame = encode_frame(payload, max_bytes=max_bytes, key=key, seq=seq)
    sock.sendall(frame)
    return len(frame)


def recv_frame(sock: socket.socket, *,
               max_bytes: int = DEFAULT_MAX_FRAME,
               key: bytes = UNAUTHENTICATED_KEY,
               last_seq: Optional[int] = None) -> Any:
    """Receive one frame from a socket.

    The header is read and validated first; an oversized declaration raises
    before a single payload byte is read, so a corrupt length can never make
    the reader buffer garbage or block on bytes that will never come (the
    socket's own timeout still governs how long each ``recv`` may wait).
    The tag is verified and the sequence checked before decode.
    """
    payload, _seq = recv_frame_ex(sock, max_bytes=max_bytes, key=key,
                                  last_seq=last_seq)
    return payload


def recv_frame_ex(sock: socket.socket, *,
                  max_bytes: int = DEFAULT_MAX_FRAME,
                  key: bytes = UNAUTHENTICATED_KEY,
                  last_seq: Optional[int] = None) -> Tuple[Any, int]:
    """:func:`recv_frame`, also returning the frame's sequence number."""
    header = _recv_exact(sock, HEADER.size, at_boundary=True)
    seq, length = _check_header(header, max_bytes=max_bytes)
    body_and_tag = _recv_exact(sock, length + TAG_SIZE, at_boundary=False)
    body = body_and_tag[:length]
    _authenticate(key, header, body, body_and_tag[length:])
    _check_fresh(seq, last_seq)
    return loads_payload(body), seq


def read_frame(stream: io.BufferedIOBase, *,
               max_bytes: int = DEFAULT_MAX_FRAME,
               key: bytes = UNAUTHENTICATED_KEY,
               last_seq: Optional[int] = None) -> Any:
    """:func:`recv_frame` for file-like streams (testing convenience)."""
    header = stream.read(HEADER.size)
    if not header:
        raise WireClosed("stream ended on a frame boundary")
    if len(header) < HEADER.size:
        raise FrameTruncated(
            f"stream ended {HEADER.size - len(header)} bytes into the "
            f"header")
    seq, length = _check_header(header, max_bytes=max_bytes)
    body_and_tag = stream.read(length + TAG_SIZE)
    if len(body_and_tag) < length + TAG_SIZE:
        raise FrameTruncated(
            f"stream ended {length + TAG_SIZE - len(body_and_tag)} bytes "
            f"short of the declared payload and tag")
    body = body_and_tag[:length]
    _authenticate(key, header, body, body_and_tag[length:])
    _check_fresh(seq, last_seq)
    return loads_payload(body)


# ----------------------------------------------------------------------
# per-connection state
# ----------------------------------------------------------------------
class FrameCodec:
    """One connection's framing state: the key, a send counter, and the
    last accepted receive counter.

    Sequence numbers start at 1 and increase by one per frame sent; the
    receive side accepts any strictly increasing sequence (gaps cannot
    occur on an in-order stream, but tolerating them keeps the check a
    pure anti-replay property rather than a loss detector).  The two
    directions are independent: each peer numbers its own sends.

    Thread-safety: callers serialize sends themselves (the coordinator
    and worker already hold a send lock around every send), so the codec
    does not lock.
    """

    def __init__(self, secret: Optional[str] = None, *,
                 max_bytes: int = DEFAULT_MAX_FRAME) -> None:
        self.key = derive_key(secret)
        self.max_bytes = max_bytes
        self.send_seq = 0
        self.last_recv_seq = 0

    # -- sending --------------------------------------------------------
    def encode(self, payload: Any, *, seq: Optional[int] = None) -> bytes:
        """Frame one payload, advancing the send counter (unless a
        sequence is pinned explicitly — the replay fault harness does)."""
        if seq is None:
            self.send_seq += 1
            seq = self.send_seq
        return encode_frame(payload, max_bytes=self.max_bytes,
                            key=self.key, seq=seq)

    def encode_raw(self, data: bytes, *, seq: Optional[int] = None) -> bytes:
        """Frame pre-serialized payload bytes (fault harness)."""
        if seq is None:
            self.send_seq += 1
            seq = self.send_seq
        return encode_frame_raw(data, max_bytes=self.max_bytes,
                                key=self.key, seq=seq)

    def send(self, sock: socket.socket, payload: Any) -> int:
        """Frame and send one payload; returns bytes written."""
        frame = self.encode(payload)
        sock.sendall(frame)
        return len(frame)

    # -- receiving ------------------------------------------------------
    def recv(self, sock: socket.socket) -> Any:
        """Receive one authenticated, fresh frame; updates the counter."""
        payload, seq = recv_frame_ex(sock, max_bytes=self.max_bytes,
                                     key=self.key,
                                     last_seq=self.last_recv_seq)
        self.last_recv_seq = seq
        return payload

    def decode(self, data: bytes) -> Any:
        """Decode one authenticated, fresh frame from a byte string."""
        payload, seq = decode_frame_ex(data, max_bytes=self.max_bytes,
                                       key=self.key,
                                       last_seq=self.last_recv_seq)
        self.last_recv_seq = seq
        return payload

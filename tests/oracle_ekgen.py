"""The generator's per-character payload encoders, kept as the test oracle.

These were Angler's ``hex_encode`` and Nuclear's ``encrypt_payload`` in
``repro.ekgen``, and the ``str(ord(c))`` join of ``RigKit.pack``, until each
loop moved into C-level encoders (``bytes.hex``, a digit table, ``map``).
The functions are unchanged below (RIG's inline expression as a function of
the core and the delimiter) and are what ``tests/test_ekgen_differential.py``
holds the new ones equal to.  The decoders the unpackers call kept their
per-character loops, so they have no oracle here.  Nothing under ``src/``
imports it.
"""

from __future__ import annotations


def key_shift(key: str) -> int:
    """The character shift derived from a Nuclear encryption key."""
    return sum(ord(char) for char in key) % 200 + 1


def hex_encode(text: str) -> str:
    """Hex-encode text the way the Angler packer embeds its payload."""
    return "".join(f"{ord(char) % 256:02x}" for char in text)


def encrypt_payload(core: str, key: str) -> str:
    """Encrypt the core into Nuclear's digit-string payload."""
    shift = key_shift(key)
    return "".join(f"{(ord(char) + shift) % 256:03d}" for char in core)


def encode_char_codes(core: str, delimiter: str) -> str:
    """RIG's buffer: the decimal code of every character, delimited."""
    return delimiter.join(str(ord(char)) for char in core) + delimiter

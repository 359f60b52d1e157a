"""Unpacker for the Angler hex-string packer."""

from __future__ import annotations

import re

from repro.ekgen.angler import hex_decode
from repro.unpack.base import Unpacker, UnpackError

#: One way only to read each separator: ``\s*`` takes every blank (line
#: breaks included) before the optional ``+``, so a broken chunk list fails
#: after one pass over the chunks instead of backtracking exponentially.
_HEX_CONCAT_RE = re.compile(
    r'var\s+[A-Za-z_$][\w$]*\s*=\s*((?:"[0-9a-fA-F]+"\s*(?:\+\s*)?)+);')
_HEX_LITERAL_RE = re.compile(r'"([0-9a-fA-F]+)"')
_EVAL_TRIGGER_RE = re.compile(r'window\[\s*"ev"\s*\+\s*"al"\s*\]')


class AnglerUnpacker(Unpacker):
    """Reverses the Angler hex-encoded payload packer."""

    kit = "angler"

    def recognizes(self, content: str) -> bool:
        script = self.script_of(content)
        return (bool(_EVAL_TRIGGER_RE.search(script))
                and "parseInt(" in script
                and bool(_HEX_CONCAT_RE.search(script)))

    def unpack(self, content: str) -> str:
        script = self.script_of(content)
        match = _HEX_CONCAT_RE.search(script)
        if not match:
            raise UnpackError("no hex payload concatenation found")
        pieces = _HEX_LITERAL_RE.findall(match.group(1))
        if not pieces:
            raise UnpackError("hex payload is empty")
        encoded = "".join(pieces)
        try:
            return hex_decode(encoded)
        except ValueError as exc:
            raise UnpackError(str(exc)) from exc

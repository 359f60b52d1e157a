"""Unpacker for the RIG char-code/delimiter packer (paper, Figure 4a)."""

from __future__ import annotations

import re

from repro.unpack.base import Unpacker, UnpackError

_DELIM_RE = re.compile(r'var\s+([A-Za-z_$][\w$]*)\s*=\s*"([^"]{1,8})"\s*;')
_SPLIT_RE = re.compile(r'\.split\(\s*([A-Za-z_$][\w$]*)\s*\)')
_FROMCHARCODE_RE = re.compile(r'String\.fromCharCode')
_CALL_RE_TEMPLATE = r'{name}\(\s*"([^"]*)"\s*\)\s*;'


class RigUnpacker(Unpacker):
    """Reverses the RIG ``collect()``/``split``/``fromCharCode`` packer."""

    kit = "rig"

    def recognizes(self, content: str) -> bool:
        script = self.script_of(content)
        return (bool(_FROMCHARCODE_RE.search(script))
                and ".split(" in script
                and "createElement" in script
                and "appendChild" in script
                and self._find_collect_name(script) is not None)

    def unpack(self, content: str) -> str:
        script = self.script_of(content)
        collect_name = self._find_collect_name(script)
        if collect_name is None:
            raise UnpackError("no collect-style accumulator function found")
        delimiter = self._find_delimiter(script)
        if delimiter is None:
            raise UnpackError("no delimiter assignment found")
        call_re = re.compile(_CALL_RE_TEMPLATE.format(name=re.escape(collect_name)))
        chunks = call_re.findall(script)
        if not chunks:
            raise UnpackError("no collect() calls with string arguments found")
        buffer = "".join(chunks)
        pieces = [piece for piece in buffer.split(delimiter) if piece != ""]
        try:
            return "".join(chr(int(piece)) for piece in pieces)
        except (ValueError, OverflowError) as exc:  # OverflowError: past C int
            raise UnpackError(f"invalid char code in buffer: {exc}") from exc

    # ------------------------------------------------------------------
    @staticmethod
    def _find_collect_name(script: str):
        """Name of the function whose body appends its argument to a buffer."""
        match = re.search(
            r'function\s+([A-Za-z_$][\w$]*)\s*\(\s*([A-Za-z_$][\w$]*)\s*\)\s*'
            r'\{\s*([A-Za-z_$][\w$]*)\s*\+=\s*\2\s*;?\s*\}',
            script)
        return match.group(1) if match else None

    @staticmethod
    def _find_delimiter(script: str):
        """The delimiter: the short string variable later passed to split()."""
        split_match = _SPLIT_RE.search(script)
        if not split_match:
            return None
        delim_variable = split_match.group(1)
        for name, value in _DELIM_RE.findall(script):
            if name == delim_variable:
                return value
        return None

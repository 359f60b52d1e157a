"""Unpacker interface."""

from __future__ import annotations

import abc
import functools
from typing import Optional

from repro.jstoken.normalizer import strip_html


class UnpackError(Exception):
    """Raised when an unpacker recognizes its packer but fails to reverse it
    (truncated capture, corrupted payload, unexpected variation)."""


class Unpacker(abc.ABC):
    """Base class for per-kit unpackers.

    An unpacker exposes two operations: :meth:`recognizes` is a cheap check
    for whether the packed sample looks like this unpacker's packer, and
    :meth:`unpack` reverses the packing.  ``unpack`` may raise
    :class:`UnpackError`; it must not silently return wrong output.
    """

    #: Kit family this unpacker targets; informational only (the labeler does
    #: not trust it — labeling is done by winnowing against the corpus).
    kit: str = ""

    @abc.abstractmethod
    def recognizes(self, content: str) -> bool:
        """Cheap structural test for this packer."""

    @abc.abstractmethod
    def unpack(self, content: str) -> str:
        """Reverse the packer and return the inner payload."""

    # ------------------------------------------------------------------
    def try_unpack(self, content: str) -> Optional[str]:
        """Return the unpacked payload, or ``None`` if not recognized/failed."""
        if not self.recognizes(content):
            return None
        try:
            return self.unpack(content)
        except UnpackError:
            return None

    @staticmethod
    def script_of(content: str) -> str:
        """The inline-script portion of a sample (HTML is tolerated), with
        its comments blanked: like the lexer's tokens, what a packer's
        patterns see does not change when comments are added."""
        return _script_of(content)


@functools.lru_cache(maxsize=1)
def _script_of(content: str) -> str:
    # One entry: the registry asks every unpacker about the same layer.
    script = strip_html(content)
    if "//" not in script and "/*" not in script:
        return script
    # Imported here: the scanner package imports this one.
    from repro.scanner.normalizer import blank_comments

    return blank_comments(script)

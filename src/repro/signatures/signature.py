"""The signature model."""

from __future__ import annotations

import datetime
import re
import zlib
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Signature:
    """A compiled AV-style signature.

    Attributes
    ----------
    kit:
        The exploit-kit family the signature targets.
    pattern:
        The regular expression, written against scanner-normalized text
        (whitespace-free, quote-free; see :mod:`repro.scanner.normalizer`).
    created:
        The date the signature was generated (drives Figure 12).
    token_length:
        Number of tokens in the common window the signature was built from.
    source:
        ``"kizzle"`` for generated signatures, ``"manual"`` for the simulated
        hand-written AV baseline.
    literal_anchor:
        A substring every text the pattern matches contains, filled in by
        the compiler (:func:`repro.signatures.regexgen.literal_anchor`).  A
        scanner rejects a sample that lacks it with one C-level ``in``
        before paying for the regex; ``None`` means the regex always runs.
    """

    kit: str
    pattern: str
    created: datetime.date
    token_length: int = 0
    source: str = "kizzle"
    signature_id: str = ""
    literal_anchor: Optional[str] = field(default=None, repr=False,
                                          compare=False)
    _compiled: Optional[re.Pattern] = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if not self.signature_id:
            digest = zlib.crc32(self.pattern.encode("utf-8")) % 10**6
            self.signature_id = (f"{self.kit}-{self.source}-"
                                 f"{self.created.isoformat()}-{digest:06d}")

    @property
    def compiled(self) -> re.Pattern:
        """The compiled regex (compiled lazily and cached)."""
        if self._compiled is None:
            self._compiled = re.compile(self.pattern, re.DOTALL)
        return self._compiled

    def could_match(self, normalized_text: str) -> bool:
        """Cheap necessary condition for :meth:`matches`.

        ``False`` proves the signature cannot match; ``True`` means the full
        regex must decide.
        """
        return self.literal_anchor is None \
            or self.literal_anchor in normalized_text

    @property
    def length(self) -> int:
        """Signature length in characters (the Figure 12 metric)."""
        return len(self.pattern)

    def matches(self, normalized_text: str) -> bool:
        """Whether the signature matches already-normalized sample text."""
        return self.compiled.search(normalized_text) is not None

    def matches_sample(self, content: str) -> bool:
        """Whether the signature matches a raw sample (normalizing first)."""
        from repro.scanner.normalizer import normalize_for_scan

        return self.matches(normalize_for_scan(content))

"""End-to-end signature compilation from a malicious cluster: common window
over the members' abstract token strings, per-offset value columns from a lex
bounded by that window, regex generalization of the columns."""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.signatures.alignment import align_cluster
from repro.signatures.regexgen import build_pattern, literal_anchor
from repro.signatures.signature import Signature
from repro.signatures.subsequence import MAX_WINDOW_TOKENS


@dataclass
class SignatureConfig:
    """Knobs of the signature generator.

    ``max_window_tokens`` is the paper's 200-token cap; ``min_window_tokens``
    implements "short sequences are discarded"; ``use_backreferences``
    controls the named-group tying of co-varying offsets; ``length_slack``
    widens observed length bounds (see
    :func:`repro.signatures.regexgen.generalize_column`).
    """

    max_window_tokens: int = MAX_WINDOW_TOKENS
    min_window_tokens: int = 10
    use_backreferences: bool = True
    #: Fractional slack applied to observed length bounds when generalizing
    #: varying columns.  0.0 reproduces the paper exactly (bounds equal to
    #: the observed lengths); the default 0.25 compensates for the much
    #: smaller cluster sizes of the synthetic stream.
    length_slack: float = 0.25


class SignatureCompiler:
    """Compiles a signature from the packed samples of one cluster."""

    def __init__(self, config: Optional[SignatureConfig] = None) -> None:
        self.config = config or SignatureConfig()
        #: Telemetry for the compile stage: signatures emitted versus
        #: clusters rejected for lacking a long-enough common window.
        self.compiled_count = 0
        self.rejected_count = 0

    def compile_cluster(self, contents: Sequence[str], kit: str,
                        created: datetime.date,
                        token_strings: Optional[Sequence[Sequence[str]]] = None
                        ) -> Optional[Signature]:
        """Generate a signature for a cluster labeled as ``kit``.

        Returns ``None`` when the cluster has no sufficiently long common
        unique token window (the paper discards short sequences rather than
        emit an imprecise signature).  ``token_strings`` hands over the
        members' abstract token strings when the caller has them (the day
        loop does: it clustered them); see
        :func:`~repro.signatures.alignment.align_cluster`.
        """
        if not contents:
            self.rejected_count += 1
            return None
        columns = align_cluster(contents,
                                max_tokens=self.config.max_window_tokens,
                                token_strings=token_strings)
        if columns is None or len(columns) < self.config.min_window_tokens:
            self.rejected_count += 1
            return None
        pattern = build_pattern(columns,
                                use_backreferences=self.config.use_backreferences,
                                length_slack=self.config.length_slack)
        self.compiled_count += 1
        return Signature(kit=kit, pattern=pattern, created=created,
                         token_length=len(columns), source="kizzle",
                         literal_anchor=literal_anchor(columns))

"""Multi-window signatures (paper, Section V "Deployment and avoidance").

The paper notes that an attacker aware of the signature-creation algorithm
could insert a random number of superfluous JavaScript statements between the
relevant operations of the packer, so that no single long consecutive token
sequence is shared by all samples.  The proposed counter-measure — sketched
as future work — is to "create signatures which not only match one
consecutive token sequence, but rather consist of multiple, shorter
sequences".

This module implements that extension:

* :func:`common_token_windows` greedily extracts several *disjoint* common
  unique windows (each found with the same binary-search machinery as the
  single-window algorithm) until either the requested number of windows is
  reached or no sufficiently long window remains;
* :class:`MultiWindowSignature` holds one regex fragment per window and
  matches a sample when all fragments match *in order*;
* :class:`MultiWindowCompiler` mirrors
  :class:`~repro.signatures.compiler.SignatureCompiler` for the multi-window
  format.

The evasion ablation (``tests/paper/test_ablation_evasion.py``) shows the
point of the extension: junk-statement insertion destroys single-window
signatures but leaves multi-window signatures effective.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.jstoken.normalizer import tokenize_sample
from repro.signatures.alignment import TokenColumn, abstract_of, \
    normalize_token_value
from repro.signatures.regexgen import build_pattern
from repro.signatures.subsequence import CommonWindow, common_token_window


@dataclass
class WindowSlice:
    """One extracted window plus its per-sample positions."""

    window: CommonWindow
    columns: List[TokenColumn]


def _mask_window(token_strings: List[List[str]], window: CommonWindow,
                 mask_token: str = "@@MASKED@@") -> None:
    """Overwrite an extracted window with mask tokens in every sample so the
    next extraction round cannot reuse any part of it."""
    for sample_index, start in enumerate(window.positions):
        tokens = token_strings[sample_index]
        for offset in range(window.length):
            tokens[start + offset] = f"{mask_token}{sample_index}:{start + offset}"


def common_token_windows(token_strings: Sequence[Sequence[str]],
                         max_windows: int = 4,
                         max_tokens_per_window: int = 60,
                         min_tokens_per_window: int = 6
                         ) -> List[CommonWindow]:
    """Extract up to ``max_windows`` disjoint common unique windows.

    Windows are extracted greedily, longest first; after each extraction the
    window's tokens are masked out (with per-sample-unique placeholders) so
    later windows cannot overlap it.  Windows shorter than
    ``min_tokens_per_window`` stop the extraction.
    """
    working = [list(tokens) for tokens in token_strings]
    windows: List[CommonWindow] = []
    for _round in range(max_windows):
        window = common_token_window(working,
                                     max_tokens=max_tokens_per_window)
        if window is None or window.length < min_tokens_per_window:
            break
        windows.append(window)
        _mask_window(working, window)
    return windows


@dataclass
class MultiWindowSignature:
    """A signature made of several ordered regex fragments.

    A sample matches when the fragments that match the scanner-normalized
    text — in fragment order — cover at least ``min_coverage`` of the
    signature's total window tokens.  With the default ``min_coverage`` of
    1.0 every fragment must match in order (fragments are extracted
    left-to-right from the first cluster sample, so order is a real
    constraint, not an artifact).

    The compiler lowers ``min_coverage`` below 1.0: an attacker who
    re-randomizes junk placement can land a statement inside *one* window of
    a fresh variant, and requiring every window would hand back the evasion
    the multi-window format exists to stop.  Tolerating a small missing
    minority of window tokens keeps detection while benign samples — which
    match essentially no windows — stay far below any reasonable threshold.
    """

    kit: str
    fragments: List[str]
    created: datetime.date
    token_lengths: List[int] = field(default_factory=list)
    source: str = "kizzle-multiwindow"
    min_coverage: float = 1.0
    _compiled: Optional[List[re.Pattern]] = field(default=None, repr=False,
                                                  compare=False)

    @property
    def compiled(self) -> List[re.Pattern]:
        if self._compiled is None:
            self._compiled = [re.compile(fragment, re.DOTALL)
                              for fragment in self.fragments]
        return self._compiled

    @property
    def length(self) -> int:
        """Total signature length in characters across all fragments."""
        return sum(len(fragment) for fragment in self.fragments)

    @property
    def window_count(self) -> int:
        return len(self.fragments)

    def matches(self, normalized_text: str) -> bool:
        """Whether enough fragments match, in order.

        Fragments are scanned left to right; a fragment that does not match
        after the previous hit is skipped (its window tokens count as
        missed) and the scan continues with the next fragment from the same
        position.  The sample matches when the matched windows cover at
        least ``min_coverage`` of the total window tokens.
        """
        if not self.fragments:
            # Degenerate signature: keep the pre-coverage semantics where
            # an empty fragment loop vacuously matched.
            return True
        # When per-window token counts are unavailable (hand-built
        # signatures), weight every fragment equally.
        weights = self.token_lengths \
            if len(self.token_lengths) == len(self.fragments) \
            else [1] * len(self.fragments)
        total = sum(weights)
        required = self.min_coverage * total
        matched = 0.0
        remaining = float(total)
        position = 0
        for pattern, weight in zip(self.compiled, weights):
            match = pattern.search(normalized_text, position)
            if match is not None:
                position = match.end()
                matched += weight
            remaining -= weight
            if matched >= required:
                return True
            if matched + remaining < required:
                return False
        return matched >= required

    def matches_sample(self, content: str) -> bool:
        from repro.scanner.normalizer import normalize_for_scan

        return self.matches(normalize_for_scan(content))


@dataclass
class MultiWindowConfig:
    """Knobs of the multi-window compiler."""

    max_windows: int = 4
    max_tokens_per_window: int = 60
    min_tokens_per_window: int = 6
    min_total_tokens: int = 18
    use_backreferences: bool = False
    length_slack: float = 0.25
    #: Fraction of total window tokens that must match (in order) for a
    #: sample to count as detected.  Below 1.0 the signature survives junk
    #: re-randomization landing inside a single window; benign samples match
    #: essentially no windows, so false positives stay at zero.
    min_coverage: float = 0.75


class MultiWindowCompiler:
    """Compiles multi-window signatures from a cluster of packed samples."""

    def __init__(self, config: Optional[MultiWindowConfig] = None) -> None:
        self.config = config or MultiWindowConfig()

    def compile_cluster(self, contents: Sequence[str], kit: str,
                        created: datetime.date
                        ) -> Optional[MultiWindowSignature]:
        """Compile a multi-window signature, or ``None`` if the cluster does
        not share enough structure."""
        if not contents:
            return None
        token_lists = [tokenize_sample(content) for content in contents]
        abstract_strings = [[abstract_of(token) for token in tokens]
                            for tokens in token_lists]
        windows = common_token_windows(
            abstract_strings,
            max_windows=self.config.max_windows,
            max_tokens_per_window=self.config.max_tokens_per_window,
            min_tokens_per_window=self.config.min_tokens_per_window)
        if not windows:
            return None
        total_tokens = sum(window.length for window in windows)
        if total_tokens < self.config.min_total_tokens:
            return None

        # Order fragments by their position in the first sample so the
        # in-order matching constraint reflects the sample layout.
        windows.sort(key=lambda window: window.positions[0])
        fragments: List[str] = []
        token_lengths: List[int] = []
        for window in windows:
            columns = self._columns_for(window, token_lists)
            fragments.append(build_pattern(
                columns,
                use_backreferences=self.config.use_backreferences,
                length_slack=self.config.length_slack))
            token_lengths.append(window.length)
        return MultiWindowSignature(kit=kit, fragments=fragments,
                                    created=created,
                                    token_lengths=token_lengths,
                                    min_coverage=self.config.min_coverage)

    @staticmethod
    def _columns_for(window: CommonWindow, token_lists) -> List[TokenColumn]:
        columns = [TokenColumn(offset=offset, token_class=window.window[offset])
                   for offset in range(window.length)]
        for sample_index, start in enumerate(window.positions):
            tokens = token_lists[sample_index]
            for offset in range(window.length):
                columns[offset].values.append(
                    normalize_token_value(tokens[start + offset]))
        return columns

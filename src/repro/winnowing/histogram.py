"""Winnow histograms: the per-document fingerprint representation Kizzle
compares when labeling clusters.

The paper refers to "winnow histograms" for both the cluster prototype and
the known malware samples (Section III-B).  A :class:`WinnowHistogram` wraps a
:class:`~repro.winnowing.fingerprint.Fingerprint` together with the document
label/metadata, and offers the overlap computation used for labeling and for
the Figure 11 similarity-over-time experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.winnowing.fingerprint import DEFAULT_K, DEFAULT_WINDOW, Fingerprint


@dataclass
class WinnowHistogram:
    """Fingerprint histogram of a single (usually unpacked) document."""

    fingerprint: Fingerprint
    label: Optional[str] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def of(cls, text: str, label: Optional[str] = None,
           k: int = DEFAULT_K, window: int = DEFAULT_WINDOW,
           **metadata: object) -> "WinnowHistogram":
        """Build the histogram of a document."""
        return cls(fingerprint=Fingerprint.of(text, k=k, window=window),
                   label=label, metadata=dict(metadata))

    @property
    def size(self) -> int:
        """Number of fingerprints in the histogram (with multiplicity)."""
        return self.fingerprint.size

    def overlap(self, other: "WinnowHistogram") -> float:
        """Fraction of *this* histogram's fingerprints found in ``other``.

        This is the containment measure used for cluster labeling: a cluster
        prototype that shares a sufficiently high fraction of its
        fingerprints with a known kit sample is labeled with that kit.  The
        value is in ``[0, 1]``; an empty histogram has overlap 0 with
        everything.
        """
        size = self.size
        if size == 0:
            return 0.0
        return self.fingerprint.intersection_size(other.fingerprint) / size

    def symmetric_overlap(self, other: "WinnowHistogram") -> float:
        """Symmetric similarity: intersection over the smaller histogram.

        Used for the day-over-day centroid similarity of Figure 11, where the
        two documents play symmetric roles.
        """
        smaller = min(self.size, other.size)
        if smaller == 0:
            return 0.0
        return self.fingerprint.intersection_size(other.fingerprint) / smaller

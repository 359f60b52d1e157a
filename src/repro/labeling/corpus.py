"""The labeled corpus of known unpacked exploit-kit samples.

Kizzle is seeded with "a set of existing unpacked malware samples which
correspond to exploit kits Kizzle is aiming to detect" (Section III).  The
corpus stores their winnow histograms plus a per-family overlap threshold —
the paper notes the threshold is "malware family specific" and determined
empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.winnowing.fingerprint import DEFAULT_K, DEFAULT_WINDOW
from repro.winnowing.histogram import WinnowHistogram

#: Default per-family overlap thresholds.  RIG's unpacked body churns a lot
#: day over day (Figure 11d), so its threshold is the loosest; the other kits
#: barely change and can afford strict thresholds.
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "nuclear": 0.85,
    "angler": 0.85,
    "sweetorange": 0.80,
    "rig": 0.45,
}
FALLBACK_THRESHOLD = 0.80


@dataclass
class CorpusEntry:
    """One known unpacked kit sample."""

    kit: str
    histogram: WinnowHistogram
    collected: Optional[object] = None  # typically a datetime.date


@dataclass
class KnownKitCorpus:
    """Reference corpus used to label cluster prototypes."""

    k: int = DEFAULT_K
    window: int = DEFAULT_WINDOW
    thresholds: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    entries: List[CorpusEntry] = field(default_factory=list)

    def add(self, kit: str, unpacked_text: str,
            collected: Optional[object] = None,
            histogram: Optional[WinnowHistogram] = None) -> CorpusEntry:
        """Add a known unpacked sample for a kit.

        ``histogram`` is one already built from ``unpacked_text`` (the
        labeler's, which reads ``k``/``window`` from this corpus): its
        fingerprint is taken as is when the parameters are the corpus's.
        """
        if histogram is not None and \
                (histogram.fingerprint.k, histogram.fingerprint.window) \
                == (self.k, self.window):
            histogram = WinnowHistogram(histogram.fingerprint, label=kit)
        else:
            histogram = WinnowHistogram.of(unpacked_text, label=kit,
                                           k=self.k, window=self.window)
        entry = CorpusEntry(kit=kit, histogram=histogram, collected=collected)
        self.entries.append(entry)
        return entry

    def add_many(self, kit: str, unpacked_texts: Iterable[str]) -> None:
        for text in unpacked_texts:
            self.add(kit, text)

    def kits(self) -> List[str]:
        return sorted({entry.kit for entry in self.entries})

    def threshold_for(self, kit: str) -> float:
        return self.thresholds.get(kit, FALLBACK_THRESHOLD)

    def entries_for(self, kit: str) -> List[CorpusEntry]:
        return [entry for entry in self.entries if entry.kit == kit]

    def __len__(self) -> int:
        return len(self.entries)

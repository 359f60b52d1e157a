"""Labeling cluster prototypes by winnow-overlap against the known corpus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.labeling.corpus import KnownKitCorpus
from repro.unpack.registry import UnpackerRegistry, default_registry
from repro.winnowing.histogram import WinnowHistogram


@dataclass
class ClusterLabel:
    """The labeling verdict for one cluster.

    ``kit`` is ``None`` for benign clusters.  ``overlap`` is the winnow
    overlap with the best-matching corpus family (reported even when below
    threshold, which is how the Figure 15 false-positive analysis quotes a
    79% overlap for a benign library).  ``histogram`` is the winnow
    histogram of ``unpacked`` that the verdict was computed from (``None``
    for an inherited label, which unpacked nothing), so feeding the cluster
    back into the corpus does not fingerprint the same text again.
    """

    kit: Optional[str]
    overlap: float
    best_family: Optional[str]
    unpacked: str
    layers: int = 0
    histogram: Optional[WinnowHistogram] = None

    @property
    def is_malicious(self) -> bool:
        return self.kit is not None


class ClusterLabeler:
    """Unpacks a cluster prototype and labels it against the corpus."""

    def __init__(self, corpus: KnownKitCorpus,
                 registry: Optional[UnpackerRegistry] = None) -> None:
        self.corpus = corpus
        self.registry = registry or default_registry()

    def label_prototype(self, prototype_content: str) -> ClusterLabel:
        """Unpack and label a single prototype sample."""
        unpacked, applied = self.registry.unpack(prototype_content)
        histogram = WinnowHistogram.of(unpacked, k=self.corpus.k,
                                       window=self.corpus.window)
        best_family: Optional[str] = None
        best_overlap = 0.0
        for entry in self.corpus.entries:
            overlap = histogram.overlap(entry.histogram)
            if overlap > best_overlap:
                best_overlap = overlap
                best_family = entry.kit
        kit: Optional[str] = None
        if best_family is not None \
                and best_overlap >= self.corpus.threshold_for(best_family):
            kit = best_family
        return ClusterLabel(kit=kit, overlap=best_overlap,
                            best_family=best_family, unpacked=unpacked,
                            layers=len(applied), histogram=histogram)

    def label_cluster(self, cluster) -> ClusterLabel:
        """Label a :class:`~repro.clustering.partition.Cluster` by its
        prototype."""
        return self.label_prototype(cluster.prototype.content)

"""Result records produced by the daily Kizzle run."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.clustering.partition import Cluster
from repro.distsim import MapReduceReport
from repro.labeling.labeler import ClusterLabel
from repro.signatures.signature import Signature


@dataclass
class ClusterReport:
    """One cluster with its label and (optional) generated signature."""

    cluster: Cluster
    label: ClusterLabel
    signature: Optional[Signature] = None

    @property
    def size(self) -> int:
        return self.cluster.size

    @property
    def kit(self) -> Optional[str]:
        return self.label.kit


@dataclass
class ShedRecord:
    """One sample set aside by the known-sample shedding stage."""

    sample_id: str
    #: Always ``"signature"``: a read path for ``bench/`` until ROADMAP
    #: item 3(d).
    reason: str = "signature"
    #: The kit of the deployed signature that matched the sample.
    kit: Optional[str] = None


@dataclass
class DailyResult:
    """Everything produced by one day of processing.

    The incremental warm path additionally reports which samples were shed
    before tokenization (:attr:`shed`), how many were absorbed into
    carried-forward clusters (:attr:`absorbed_count`) versus freshly
    clustered, and how many of the day's clusters inherited yesterday's
    label without re-unpacking (:attr:`carried_cluster_count`).  On the cold
    path all of these stay at their empty defaults.
    """

    date: datetime.date
    clusters: List[ClusterReport] = field(default_factory=list)
    new_signatures: List[Signature] = field(default_factory=list)
    timing: Optional[MapReduceReport] = None
    sample_count: int = 0
    noise_count: int = 0
    shed: List[ShedRecord] = field(default_factory=list)
    absorbed_count: int = 0
    carried_cluster_count: int = 0
    #: Which execution backend processed the day.
    backend: str = ""
    #: Always empty: a read path for ``bench/workloads.py`` until ROADMAP
    #: item 3(d).
    prepared_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def stage_walls(self) -> Dict[str, float]:
        """Measured wall-clock seconds per pipeline stage."""
        if self.timing is None:
            return {}
        return dict(self.timing.wall_stage_seconds)

    def shed_by_kit(self) -> Dict[str, int]:
        """Shed-sample counts keyed by kit (benign under ``"benign"``)."""
        counts: Dict[str, int] = {}
        for record in self.shed:
            key = record.kit if record.kit is not None else "benign"
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    @property
    def malicious_clusters(self) -> List[ClusterReport]:
        return [report for report in self.clusters if report.kit is not None]

    @property
    def benign_clusters(self) -> List[ClusterReport]:
        return [report for report in self.clusters if report.kit is None]

    def clusters_by_kit(self) -> Dict[str, List[ClusterReport]]:
        grouped: Dict[str, List[ClusterReport]] = {}
        for report in self.malicious_clusters:
            grouped.setdefault(report.kit, []).append(report)
        return grouped

    def summary(self) -> Dict[str, object]:
        """Compact summary used by the reporting layer."""
        summary = {
            "date": self.date.isoformat(),
            "samples": self.sample_count,
            "clusters": self.cluster_count,
            "malicious_clusters": len(self.malicious_clusters),
            "new_signatures": len(self.new_signatures),
            "noise_samples": self.noise_count,
            "processing_minutes": (self.timing.total_time / 60.0
                                   if self.timing else 0.0),
        }
        if self.shed or self.absorbed_count:
            summary["shed_samples"] = self.shed_count
            summary["absorbed_samples"] = self.absorbed_count
            summary["carried_clusters"] = self.carried_cluster_count
        if self.backend:
            summary["backend"] = self.backend
        for stage, seconds in self.stage_walls.items():
            summary[f"wall_{stage}_s"] = seconds
        return summary

"""Tests for result records, summaries and the reporting helpers that were
not already covered by the harness-level tests."""

from __future__ import annotations

import datetime

import pytest

from repro.clustering import Cluster, ClusteredSample
from repro.core.results import ClusterReport, DailyResult
from repro.distsim import MapReduceReport
from repro.labeling.labeler import ClusterLabel
from repro.signatures import Signature

D = datetime.date(2014, 8, 5)


def make_cluster(size=3, cluster_id=0):
    samples = [ClusteredSample(sample_id=f"{cluster_id}-{i}",
                               content="var a = 1;",
                               tokens=("var", "Identifier", "=", "String", ";"))
               for i in range(size)]
    return Cluster(cluster_id=cluster_id, samples=samples)


def make_report(kit=None, size=3, cluster_id=0, with_signature=False):
    label = ClusterLabel(kit=kit, overlap=0.9 if kit else 0.1,
                         best_family=kit or "nuclear", unpacked="var a;")
    signature = None
    if with_signature:
        signature = Signature(kit=kit or "x", pattern="vara=1;", created=D)
    return ClusterReport(cluster=make_cluster(size, cluster_id), label=label,
                         signature=signature)


class TestClusterReport:
    def test_properties(self):
        report = make_report(kit="rig", size=4)
        assert report.size == 4
        assert report.kit == "rig"

    def test_benign_report(self):
        report = make_report(kit=None)
        assert report.kit is None
        assert not report.label.is_malicious


class TestDailyResult:
    def build(self):
        result = DailyResult(date=D, sample_count=20, noise_count=2)
        result.clusters = [
            make_report(kit="rig", cluster_id=0, with_signature=True),
            make_report(kit="rig", cluster_id=1),
            make_report(kit=None, cluster_id=2),
        ]
        result.new_signatures = [result.clusters[0].signature]
        result.timing = MapReduceReport(machine_count=4, partitions=2,
                                        scatter_time=1.0, map_time=10.0,
                                        gather_time=2.0, reduce_time=5.0)
        return result

    def test_cluster_views(self):
        result = self.build()
        assert result.cluster_count == 3
        assert len(result.malicious_clusters) == 2
        assert len(result.benign_clusters) == 1
        assert set(result.clusters_by_kit()) == {"rig"}
        assert len(result.clusters_by_kit()["rig"]) == 2

    def test_summary(self):
        summary = self.build().summary()
        assert summary["samples"] == 20
        assert summary["clusters"] == 3
        assert summary["malicious_clusters"] == 2
        assert summary["new_signatures"] == 1
        assert summary["processing_minutes"] == pytest.approx(0.3)

    def test_summary_without_timing(self):
        result = DailyResult(date=D, sample_count=5)
        assert result.summary()["processing_minutes"] == 0.0


class TestMapReduceReportAccounting:
    def test_total_and_fraction(self):
        report = MapReduceReport(machine_count=10, partitions=5,
                                 scatter_time=1.0, map_time=5.0,
                                 gather_time=1.0, reduce_time=3.0)
        assert report.total_time == pytest.approx(10.0)
        assert report.reduce_fraction == pytest.approx(0.4)
        assert report.summary()["total_minutes"] == pytest.approx(10.0 / 60)

    def test_zero_total(self):
        report = MapReduceReport(machine_count=1, partitions=1,
                                 scatter_time=0.0, map_time=0.0,
                                 gather_time=0.0, reduce_time=0.0)
        assert report.reduce_fraction == 0.0

"""Tests for DBSCAN, partitioning, merging and prototype selection."""

from __future__ import annotations

import random

import pytest

from repro.clustering import (
    Cluster,
    ClusteredSample,
    DBSCAN,
    DistributedClusterer,
    NOISE,
    cluster_partition,
    medoid_index,
    merge_clusters,
    partition_samples,
    select_prototype,
)
from repro.jstoken import abstract_token_string


def token_point(text: str):
    return tuple(text)


class TestDBSCAN:
    def test_two_obvious_clusters(self):
        group_a = [token_point("aaaaaaaaaa")] * 4
        group_b = [token_point("bbbbbbbbbb")] * 4
        result = DBSCAN(epsilon=0.10, min_points=3).fit(group_a + group_b)
        assert result.cluster_count == 2
        labels_a = {result.labels[i] for i in range(4)}
        labels_b = {result.labels[i] for i in range(4, 8)}
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_noise_points(self):
        cluster = [token_point("cccccccccc")] * 5
        outlier = [token_point("zzzzzzzzyyyyxxxx")]
        result = DBSCAN(epsilon=0.10, min_points=3).fit(cluster + outlier)
        assert result.labels[-1] == NOISE
        assert result.cluster_count == 1

    def test_small_group_below_min_points_is_noise(self):
        points = [token_point("dddddddddd")] * 2
        result = DBSCAN(epsilon=0.10, min_points=3).fit(points)
        assert result.cluster_count == 0
        assert all(label == NOISE for label in result.labels)

    def test_duplicates_count_toward_density(self):
        """A large group of identical samples must form a cluster even though
        there is only one unique point."""
        points = [token_point("eeeeeeeeee")] * 50
        result = DBSCAN(epsilon=0.10, min_points=3).fit(points)
        assert result.cluster_count == 1
        assert all(label == 0 for label in result.labels)

    def test_near_duplicates_cluster_together(self):
        base = "abcdefghijklmnopqrst"
        variant = "abcdefghijklmnopqrsX"  # one substitution in 20 -> 0.05
        points = [token_point(base)] * 3 + [token_point(variant)] * 3
        result = DBSCAN(epsilon=0.10, min_points=3).fit(points)
        assert result.cluster_count == 1

    def test_far_points_do_not_merge(self):
        base = "abcdefghijklmnopqrst"
        distant = "abcdeXXXXXXXXXXpqrst"  # 10 substitutions -> 0.5
        points = [token_point(base)] * 3 + [token_point(distant)] * 3
        result = DBSCAN(epsilon=0.10, min_points=3).fit(points)
        assert result.cluster_count == 2

    def test_empty_input(self):
        result = DBSCAN().fit([])
        assert result.labels == []
        assert result.cluster_count == 0

    def test_members_mapping(self):
        points = [token_point("ffffffffff")] * 3 + [token_point("gggggggggggggggggggg")]
        result = DBSCAN(epsilon=0.10, min_points=3).fit(points)
        members = result.members()
        assert set(members[0]) == {0, 1, 2}
        assert members[NOISE] == [3]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DBSCAN(epsilon=1.5)
        with pytest.raises(ValueError):
            DBSCAN(min_points=0)

    def test_comparisons_reported(self):
        points = [token_point("hhhhhhhhhh")] * 3 + [token_point("iiiiiiiiii")] * 3
        result = DBSCAN(epsilon=0.10, min_points=2).fit(points)
        assert result.comparisons > 0

    def test_kit_samples_cluster_by_family(self, kits, august_day):
        """Packed samples of different kits land in different clusters."""
        points = []
        for index, name in enumerate(["rig", "nuclear", "sweetorange"]):
            for sample_index in range(3):
                sample = kits[name].generate(
                    august_day, random.Random(index * 10 + sample_index))
                points.append(abstract_token_string(sample.content))
        result = DBSCAN(epsilon=0.10, min_points=3).fit(points)
        assert result.cluster_count == 3
        assert len({result.labels[0], result.labels[3], result.labels[6]}) == 3


class TestPartitioning:
    def make_samples(self, count):
        return [ClusteredSample(sample_id=f"s{i}", content="var a = 1;",
                                tokens=("var", "Identifier", "=", "String", ";"))
                for i in range(count)]

    def test_partition_sizes_balanced(self):
        buckets = partition_samples(self.make_samples(20), 4, seed=1)
        assert sum(len(bucket) for bucket in buckets) == 20
        assert all(len(bucket) == 5 for bucket in buckets)

    def test_partition_deterministic(self):
        samples = self.make_samples(10)
        a = partition_samples(samples, 3, seed=7)
        b = partition_samples(samples, 3, seed=7)
        assert [[s.sample_id for s in bucket] for bucket in a] == \
            [[s.sample_id for s in bucket] for bucket in b]

    def test_partition_invalid(self):
        with pytest.raises(ValueError):
            partition_samples(self.make_samples(3), 0)

    def test_more_partitions_than_samples(self):
        buckets = partition_samples(self.make_samples(2), 10)
        assert len(buckets) == 2

    def test_cluster_partition_returns_clusters_and_cost(self):
        samples = self.make_samples(6)
        clusters, comparisons = cluster_partition(samples, min_points=3)
        assert len(clusters) == 1
        assert clusters[0].size == 6
        assert comparisons >= 0

    def test_cluster_partition_empty(self):
        assert cluster_partition([]) == ([], 0)

    def test_clustered_sample_from_content(self):
        sample = ClusteredSample.from_content("id1", "var a = f(1);")
        assert sample.tokens[0] == "var"

    def test_ensure_tokens_idempotent(self):
        sample = ClusteredSample(sample_id="x", content="var a;")
        prepared = sample.ensure_tokens()
        assert prepared.tokens
        assert prepared.ensure_tokens() is prepared


class TestMerge:
    def make_cluster(self, cluster_id, text, count):
        samples = [ClusteredSample(sample_id=f"{cluster_id}-{i}", content=text,
                                   tokens=tuple(text)) for i in range(count)]
        return Cluster(cluster_id=cluster_id, samples=samples)

    def test_merge_identical_prototypes(self):
        a = self.make_cluster(0, "aaaaaaaaaa", 3)
        b = self.make_cluster(1, "aaaaaaaaaa", 4)
        merged, comparisons = merge_clusters([[a], [b]], epsilon=0.10)
        assert len(merged) == 1
        assert merged[0].size == 7
        assert comparisons == 1

    def test_merge_keeps_distinct_clusters_apart(self):
        a = self.make_cluster(0, "aaaaaaaaaa", 3)
        b = self.make_cluster(1, "bbbbbbbbbb", 3)
        merged, _ = merge_clusters([[a], [b]], epsilon=0.10)
        assert len(merged) == 2

    def test_merge_empty(self):
        assert merge_clusters([]) == ([], 0)

    def test_merged_ids_are_dense(self):
        clusters = [[self.make_cluster(i, "c" * 10 + str(i), 3)]
                    for i in range(4)]
        merged, _ = merge_clusters(clusters, epsilon=0.05)
        assert sorted(c.cluster_id for c in merged) == list(range(len(merged)))


class TestPrototypes:
    def test_medoid_of_single(self):
        assert medoid_index([tuple("abc")]) == 0

    def test_medoid_prefers_central_point(self):
        points = [tuple("aaaaaaaaaa"), tuple("aaaaaaaaab"), tuple("aaaaaaaabb"),
                  tuple("zzzzzzzzzz")]
        assert medoid_index(points) in (0, 1)

    def test_medoid_empty_raises(self):
        with pytest.raises(ValueError):
            medoid_index([])

    def test_select_prototype_small(self):
        points = [tuple("abcabcabc")] * 5
        assert select_prototype(points) in range(5)

    def test_select_prototype_large_uses_subsample(self):
        points = [tuple("abcabcabc")] * 100 + [tuple("xyzxyzxyz")]
        index = select_prototype(points, seed=3)
        assert points[index] == tuple("abcabcabc")

    def test_select_prototype_empty_raises(self):
        with pytest.raises(ValueError):
            select_prototype([])


class TestDistributedClusterer:
    def test_end_to_end_with_kit_samples(self, kits, august_day):
        samples = []
        for index, name in enumerate(["rig", "nuclear"]):
            for sample_index in range(4):
                generated = kits[name].generate(
                    august_day, random.Random(index * 100 + sample_index))
                samples.append(ClusteredSample.from_content(
                    generated.sample_id, generated.content))
        clusterer = DistributedClusterer(
            epsilon=0.10, min_points=3,
            machines=4)
        clusters, report = clusterer.run(samples, partitions=2)
        assert len(clusters) == 2
        assert report.total_time > 0
        assert report.machine_count == 4

    def test_partition_count_adapts_to_small_batches(self):
        samples = [ClusteredSample(sample_id=str(i), content="var a;",
                                   tokens=("var", "Identifier", ";"))
                   for i in range(10)]
        clusterer = DistributedClusterer(
            min_points=3, machines=50)
        clusters, report = clusterer.run(samples)
        assert report.partitions == 1
        assert len(clusters) == 1
        assert clusters[0].size == 10

"""Tests for the pruned distance engine.

Three layers of guarantees:

* the bit-parallel kernel is exactly the Levenshtein distance (property
  tested against the reference dynamic program);
* every prefilter is a true lower bound of the edit distance, so pruning can
  never change a within-epsilon verdict;
* an engine-backed DBSCAN produces byte-identical labels to the sequential
  metric-driven implementation on seeded telemetry, whatever combination of
  filters/cache/workers is configured.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering import ClusteredSample, DBSCAN, DistributedClusterer
from repro.core.config import KizzleConfig
from repro.distance import (
    DistanceEngine,
    DistanceEngineConfig,
    PairDistanceCache,
    TokenEditDistance,
    bitparallel_edit_distance,
    build_pattern_mask,
    edit_distance,
    length_lower_bound,
    normalized_edit_distance,
    qgram_lower_bound,
)
from repro.distance.metrics import _histogram_lower_bound
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.exec import BackendConfig, create_backend

DEFAULT_SETTINGS = settings(max_examples=60, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])

token_alphabet = st.sampled_from(
    ["var", "Identifier", "String", "(", ")", "=", ";", "[", "]", "+"])
token_strings = st.lists(token_alphabet, min_size=0, max_size=40).map(tuple)
epsilons = st.floats(min_value=0.02, max_value=0.8)


def private_engine(**overrides) -> DistanceEngine:
    overrides.setdefault("shared_cache", False)
    return DistanceEngine(DistanceEngineConfig(**overrides))


class TestBitParallelKernel:
    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_equals_reference_dp(self, a, b):
        assert bitparallel_edit_distance(a, b) == edit_distance(a, b)

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_precomputed_mask_equals_adhoc(self, a, b):
        mask = build_pattern_mask(a)
        assert bitparallel_edit_distance(a, b, mask) == \
            bitparallel_edit_distance(a, b)

    def test_empty_sequences(self):
        assert bitparallel_edit_distance((), ()) == 0
        assert bitparallel_edit_distance((), ("a", "b")) == 2
        assert bitparallel_edit_distance(("a", "b"), ()) == 2

    def test_classic_strings(self):
        assert bitparallel_edit_distance(tuple("kitten"),
                                         tuple("sitting")) == 3
        assert bitparallel_edit_distance(tuple("flaw"), tuple("lawn")) == 2

    def test_long_sequences(self):
        a = tuple("abcdefghij" * 120)
        b = tuple("abcdefghiX" * 120)
        assert bitparallel_edit_distance(a, b) == edit_distance(a, b)


#: ``prefix + middle_a + suffix`` against ``prefix + middle_b + suffix`` over
#: 1-3-symbol alphabets: with so few symbols the middles keep sharing ends
#: with the affixes, so what the kernel trims is rarely what was glued on.
affix_alphabets = st.integers(min_value=1, max_value=3).map(
    lambda size: st.lists(st.sampled_from(["var", "(", ";"][:size]),
                          max_size=12).map(tuple))
affixed_pairs = affix_alphabets.flatmap(
    lambda symbols: st.tuples(symbols, symbols, symbols, symbols)).map(
    lambda parts: (parts[0] + parts[1] + parts[3],
                   parts[0] + parts[2] + parts[3]))
#: The carry-forward shape: one side's middle is empty (an inserted block).
inserted_blocks = affix_alphabets.flatmap(
    lambda symbols: st.tuples(symbols, symbols, symbols)).map(
    lambda parts: (parts[0] + parts[2], parts[0] + parts[1] + parts[2]))


class TestKernelAffixTrimming:
    """The kernel runs Myers' loop on what is left after the common prefix
    and suffix; the distance must not notice, with or without a mask that
    was built for the whole pattern."""

    @staticmethod
    def assert_exact(a, b):
        expected = edit_distance(a, b)
        assert bitparallel_edit_distance(a, b) == expected
        assert bitparallel_edit_distance(b, a) == expected
        assert bitparallel_edit_distance(a, b, build_pattern_mask(a)) == \
            expected
        assert bitparallel_edit_distance(b, a, build_pattern_mask(b)) == \
            expected

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(affixed_pairs)
    def test_shared_prefix_and_suffix(self, pair):
        self.assert_exact(*pair)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inserted_blocks)
    def test_one_sided_middle(self, pair):
        self.assert_exact(*pair)

    def test_inserted_block_is_its_length(self):
        page = tuple("abcdefghij" * 50)
        block = tuple("XYZ" * 7)
        updated = page[:123] + block + page[123:]
        assert bitparallel_edit_distance(page, updated,
                                         build_pattern_mask(page)) == 21
        assert bitparallel_edit_distance(updated, page,
                                         build_pattern_mask(updated)) == 21

    def test_supplied_mask_is_not_modified(self):
        a, b = tuple("aabcbb"), tuple("aaddcbb")
        mask = build_pattern_mask(a)
        before = dict(mask)
        assert bitparallel_edit_distance(a, b, mask) == edit_distance(a, b)
        assert mask == before

    def test_lists_and_strings_are_accepted_as_before(self):
        assert bitparallel_edit_distance(list("kitten"), list("sitting")) == 3
        assert bitparallel_edit_distance("kitten", "sitting") == 3
        assert bitparallel_edit_distance(list("abc"), tuple("abc")) == 0


class TestPrefilterLowerBounds:
    """Every pruning layer must be a true lower bound of the normalized
    distance — otherwise pruning could flip clustering decisions."""

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_length_bound(self, a, b):
        assert length_lower_bound(a, b) <= \
            normalized_edit_distance(a, b) + 1e-9

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_bag_bound(self, a, b):
        assert _histogram_lower_bound(a, b) <= \
            normalized_edit_distance(a, b) + 1e-9

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings, st.integers(min_value=2,
                                                     max_value=5))
    def test_qgram_bound(self, a, b, q):
        assert qgram_lower_bound(a, b, q=q) <= \
            normalized_edit_distance(a, b) + 1e-9

    def test_qgram_bound_rejects_bad_q(self):
        with pytest.raises(ValueError):
            qgram_lower_bound(("a",), ("b",), q=0)


class TestEngineQueries:
    @DEFAULT_SETTINGS
    @given(token_strings, token_strings, epsilons)
    def test_within_matches_metric(self, a, b, epsilon):
        engine = private_engine()
        metric = TokenEditDistance(epsilon=epsilon)
        assert engine.within(a, b, epsilon) == metric.within(a, b, epsilon)

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_exact_distance_matches_dp(self, a, b):
        engine = private_engine()
        assert engine.exact_distance(a, b) == edit_distance(a, b)

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings, epsilons)
    def test_thresholded_distance_matches_metric(self, a, b, epsilon):
        engine = private_engine()
        metric = TokenEditDistance(epsilon=epsilon)
        got = engine.distance(a, b, max_normalized=epsilon)
        want = metric.distance(a, b)
        # Both report 1.0 beyond the threshold and the exact value below it.
        assert math.isclose(got, want) or (got == 1.0 and want > epsilon) \
            or (want == 1.0 and got > epsilon)

    def test_filters_disabled_still_exact(self):
        engine = private_engine(length_filter=False, bag_filter=False,
                                qgram_filter=False)
        a, b = tuple("aaaaaaaaaa"), tuple("bbbbbbbbbb")
        assert not engine.within(a, b, 0.1)
        assert engine.stats.kernel_calls == 1

    def test_stats_attribute_layers(self):
        engine = private_engine()
        # identical pair
        assert engine.within(tuple("abc"), tuple("abc"), 0.1)
        # length-pruned pair
        assert not engine.within(tuple("a"), tuple("a" * 30), 0.1)
        # kernel pair, then a cache hit for the same pair
        assert engine.within(tuple("abcdefghij"), tuple("abcdefghiX"), 0.2)
        assert engine.within(tuple("abcdefghij"), tuple("abcdefghiX"), 0.2)
        stats = engine.stats.as_dict()
        assert stats["identical"] == 1
        assert stats["length_pruned"] == 1
        assert stats["kernel_calls"] == 1
        assert stats["cache_hits"] == 1
        assert stats["pairs"] == 4

    def test_neighbourhoods_symmetry_and_count(self):
        points = [tuple("aaaaaaaaaa"), tuple("aaaaaaaaab"),
                  tuple("zzzzzzzzzz")]
        engine = private_engine()
        adjacency, comparisons = engine.neighbourhoods(points, 0.2)
        assert comparisons == 3
        assert adjacency[0] == [1]
        assert adjacency[1] == [0]
        assert adjacency[2] == []

    def test_cache_bounded(self):
        cache = PairDistanceCache(maxsize=2)
        cache.put(("a",), ("b",), 1)
        cache.put(("a",), ("c",), 1)
        cache.put(("a",), ("d",), 1)
        assert len(cache) == 2
        assert cache.get(("a",), ("b",)) is None  # evicted, oldest first
        assert cache.get(("a",), ("d",)) == 1

    def test_cache_key_unordered(self):
        cache = PairDistanceCache(maxsize=8)
        cache.put(tuple("ab"), tuple("xyz"), 3)
        assert cache.get(tuple("xyz"), tuple("ab")) == 3

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DistanceEngineConfig(qgram_size=1)
        with pytest.raises(ValueError):
            DistanceEngineConfig(workers=-1)
        with pytest.raises(ValueError):
            DistanceEngineConfig(cache_size=-1)

    def test_large_batch_is_decided_in_process(self, no_fork):
        """The engine never forks, however large the batch: 4,950 pairs of
        which 4,900 reach the bag filter (equal lengths, disjoint bags)."""
        points = []
        for group in range(50):
            base = (f"t{group}",) * 30
            points += [base, base[:-1] + ("x",)]
        engine = DistanceEngine()
        neighbours, comparisons = engine.neighbourhoods(points, 0.10)
        assert comparisons == 4950
        assert neighbours == [[index ^ 1] for index in range(100)]
        assert engine.stats.bag_pruned == 4900


def telemetry_points(seed=4242):
    generator = TelemetryGenerator(StreamConfig(
        benign_per_day=14,
        kit_daily_counts={"angler": 5, "sweetorange": 4, "nuclear": 3,
                          "rig": 3},
        seed=seed))
    import datetime

    batch = generator.generate_day(datetime.date(2014, 8, 5))
    return [ClusteredSample.from_content(s.sample_id, s.content).tokens
            for s in batch.samples]


class TestEngineBackedDBSCANEquivalence:
    """Engine-backed clustering must be byte-identical to the sequential
    metric-driven path on seeded telemetry — the acceptance criterion for
    swapping the engine into the daily loop."""

    @pytest.fixture(scope="class")
    def points(self):
        return telemetry_points()

    @pytest.mark.parametrize("epsilon", [0.02, 0.10, 0.30])
    def test_labels_identical_to_sequential(self, points, epsilon):
        sequential = DBSCAN(epsilon=epsilon, min_points=3,
                            metric=TokenEditDistance(epsilon=epsilon)
                            ).fit(points)
        engine_backed = DBSCAN(epsilon=epsilon, min_points=3,
                               engine=private_engine()).fit(points)
        assert engine_backed.labels == sequential.labels
        assert engine_backed.cluster_count == sequential.cluster_count

    @pytest.mark.parametrize("disabled", ["length_filter", "bag_filter",
                                          "qgram_filter"])
    def test_each_filter_ablated_is_identical(self, points, disabled):
        baseline = DBSCAN(epsilon=0.10, min_points=3,
                          engine=private_engine()).fit(points)
        ablated = DBSCAN(epsilon=0.10, min_points=3,
                         engine=private_engine(**{disabled: False})
                         ).fit(points)
        assert ablated.labels == baseline.labels

    def test_parallel_workers_identical(self, points):
        """``workers`` only sizes the partition pool (through
        ``KizzleConfig.resolved_backend``): partitions clustered on a
        2-wide pool must merge to the clusters the inline map produces."""
        samples = [ClusteredSample(sample_id=str(i), content="",
                                   tokens=tokens)
                   for i, tokens in enumerate(points)]

        def run(workers):
            config = KizzleConfig(
                distance=DistanceEngineConfig(workers=workers,
                                              shared_cache=False),
                backend=BackendConfig(kind="process"))
            backend = create_backend(config.resolved_backend())
            try:
                clusterer = DistributedClusterer(
                    epsilon=0.10, min_points=3,
                    engine_config=config.distance, backend=backend)
                clusters, report = clusterer.run(samples, partitions=2)
            finally:
                backend.close()
            labels = [(cluster.cluster_id, cluster.prototype.sample_id,
                       [sample.sample_id for sample in cluster.samples])
                      for cluster in clusters]
            return labels, report.map_workers

        serial, serial_width = run(1)
        parallel, parallel_width = run(2)
        assert (serial_width, parallel_width) == (1, 2)
        assert parallel == serial

    def test_distributed_clusterer_attaches_engine_stats(self, points):
        samples = [ClusteredSample(sample_id=str(i), content="",
                                   tokens=tokens)
                   for i, tokens in enumerate(points)]
        clusterer = DistributedClusterer(
            epsilon=0.10, min_points=3, machines=4,
            engine_config=DistanceEngineConfig(shared_cache=False))
        clusters, report = clusterer.run(samples, partitions=2)
        assert clusters
        assert report.distance_stats is not None
        assert report.distance_stats["pairs"] > 0
        summary = report.summary()
        assert summary["distance_pairs"] == float(
            report.distance_stats["pairs"])

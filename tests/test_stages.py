"""Tests for the stage graph (repro.core.stages) and the pipeline's graph.

The graph machinery itself is exercised with synthetic stages (validation,
provides contracts, itemized chains, wall accounting); the pipeline-facing
tests pin the day graph's shape (one graph, cold or warm) and the per-stage
walls surfaced through ``DailyResult``.
"""

from __future__ import annotations

import datetime
import hashlib

import pytest

from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.core.stages import Stage, StageGraph, StageGraphError
from repro.distance.engine import DistanceEngineConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.exec.backend import BackendConfig

D = datetime.date


class TestStageGraphMechanics:
    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(StageGraphError):
            StageGraph([Stage("a", lambda ctx: None),
                        Stage("a", lambda ctx: None)])

    def test_missing_requirement_rejected(self):
        graph = StageGraph([
            Stage("consume", lambda ctx: None, requires=("missing",))])
        with pytest.raises(StageGraphError, match="missing"):
            graph.run({"present": 1})

    def test_requirement_satisfied_by_earlier_stage(self):
        def produce(ctx):
            ctx["value"] = 2

        def consume(ctx):
            ctx["doubled"] = ctx["value"] * 2

        graph = StageGraph([
            Stage("produce", produce, provides=("value",)),
            Stage("consume", consume, requires=("value",),
                  provides=("doubled",))])
        context = {}
        graph.run(context)
        assert context["doubled"] == 4

    def test_unfulfilled_provides_contract_fails(self):
        graph = StageGraph([
            Stage("liar", lambda ctx: None, provides=("promised",))])
        with pytest.raises(StageGraphError, match="promised"):
            graph.run({})

    def test_itemized_chain_runs_depth_first(self):
        """Item i must flow through the whole chain before item i+1 starts
        — the property that preserves same-day corpus feedback between the
        label and compile stages."""
        order = []

        def first(ctx, item, carry):
            order.append(("first", item))
            return item * 10

        def second(ctx, item, carry):
            order.append(("second", item))
            ctx["out"].append(carry + item)
            return carry

        graph = StageGraph([
            Stage("setup", lambda ctx: ctx.update(items=[1, 2], out=[]),
                  provides=("items", "out")),
            Stage("first", first, over="items"),
            Stage("second", second, over="items"),
        ])
        context = {}
        graph.run(context)
        assert order == [("first", 1), ("second", 1),
                         ("first", 2), ("second", 2)]
        assert context["out"] == [11, 22]

    def test_walls_recorded_per_stage(self):
        graph = StageGraph([
            Stage("setup", lambda ctx: ctx.update(items=[1, 2, 3]),
                  provides=("items",)),
            Stage("work", lambda ctx, item, carry: None, over="items"),
        ])
        walls = graph.run({})
        assert set(walls) == {"setup", "work"}
        assert all(seconds >= 0.0 for seconds in walls.values())
        assert graph.last_walls == walls

    def test_context_stage_sub_walls_recorded_dotted(self):
        """A context stage returning ``{sub: seconds}`` gets dotted wall
        entries alongside its own measured wall (how the cluster stage
        attributes the partition pool's time inside its total)."""
        graph = StageGraph([
            Stage("setup", lambda ctx: ctx.update(items=[1]),
                  provides=("items",)),
            Stage("cluster", lambda ctx: {"map": 1.25, "reduce": 0.5}),
        ])
        walls = graph.run({})
        assert walls["cluster.map"] == 1.25
        assert walls["cluster.reduce"] == 0.5
        assert walls["cluster"] >= 0.0
        assert graph.last_walls == walls

    def test_non_mapping_stage_return_is_ignored(self):
        graph = StageGraph([Stage("quirky", lambda ctx: 42)])
        walls = graph.run({})
        assert set(walls) == {"quirky"}

    def test_describe_lists_dataflow(self):
        graph = StageGraph([
            Stage("produce", lambda ctx: None, requires=("samples",),
                  provides=("value",)),
            Stage("per_item", lambda ctx, item, carry: None, over="value"),
        ])
        text = graph.describe()
        assert "produce[samples -> value]" in text
        assert "per_item (per value)" in text
        assert graph.names() == ["produce", "per_item"]


class TestPipelineGraph:
    CANONICAL = ["shed", "cluster", "label", "compile", "finalize"]

    def test_cold_graph_shape(self):
        kizzle = Kizzle(KizzleConfig(machines=4))
        assert kizzle.day_graph().names() == self.CANONICAL

    def test_warm_graph_runs_the_cold_graphs_functions(self):
        """One day loop: the warm path is the cold graph with shedding and
        carry-forward switched on inside its stages, not substituted
        stage implementations."""
        cold = Kizzle(KizzleConfig(machines=4))
        warm = Kizzle(KizzleConfig(
            machines=4, incremental=IncrementalConfig(enabled=True)))
        assert warm.day_graph().names() == cold.day_graph().names()
        for cold_stage, warm_stage in zip(cold.day_graph().stages,
                                          warm.day_graph().stages):
            assert warm_stage.fn.__func__ is cold_stage.fn.__func__, \
                cold_stage.name

    def test_day_result_carries_stage_walls(self, small_generator):
        kizzle = Kizzle(KizzleConfig(machines=4))
        day = D(2014, 8, 5)
        batch = small_generator.generate_day(day)
        result = kizzle.process_day(
            [(s.sample_id, s.content) for s in batch.samples], day)
        assert set(result.stage_walls) == set(self.CANONICAL)
        summary = result.summary()
        for stage in self.CANONICAL:
            assert f"wall_{stage}_s" in summary


class TestOneDayLoopGolden:
    """One cold day and one warm day (it sheds and carries clusters
    forward), pinned to values captured from the commit that still had
    separate cold and warm stage implementations, a prepare stage that
    lexed warm samples through a token cache, and a floor that kept small
    pre-tokenized partitions in process.  The carry-forward charge now
    prices its probes with the token total the map reports, so
    ``total_time`` and ``stage_seconds`` hold that total to the old
    prepare-side sum, bit for bit.  The values held again when ``prepare``
    folded into ``shed``, sentinels were keyed by signature id alone and
    the per-content normal-form cache, verdict memo and exact-repeat ledger
    gave way to the day record."""

    #: sha256 of ``repr([(kit, created, pattern), ...])`` over the database.
    SIGNATURES = ("a3f2d5cfc605689c9d9205fee99d5c42"
                  "9269336ea7457fca49cc64866fb54942")
    GOLDEN = {
        # incremental: (days run, total_time, stage_seconds,
        #               (clusters, noise, shed, carried), new signatures)
        False: (1, 28.814095294982998, {}, (5, 21, 0, 0), 4),
        True: (2, 10.855242004627977,
               {"shed": 2.1549490000000002,
                "carry_forward": 2.0451316901041667}, (6, 11, 66, 5), 0),
    }

    @staticmethod
    def _run(backend, incremental, days):
        generator = TelemetryGenerator(StreamConfig(
            benign_per_day=20,
            kit_daily_counts={"angler": 24, "nuclear": 16,
                              "sweetorange": 16, "rig": 12},
            seed=20140801))
        config = KizzleConfig(
            machines=6, min_points=3, partitions=4,
            distance=DistanceEngineConfig(workers=1),
            incremental=IncrementalConfig(enabled=incremental),
            backend=backend)
        with Kizzle(config) as kizzle:
            for kit in ("nuclear", "angler", "rig", "sweetorange"):
                kizzle.seed_known_kit(
                    kit, [generator.reference_core(kit, D(2014, 7, 31))])
            results = []
            for offset in range(days):
                date = D(2014, 8, 1) + datetime.timedelta(days=offset)
                batch = generator.generate_day(date)
                results.append(kizzle.process_day(
                    [(s.sample_id, s.content) for s in batch.samples], date))
            signatures = repr([(s.kit, s.created, s.pattern)
                               for s in kizzle.database])
        return results, hashlib.sha256(signatures.encode()).hexdigest()

    @pytest.mark.parametrize("incremental", [False, True],
                             ids=["cold", "warm"])
    @pytest.mark.parametrize("backend", [
        BackendConfig(kind="serial"),
        BackendConfig(kind="process", workers=2)], ids=["serial", "process"])
    def test_day_matches_parent_commit(self, backend, incremental):
        days, total_time, stage_seconds, counts, new = \
            self.GOLDEN[incremental]
        results, signatures = self._run(backend, incremental, days)
        result = results[-1]
        assert result.timing.total_time == total_time
        assert result.timing.stage_seconds == stage_seconds
        assert (result.cluster_count, result.noise_count, result.shed_count,
                result.carried_cluster_count) == counts
        assert len(result.new_signatures) == new
        assert signatures == self.SIGNATURES
        if backend.kind == "process":
            # The pool engaged on every day, warm as well as cold.
            assert [r.timing.map_workers for r in results] == [2] * days

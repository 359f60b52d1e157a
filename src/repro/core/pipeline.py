"""The Kizzle main driver (paper, Section III).

The daily loop: break the day's samples into clusters (distributed DBSCAN
over abstract token strings), label every cluster benign or as a known kit by
unpacking its prototype and winnowing it against the seeded corpus, and for
malicious clusters whose samples are not already covered by a deployed
signature, compile a new structural signature from the packed samples.

The loop is one explicit **stage graph** (:mod:`repro.core.stages`) with one
implementation per stage::

    shed -> cluster -> label -> compile -> finalize

executed through a pluggable **execution backend** (:mod:`repro.exec`):
serial in process, a local process pool (the default), or real worker
processes over TCP.  Backends never change results — labels, signatures,
FP/FN and the paper's 50-machine virtual timeline every day's report carries
(:mod:`repro.distsim`) are identical across all three
(``tests/test_backends.py``).  Samples reach the cluster stage raw: each
partition's map lexes its own share of the day, as each of the paper's
machines does.

The **cold path** (the default) treats every day as independent.  The
**warm path** (``config.incremental.enabled``) is the same graph with
day-over-day state switched on, read inside the three stages that use it:

* ``shed`` (``shed_known``) sets aside, before any lexing, samples matched
  by a deployed signature (paper: "most of the stream is the same grayware
  every day").  Each shed group — the samples the same signature matched
  first — leaves one *sentinel* sample carrying the group's weight, so
  clustering sees the density geometry the cold path would (a sentinel of
  weight ``w`` is indistinguishable from the ``w`` exact duplicates DBSCAN
  already collapses).  Its scan is kept as the **day record**: content ->
  signatures matched at the database's generation then.  The coverage
  check before compiling, :meth:`Kizzle.detects` and the evaluation scan
  read it through :meth:`Kizzle.kits_matching`, which probes only the
  signatures deployed since; the next shed starts a new record.
* ``label`` (``carry_forward``) lets a cluster whose prototype lands within
  epsilon of one of yesterday's prototypes inherit that cluster's label
  without re-unpacking or re-winnowing (:mod:`repro.clustering.carryforward`).
  Novel clusters — and carried kit clusters whose samples a deployed
  signature no longer covers — go through the full label/compile machinery,
  so kit updates still produce new signatures the way the cold path does.
* ``finalize`` rolls the anchors forward and charges the shed and
  carry-forward work to the modelled machine pool; a cold day has nothing
  to roll or charge.

The ``label`` and ``compile`` stages are *itemized* over the day's clusters
and run depth-first per cluster: compiling cluster ``i`` feeds its unpacked
prototype back into the corpus, and labeling cluster ``i+1`` winnows
against that updated corpus — the same-day feedback the monolithic loop
had, preserved by construction (see :class:`~repro.core.stages.StageGraph`).
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.clustering.carryforward import CarryForwardIndex
from repro.clustering.partition import Cluster, ClusteredSample, \
    DistributedClusterer
from repro.core.config import KizzleConfig
from repro.core.results import ClusterReport, DailyResult, ShedRecord
from repro.core.stages import Stage, StageGraph
from repro.exec.backend import create_backend
from repro.labeling.corpus import KnownKitCorpus
from repro.labeling.labeler import ClusterLabel, ClusterLabeler
from repro.scanner.engine import ScanEngine, SignatureDatabase
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures.compiler import SignatureCompiler
from repro.signatures.signature import Signature
from repro.unpack.registry import UnpackerRegistry, default_registry


class Kizzle:
    """The signature compiler.

    Parameters
    ----------
    config:
        Pipeline settings; defaults to the paper's parameters.
    corpus:
        The seeded corpus of known unpacked kit samples.  An empty corpus is
        allowed (every cluster will be labeled benign) but pointless; use
        :meth:`seed_known_kit` to populate it.
    registry:
        Unpacker registry; defaults to the four per-kit unpackers.
    """

    def __init__(self, config: Optional[KizzleConfig] = None,
                 corpus: Optional[KnownKitCorpus] = None,
                 registry: Optional[UnpackerRegistry] = None) -> None:
        self.config = config or KizzleConfig()
        self.corpus = corpus or KnownKitCorpus(
            k=self.config.winnow_k, window=self.config.winnow_window,
            thresholds=dict(self.config.label_thresholds))
        self.registry = registry or default_registry()
        self.labeler = ClusterLabeler(self.corpus, self.registry)
        self.database = SignatureDatabase()
        self.backend = create_backend(self.config.resolved_backend())
        self.clusterer = DistributedClusterer(
            epsilon=self.config.epsilon,
            min_points=self.config.min_points,
            seed=self.config.seed,
            engine_config=self.config.distance,
            backend=self.backend,
            machines=self.config.machines)
        incremental = self.config.incremental
        # The compiler is handed the abstract token strings its cluster was
        # built from (``_report_for``) and lexes each member only as far as
        # the signature window.
        self.compiler = SignatureCompiler(self.config.signature)
        self.carry = CarryForwardIndex(
            epsilon=self.config.epsilon,
            engine=self.clusterer.engine,
            ttl_days=incremental.anchor_ttl_days,
            max_anchors=incremental.max_anchors)
        self._carry_comparisons_charged = 0
        #: The day record (see :meth:`kits_matching`): content -> the
        #: signatures the last shed's scan matched, taken as of
        #: ``_record_at = (date, database generation)``.  Empty on a cold
        #: day; each shed starts a new one.
        self._record: Dict[str, Tuple[Signature, ...]] = {}
        self._record_at: Tuple[Optional[datetime.date], int] = (None, 0)
        self.graph = self._build_day_graph()

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------
    def seed_known_kit(self, kit: str, unpacked_samples: Iterable[str]) -> None:
        """Seed the corpus with known unpacked samples of a kit."""
        self.corpus.add_many(kit, unpacked_samples)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the backend's pooled resources (idempotent).

        The partition-parallel backends keep a persistent worker pool alive
        across days; a long-lived embedding application should close the
        pipeline when done (or use it as a context manager).  Processing
        after ``close`` is safe — the pool is re-created on demand.
        """
        self.backend.close()

    def __enter__(self) -> "Kizzle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the stage graph
    # ------------------------------------------------------------------
    def _build_day_graph(self) -> StageGraph:
        """The daily pipeline as a stage graph: one implementation per
        stage, cold or warm."""
        return StageGraph([
            Stage("shed", self._stage_shed,
                  requires=("samples", "date"),
                  provides=("prepared", "sentinel_ids", "shed_records",
                            "shed_kits", "scanned_bytes")),
            Stage("cluster", self._stage_cluster,
                  requires=("samples", "date", "prepared", "sentinel_ids",
                            "shed_records"),
                  provides=("clusters", "timing", "result")),
            Stage("label", self._stage_label,
                  requires=("result", "sentinel_ids"),
                  over="clusters"),
            Stage("compile", self._stage_compile,
                  requires=("result", "date"),
                  over="clusters"),
            Stage("finalize", self._stage_finalize,
                  requires=("date", "result", "timing", "prepared",
                            "shed_kits", "scanned_bytes")),
        ])

    def day_graph(self) -> StageGraph:
        """The pipeline's stage graph (for introspection and docs)."""
        return self.graph

    # ------------------------------------------------------------------
    # the daily loop
    # ------------------------------------------------------------------
    def process_day(self, samples: Sequence[Tuple[str, str]],
                    date: datetime.date) -> DailyResult:
        """Process one day of samples.

        ``samples`` is a sequence of ``(sample_id, content)`` pairs.  The
        returned :class:`DailyResult` lists the clusters, their labels and
        any newly generated signatures; new signatures are also added to the
        deployed :attr:`database` with ``created=date``.
        """
        context: Dict[str, Any] = {"samples": samples, "date": date}
        walls = self.graph.run(context)
        result: DailyResult = context["result"]
        result.timing.wall_stage_seconds.update(walls)
        return result

    # -- shed: set known samples aside before tokenization ---------------
    def _stage_shed(self, context: Dict[str, Any]) -> None:
        """Known-sample shedding (before any lexing), and the hand-off of
        survivors and weighted sentinels to the cluster stage.

        Every shed group — keyed by the deployed signature that matched
        first — leaves one sentinel carrying the group's weight, so the
        clustering stage keeps the cold path's density geometry.  The scan
        becomes the day record, one entry per distinct content.  On a cold
        day, with ``shed_known`` off, or with nothing deployed, every sample
        survives and the record stays empty.

        Samples reach the cluster stage raw: lexing is part of each
        partition's map (``ensure_tokens`` is deterministic, so *where* the
        lexer runs never changes results), which lets a partition-parallel
        backend spread it over its pool.
        """
        date = context["date"]
        survivors: List[ClusteredSample] = []
        sentinels: Dict[str, ClusteredSample] = {}
        shed: List[ShedRecord] = []
        shed_kits: Set[str] = set()
        scanned_bytes = 0
        self._record = record = {}
        self._record_at = (date, self.database.generation)
        incremental = self.config.incremental
        shedding = incremental.enabled and incremental.shed_known \
            and len(self.database) > 0
        engine = self.scan_engine()
        for sample_id, content in context["samples"]:
            if shedding:
                scanned_bytes += len(content)
                matched = record.get(content)
                if matched is None:
                    matched = record[content] = tuple(engine.scan(
                        sample_id, content, as_of=date).matched_signatures)
                if matched:
                    first = matched[0]
                    shed.append(ShedRecord(sample_id=sample_id, kit=first.kit))
                    shed_kits.add(first.kit)
                    # The group's first sample names its sentinel; later
                    # samples only add weight.
                    group = sentinels.get(first.signature_id)
                    if group is None:
                        sentinels[first.signature_id] = ClusteredSample(
                            f"sentinel-{len(sentinels)}-{sample_id}", content)
                    else:
                        group.weight += 1
                    continue
            survivors.append(ClusteredSample(sample_id, content))
        context.update(
            prepared=survivors + list(sentinels.values()),
            sentinel_ids={sample.sample_id for sample in sentinels.values()},
            shed_records=shed, shed_kits=shed_kits,
            scanned_bytes=scanned_bytes)

    # -- cluster: partition + DBSCAN + merge through the backend ----------
    def _stage_cluster(self, context: Dict[str, Any]
                       ) -> Optional[Dict[str, float]]:
        """Cluster survivors and sentinels together.  Sentinel weights feed
        the DBSCAN density requirement and prototype selection, so the
        result matches clustering the full batch.

        Every partition runs as one map task through the backend's single
        transport seam (a worker pool or cluster when the batch is worth
        shipping, in process otherwise); when the map was shipped, its
        measured wall clock is surfaced as the ``cluster.map`` sub-wall.
        """
        clusters, timing = self.clusterer.run(
            context["prepared"], partitions=self.config.partitions)
        sentinel_ids = context["sentinel_ids"]
        survivors = len(context["prepared"]) - len(sentinel_ids)
        result = DailyResult(date=context["date"], timing=timing,
                             sample_count=len(context["samples"]),
                             shed=context["shed_records"])
        result.backend = self.backend.name
        # Counted per member, not per distinct id: two samples may share an
        # id, and each is clustered or noise on its own.
        members = sum(1 for cluster in clusters
                      for sample in cluster.samples
                      if sample.sample_id not in sentinel_ids)
        result.noise_count = survivors - members
        context["clusters"] = clusters
        context["timing"] = timing
        context["result"] = result
        if timing.map_workers > 1:
            return {"map": timing.map_wall_seconds}
        return None

    # -- label: inherit from yesterday's anchors, or unpack and winnow ----
    def _stage_label(self, context: Dict[str, Any], cluster: Cluster,
                     carry: Any) -> Tuple[ClusterLabel, bool]:
        incremental = self.config.incremental
        if incremental.enabled and incremental.carry_forward:
            anchor = self.carry.match(cluster.prototype.tokens)
            if anchor is not None:
                result: DailyResult = context["result"]
                result.carried_cluster_count += 1
                result.absorbed_count += sum(
                    sample.weight for sample in cluster.samples
                    if sample.sample_id not in context["sentinel_ids"])
                return ClusterLabel(
                    kit=anchor.kit, overlap=anchor.overlap,
                    best_family=anchor.best_family, unpacked="",
                    layers=anchor.layers), True
        return self.labeler.label_cluster(cluster), False

    # -- compile: generate signatures for uncovered malicious clusters ----
    def _stage_compile(self, context: Dict[str, Any], cluster: Cluster,
                       carry: Tuple[ClusterLabel, bool]) -> ClusterReport:
        label, carried = carry
        report = self._report_for(cluster, label, context["date"],
                                  carried=carried)
        result: DailyResult = context["result"]
        result.clusters.append(report)
        if report.signature is not None:
            result.new_signatures.append(report.signature)
        return report

    # -- finalize: bookkeeping and backend stage accounting ---------------
    def _stage_finalize(self, context: Dict[str, Any]) -> None:
        """Roll the day's state forward and account the warm-only stages.

        The carry-forward anchors advance, and the shed/carry work is
        charged to the modelled machine pool so the virtual daily
        wall-clock stays honest: every byte the shedding stage *scanned* is
        charged (survivors that failed the scan cost real work too — the
        warm path only gets credit for work it truly sheds), and anchor
        probes are charged at banded-DP cost over the day's average token
        length, which the map reports as a token total.  A cold day carries
        no state across days and charges nothing.
        """
        incremental = self.config.incremental
        if not incremental.enabled:
            return
        date = context["date"]
        result: DailyResult = context["result"]
        timing = context["timing"]
        if incremental.carry_forward:
            if context["shed_kits"]:
                self.carry.refresh_kits(sorted(context["shed_kits"]), date)
            self.carry.update(result.clusters, date)

        prepared = context["prepared"]
        average_length = 1.0
        if prepared:
            average_length = timing.token_total / len(prepared)
        self.backend.simulate_stage(timing, "shed",
                                    float(context["scanned_bytes"]))
        probes = self.carry.comparisons - self._carry_comparisons_charged
        self._carry_comparisons_charged = self.carry.comparisons
        self.backend.simulate_stage(
            timing, "carry_forward",
            probes * max(1.0, self.config.epsilon * average_length)
            * average_length)

    # ------------------------------------------------------------------
    # labeling/compilation helpers
    # ------------------------------------------------------------------
    def _report_for(self, cluster: Cluster, label: ClusterLabel,
                    date: datetime.date, carried: bool) -> ClusterReport:
        """Build the report for one cluster, compiling a signature when the
        cluster is malicious and not already covered.

        A carried kit cluster that turns out *not* to be covered (the kit
        changed under the anchor) is re-labeled for real first — the corpus
        feedback needs a genuine unpacked prototype, and the re-label also
        revalidates the inherited verdict before a signature ships.
        """
        if label.kit is None:
            return ClusterReport(cluster=cluster, label=label)
        contents = cluster.contents()
        if self.config.reuse_existing_signatures and \
                self._already_covered(contents, label.kit, date):
            return ClusterReport(cluster=cluster, label=label)
        if carried:
            label = self.labeler.label_cluster(cluster)
            if label.kit is None:
                return ClusterReport(cluster=cluster, label=label)
        report = ClusterReport(cluster=cluster, label=label)
        signature = self.compiler.compile_cluster(
            contents, label.kit, date, token_strings=cluster.token_strings())
        if signature is not None:
            report.signature = signature
            self.database.add(signature)
            self.corpus.add(label.kit, label.unpacked, collected=date,
                            histogram=label.histogram)
        return report

    # ------------------------------------------------------------------
    # signature management and scanning
    # ------------------------------------------------------------------
    def _already_covered(self, contents: Sequence[str], kit: str,
                         date: datetime.date) -> bool:
        """Whether a deployed signature of ``kit`` matches every content."""
        return all(kit in self.kits_matching(content, date, kit=kit)
                   for content in contents)

    def scan_engine(self) -> ScanEngine:
        """A scan engine over the signatures generated so far."""
        return ScanEngine(self.database)

    def kits_matching(self, content: str,
                      as_of: Optional[datetime.date] = None,
                      kit: Optional[str] = None,
                      normalized: Optional[str] = None) -> Set[str]:
        """The kits whose signatures deployed as of ``as_of`` match
        ``content`` (only ``kit`` is probed when given).

        Content the day's shed scanned starts from the day record's verdict
        and is probed only against signatures deployed since, newest first,
        the first hit per kit; content not in the record, or another
        ``as_of``, starts from nothing, which is a full scan.
        ``normalized`` is the content's normal form when the caller holds
        it; otherwise it is derived only if a signature needs probing.
        """
        record_date, generation = self._record_at
        matched = self._record.get(content) if as_of == record_date else None
        if matched is None:
            matched, generation = (), 0
        found = {signature.kit for signature in matched
                 if kit is None or signature.kit == kit}
        probes: Dict[str, List[Signature]] = {}
        for signature in reversed(self.database.added_since(generation)):
            if signature.kit in found \
                    or (kit is not None and signature.kit != kit) \
                    or (as_of is not None and signature.created > as_of):
                continue
            probes.setdefault(signature.kit, []).append(signature)
        if probes:
            engine = self.scan_engine()
            if normalized is None:
                normalized = normalize_for_scan(content)
            found.update(name for name, signatures in probes.items()
                         if engine.first_match(normalized, signatures)
                         is not None)
        return found

    def detects(self, content: str,
                as_of: Optional[datetime.date] = None) -> bool:
        """Whether any deployed signature matches the sample."""
        return bool(self.kits_matching(content, as_of))

"""The four workloads of the Kizzle day-loop benchmark.

Every workload is a closed loop with one client — the nightly job, or one
scanning thread — and has two timed sides per pass:

* the **process side**: samples in, signatures deployed (``process_day``
  for the three pipeline workloads; compiling today's signature update for
  ``scan_fleet``);
* the **scan side**: every document of the pass scanned once with the
  signatures now deployed, by a fresh engine that has none of the
  pipeline's caches, one timed ``ScanEngine.scan`` call each.

Inputs come from ``repro.ekgen`` and the ``--seed``; the program is handed
``(sample_id, content)`` pairs only.  Generation and state building are
set-up and never run inside a timed region.  Kit volumes carry no per-seed
jitter, so every seed gives the same input *sizes* and only the contents
change: the regime a workload is in (what is shed, what is compiled) must
not depend on the seed.

All pipelines run single-process on the ``distsim`` backend, which also
reproduces the paper's 50-machine virtual timeline.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.pipeline import Kizzle
from repro.core.results import DailyResult
from repro.distance.engine import DistanceEngineConfig
from repro.ekgen.telemetry import DailyBatch, StreamConfig, TelemetryGenerator
from repro.evalharness.metrics import score_day
from repro.exec.backend import BackendConfig
from repro.exec.wire import FrameCodec
from repro.clustering.partition import ClusteredSample, PartitionMapTask
from repro.scanner.engine import ScanEngine, SignatureDatabase
from repro.signatures.compiler import SignatureCompiler

from bench.measure import measured_region, per_second, ratio

KITS = ("nuclear", "sweetorange", "angler", "rig")
MONTH_START = datetime.date(2014, 8, 1)
MONTH_END = datetime.date(2014, 8, 31)
ONE_DAY = datetime.timedelta(days=1)
#: Days before the window whose unpacked kit cores seed the corpus (as
#: ``MonthExperiment.seed`` does).
SEED_DAYS = 5
#: The paper's headline quality (Section IV): a pass beyond either is wrong.
MAX_FN_RATE = 0.05
MAX_FP_RATE = 0.0003

STAGES = ("shed", "prepare", "cluster", "label", "compile", "finalize")
VIRTUAL_PHASES = ("scatter", "map", "gather", "reduce", "shed",
                  "carry_forward")
DISTANCE_COUNTS = ("pairs", "identical", "length_pruned", "bag_pruned",
                   "qgram_pruned", "cache_hits", "kernel_calls")
#: The per-layer metrics a pass fills without a tracer; a workload that does
#: not reach a layer leaves its metrics at zero.
UNTRACED_LAYER_METRICS = (
    *(f"core.{stage}_s" for stage in STAGES), "core.stage_residual_s",
    "core.shed_fraction", "core.shed_by_signature",
    "core.shed_by_known_content", "core.sentinels",
    "core.prepared_lexer_runs", "core.prepared_hit_ratio", "core.clusters",
    "core.carried_clusters", "core.noise", "core.new_signatures",
    *(f"distance.{name}" for name in DISTANCE_COUNTS), "distance.kernel_ratio",
    *(f"distsim.virtual_{phase}_s" for phase in VIRTUAL_PHASES),
    "distsim.virtual_minutes", "signatures.compiled", "signatures.rejected",
    "scanner.signatures_deployed", "scanner.exact_docs_per_s",
)


def kizzle_config(warm: bool) -> KizzleConfig:
    """The pipeline configuration every workload runs."""
    return KizzleConfig(
        incremental=IncrementalConfig(enabled=warm),
        # One core and a pair cache private to the pipeline: the default
        # process-wide cache would hand repeat N the distances repeat N-1
        # computed, and an auto-sized pool would make the code path depend
        # on the host's core count.
        distance=DistanceEngineConfig(workers=1, shared_cache=False),
        backend=BackendConfig(kind="distsim", workers=1,
                              partition_parallel=False))


def fixed_volume(config: StreamConfig) -> StreamConfig:
    """The same stream without per-day volume jitter."""
    return dataclasses.replace(config, count_jitter=0.0)


def sample_pairs(batch: DailyBatch) -> List[Tuple[str, str]]:
    return [(sample.sample_id, sample.content) for sample in batch.samples]


@dataclasses.dataclass
class PassResult:
    """What one pass over a workload measured and checked."""

    process_wall: float
    samples: int
    scan_latencies: List[float]
    #: ``process_day`` wall per measured day (empty for ``scan_fleet``).
    day_walls: List[float]
    #: Per-layer metrics that need no tracer, by their final names.
    layer: Dict[str, float]
    #: One operation = one sample's final verdict.
    attempted: int
    failed: int
    false_positives: int
    false_negatives: int
    malicious: int
    benign: int
    digest: str

    @property
    def quality_ok(self) -> bool:
        return ratio(self.false_negatives, self.malicious) <= MAX_FN_RATE \
            and ratio(self.false_positives, self.benign) <= MAX_FP_RATE


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        #: Filled by :meth:`build_inputs`.
        self.generate_seconds = 0.0
        self.input_samples = 0
        self.input_bytes = 0

    def sized(self, count: int, floor: int) -> int:
        """``count`` scaled by ``--scale``, never below ``floor``."""
        return max(floor, int(count * self.scale))

    def build_inputs(self) -> None:
        """Generate the inputs from the seed (once per run; set-up)."""
        raise NotImplementedError

    def prepare(self) -> Any:
        """Fresh program state for one pass (set-up, timed per pass)."""
        raise NotImplementedError

    def run_pass(self, state: Any) -> PassResult:
        raise NotImplementedError

    def pipeline_of(self, state: Any) -> Optional[Kizzle]:
        """The pipeline inside ``state``, for the tracer to wrap."""
        return None

    def close(self, state: Any) -> None:
        """Release what :meth:`prepare` opened."""

    def _note_inputs(self, batches: Sequence[DailyBatch],
                     started: float) -> None:
        self.generate_seconds = time.perf_counter() - started
        self.input_samples = sum(len(batch.samples) for batch in batches)
        self.input_bytes = sum(len(sample.content) for batch in batches
                               for sample in batch.samples)


def timed_scan(engine: ScanEngine, pairs: Sequence[Tuple[str, str]],
               as_of: Optional[datetime.date]
               ) -> Tuple[Dict[str, set], List[float]]:
    """Scan every document once, timing each ``scan`` call."""
    detections: Dict[str, set] = {}
    latencies: List[float] = []
    clock = time.perf_counter
    with measured_region():
        for sample_id, content in pairs:
            started = clock()
            result = engine.scan(sample_id, content, as_of=as_of)
            latencies.append(clock() - started)
            detections[sample_id] = result.kits
    return detections, latencies


# ----------------------------------------------------------------------
# the three pipeline workloads
# ----------------------------------------------------------------------
class PipelineWorkload(Workload):
    """Seed the corpus, process the warm-up days (set-up), then per
    measured day: ``process_day`` (timed), scan the day's batch as a
    consumer of the deployed signatures would (each call timed), score
    against ground truth.

    The scan side uses a fresh engine over ``kizzle.database`` in the mode
    the pipeline deploys for — fast on the warm path, exact on the cold one —
    and none of the pipeline's caches.  ``kizzle.scan_engine()`` shares the
    pipeline's verdict memo, and what a memo-assisted scan of the same day
    costs depends on whether a signature happened to deploy that day: over a
    month that moved the throughput by 15 % between seeds.
    """

    warm = True

    @property
    def scan_mode(self) -> str:
        return "fast" if self.warm else "exact"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.generator: Optional[TelemetryGenerator] = None
        self.warmup: List[DailyBatch] = []
        self.days: List[DailyBatch] = []
        self.pairs: Dict[datetime.date, List[Tuple[str, str]]] = {}
        self.truth: Dict[datetime.date, Dict[str, Optional[str]]] = {}

    def _set_days(self, generator: TelemetryGenerator,
                  warmup: List[DailyBatch], days: List[DailyBatch],
                  started: float) -> None:
        self.generator, self.warmup, self.days = generator, warmup, days
        for batch in warmup + days:
            self.pairs[batch.date] = sample_pairs(batch)
        for batch in days:
            self.truth[batch.date] = {sample.sample_id: sample.kit
                                      for sample in batch.samples}
        self._note_inputs(warmup + days, started)

    def prepare(self) -> Kizzle:
        kizzle = Kizzle(kizzle_config(self.warm))
        first = (self.warmup or self.days)[0].date
        for kit in KITS:
            kizzle.seed_known_kit(kit, [
                self.generator.reference_core(kit, first - offset * ONE_DAY)
                for offset in range(1, SEED_DAYS + 1)])
        for batch in self.warmup:
            kizzle.process_day(self.pairs[batch.date], batch.date)
        return kizzle

    def pipeline_of(self, state: Kizzle) -> Kizzle:
        return state

    def close(self, state: Kizzle) -> None:
        state.close()

    def run_pass(self, kizzle: Kizzle) -> PassResult:
        engine_stats = kizzle.clusterer.engine.stats
        distance_before = engine_stats.as_dict()
        compiled_before = kizzle.compiler.compiled_count
        rejected_before = kizzle.compiler.rejected_count
        digest = hashlib.sha256()
        day_walls: List[float] = []
        latencies: List[float] = []
        layer = dict.fromkeys(UNTRACED_LAYER_METRICS, 0.0)
        samples = shed = failed = false_positives = false_negatives = 0
        malicious = benign = prepared_hits = prepared_lookups = 0

        def add(name: str, value: float) -> None:
            layer[name] += value

        for batch in self.days:
            date, pairs = batch.date, self.pairs[batch.date]
            with measured_region():
                started = time.perf_counter()
                result = kizzle.process_day(pairs, date)
                wall = time.perf_counter() - started
            day_walls.append(wall)
            samples += len(pairs)
            detections, day_latencies = timed_scan(
                ScanEngine(kizzle.database, mode=self.scan_mode), pairs, date)
            latencies.extend(day_latencies)
            metrics = score_day(self.truth[date], detections)

            walls = result.stage_walls
            for stage in STAGES:
                add(f"core.{stage}_s", walls.get(stage, 0.0))
            add("core.stage_residual_s",
                wall - sum(walls.get(stage, 0.0) for stage in STAGES))
            by_signature = sum(1 for record in result.shed
                               if record.reason == "signature")
            add("core.shed_by_signature", by_signature)
            add("core.shed_by_known_content",
                result.shed_count - by_signature)
            prepared = result.prepared_stats
            add("core.prepared_lexer_runs", prepared.get("raw_misses", 0))
            prepared_hits += sum(count for name, count in prepared.items()
                                 if name.endswith("_hits"))
            prepared_lookups += sum(prepared.values())
            # Every survivor and every sentinel is looked up once in the
            # abstract-token table by the warm prepare stage.
            token_lookups = prepared.get("tokens_hits", 0) \
                + prepared.get("tokens_misses", 0)
            if token_lookups:
                add("core.sentinels",
                    token_lookups - (len(pairs) - result.shed_count))
            shed += result.shed_count
            add("core.clusters", result.cluster_count)
            add("core.carried_clusters", result.carried_cluster_count)
            add("core.noise", result.noise_count)
            add("core.new_signatures", len(result.new_signatures))
            timing = result.timing
            for phase in ("scatter", "map", "gather", "reduce"):
                add(f"distsim.virtual_{phase}_s",
                    getattr(timing, f"{phase}_time"))
            for phase in ("shed", "carry_forward"):
                add(f"distsim.virtual_{phase}_s",
                    timing.stage_seconds.get(phase, 0.0))
            layer["distsim.virtual_minutes"] = max(
                layer["distsim.virtual_minutes"], timing.total_time / 60.0)

            failed += unaccounted(result, pairs)
            confusion = metrics.confusion
            false_positives += confusion.false_positives
            false_negatives += confusion.false_negatives
            malicious += confusion.malicious_total
            benign += confusion.benign_total
            for signature in result.new_signatures:
                digest.update(repr((signature.kit, signature.created,
                                    signature.pattern)).encode("utf-8"))
            digest.update(repr((
                date, result.cluster_count, result.shed_count,
                result.noise_count, confusion.false_positives,
                confusion.false_negatives)).encode("utf-8"))

        layer["core.shed_fraction"] = ratio(shed, samples)
        layer["core.prepared_hit_ratio"] = ratio(prepared_hits,
                                                 prepared_lookups)
        distance_after = engine_stats.as_dict()
        for name in DISTANCE_COUNTS:
            layer[f"distance.{name}"] = \
                distance_after[name] - distance_before[name]
        layer["distance.kernel_ratio"] = ratio(
            layer["distance.kernel_calls"], layer["distance.pairs"])
        layer["signatures.compiled"] = \
            kizzle.compiler.compiled_count - compiled_before
        layer["signatures.rejected"] = \
            kizzle.compiler.rejected_count - rejected_before
        layer["scanner.signatures_deployed"] = len(kizzle.database)
        if self.scan_mode == "exact":
            layer["scanner.exact_docs_per_s"] = per_second(
                len(latencies), sum(latencies))
        return PassResult(
            process_wall=sum(day_walls), samples=samples,
            scan_latencies=latencies, day_walls=day_walls, layer=layer,
            attempted=samples, failed=failed,
            false_positives=false_positives,
            false_negatives=false_negatives, malicious=malicious,
            benign=benign, digest=digest.hexdigest())


def unaccounted(result: DailyResult, pairs: Sequence[Tuple[str, str]]) -> int:
    """Samples the day's result lost or counted twice: every input sample is
    shed, clustered, or noise, exactly once."""
    day_ids = {sample_id for sample_id, _content in pairs}
    clustered = {sample.sample_id for report in result.clusters
                 for sample in report.cluster.samples
                 if sample.sample_id in day_ids}
    return abs(len(pairs) - (result.shed_count + len(clustered)
                             + result.noise_count))


class SteadyDay(PipelineWorkload):
    name = "steady_day"
    warm = True
    #: The warm-up day is kit-rich (12 samples of each kit) so that every
    #: kit gets a signature general enough to shed the whole of the
    #: measured day, whatever the seed: with the stream's own prevalence a
    #: 104-sample warm-up leaves RIG (4 samples) without a cluster on about
    #: half the seeds, and the measured day then flips between "lex 46 RIG
    #: pages and compile" and "shed everything" (a 3x change in wall).
    #: August 1 is also the day RIG's packer rolls out, and it is the mix of
    #: old- and new-version pages in one cluster that makes RIG's signature
    #: cover the next day; the roll-out share is set to one half so that 12
    #: pages practically never (2 x 0.5^12) all come from one version — at
    #: the stream's 0.35 that happened on 1 seed in 41.
    WARMUP_KIT_SAMPLES = 12
    WARMUP_BENIGN = 30
    WARMUP_ROLLOUT_SHARE = 0.5

    def build_inputs(self) -> None:
        started = time.perf_counter()
        warm_stream = StreamConfig(
            benign_per_day=self.sized(self.WARMUP_BENIGN, 5),
            kit_daily_counts={kit: self.sized(self.WARMUP_KIT_SAMPLES, 3)
                              for kit in KITS},
            count_jitter=0.0, transition_fraction=self.WARMUP_ROLLOUT_SHARE,
            seed=self.seed)
        warmup = TelemetryGenerator(warm_stream).generate_day(MONTH_START)
        generator = TelemetryGenerator(fixed_volume(StreamConfig.paper_scale(
            self.sized(1200, 40), seed=self.seed)))
        day = generator.generate_day(MONTH_START + ONE_DAY)
        self._set_days(generator, [warmup], [day], started)


class ColdDay(PipelineWorkload):
    name = "cold_day"
    warm = False

    def build_inputs(self) -> None:
        started = time.perf_counter()
        generator = TelemetryGenerator(fixed_volume(StreamConfig.paper_scale(
            self.sized(200, 30), seed=self.seed)))
        day = generator.generate_day(MONTH_START + ONE_DAY)
        self._set_days(generator, [], [day], started)


class MonthReplay(PipelineWorkload):
    name = "month_replay"
    warm = True
    #: Daily volumes.  The three low-volume kits get 12 samples a day where
    #: the stream's Figure-14 prevalence gives them 4 to 8: at that volume
    #: their signatures, compiled from a handful of samples, cover the next
    #: day's samples on some seeds and not on others, and a month then
    #: costs 10 s or 22 s (a daily recompile plus ~110 ms of lexing per
    #: unshed RIG page) depending on the seed alone.
    BENIGN_PER_DAY = 60
    KIT_DAILY_COUNTS = {"angler": 26, "sweetorange": 12, "nuclear": 12,
                        "rig": 12}

    def build_inputs(self) -> None:
        started = time.perf_counter()
        generator = TelemetryGenerator(StreamConfig(
            benign_per_day=self.sized(self.BENIGN_PER_DAY, 1),
            kit_daily_counts={kit: self.sized(count, 1) for kit, count
                              in self.KIT_DAILY_COUNTS.items()},
            count_jitter=0.0, seed=self.seed))
        days = list(generator.generate_range(MONTH_START, MONTH_END))
        self._set_days(generator, [], days, started)


# ----------------------------------------------------------------------
# the read side
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LabelledCluster:
    kit: str
    version_date: datetime.date
    contents: List[str]


class ScanFleet(Workload):
    name = "scan_fleet"
    SCAN_DAY = datetime.date(2014, 8, 29)
    #: Samples per labelled cluster: the versions current on the scan day
    #: (compiled in the pass) and the superseded ones (compiled in set-up;
    #: they only have to be there to be probed).
    CURRENT_CLUSTER = 10
    HISTORICAL_CLUSTER = 4

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.pairs: List[Tuple[str, str]] = []
        self.truth: Dict[str, Optional[str]] = {}
        self.exact_subsample: List[Tuple[str, str]] = []
        self.current: List[LabelledCluster] = []
        self.historical_signatures: list = []

    def build_inputs(self) -> None:
        started = time.perf_counter()
        generator = TelemetryGenerator(fixed_volume(StreamConfig.paper_scale(
            self.sized(2000, 40), seed=self.seed)))
        batch = generator.generate_day(self.SCAN_DAY)
        historical: List[LabelledCluster] = []
        for kit in KITS:
            dates = sorted({MONTH_START, *generator.timeline.packer_change_dates(
                kit, start=MONTH_START, end=MONTH_END)})
            for index, version_date in enumerate(dates):
                until = dates[index + 1] if index + 1 < len(dates) \
                    else MONTH_END + ONE_DAY
                is_current = version_date <= self.SCAN_DAY < until
                size = self.sized(self.CURRENT_CLUSTER if is_current
                                  else self.HISTORICAL_CLUSTER, 3)
                # Samples spread over the days the version was served, so
                # what rotates daily inside a version is generalised.
                rng = random.Random(f"{self.seed}-{kit}-{version_date}")
                contents = [
                    generator.kits[kit].generate(
                        version_date + (served % (until - version_date).days)
                        * ONE_DAY, rng).content
                    for served in range(size)]
                (self.current if is_current else historical).append(
                    LabelledCluster(kit, version_date, contents))
        self.pairs = sample_pairs(batch)
        self.truth = {sample.sample_id: sample.kit
                      for sample in batch.samples}
        self.exact_subsample = random.Random(self.seed).sample(
            self.pairs, min(len(self.pairs), self.sized(100, 10)))
        self._note_inputs([batch], started)
        compiler = SignatureCompiler()
        compiled = [compiler.compile_cluster(cluster.contents, cluster.kit,
                                             cluster.version_date)
                    for cluster in historical]
        self.historical_signatures = [signature for signature in compiled
                                      if signature is not None]
        for signature in self.historical_signatures:
            # Lazy set-up (regex compilation, anchor extraction) belongs to
            # set-up, not to the first measured pass.
            signature.compiled, signature.literal_anchor

    def prepare(self) -> SignatureDatabase:
        return SignatureDatabase(self.historical_signatures)

    def run_pass(self, database: SignatureDatabase) -> PassResult:
        compiler = SignatureCompiler()
        with measured_region():
            started = time.perf_counter()
            for cluster in self.current:
                signature = compiler.compile_cluster(
                    cluster.contents, cluster.kit, cluster.version_date)
                if signature is not None:
                    database.add(signature)
            process_wall = time.perf_counter() - started
        detections, latencies = timed_scan(
            ScanEngine(database, mode="fast"), self.pairs, self.SCAN_DAY)
        exact = ScanEngine(database, mode="exact")
        with measured_region():
            started = time.perf_counter()
            exact_kits = {sample_id: exact.scan(sample_id, content,
                                                as_of=self.SCAN_DAY).kits
                          for sample_id, content in self.exact_subsample}
            exact_wall = time.perf_counter() - started
        disagreements = sum(1 for sample_id, kits in exact_kits.items()
                            if kits != detections[sample_id])
        confusion = score_day(self.truth, detections).confusion
        digest = hashlib.sha256()
        for signature in database:
            digest.update(repr((signature.kit, signature.created,
                                signature.pattern)).encode("utf-8"))
        digest.update(repr((
            len(self.pairs), sum(1 for kits in detections.values() if kits),
            confusion.false_positives, confusion.false_negatives,
            disagreements)).encode("utf-8"))
        layer = dict.fromkeys(UNTRACED_LAYER_METRICS, 0.0)
        layer.update({
            "signatures.compiled": compiler.compiled_count,
            "signatures.rejected": compiler.rejected_count,
            "scanner.signatures_deployed": len(database),
            "scanner.exact_docs_per_s": per_second(
                len(self.exact_subsample), exact_wall),
        })
        return PassResult(
            process_wall=process_wall,
            samples=sum(len(cluster.contents) for cluster in self.current),
            scan_latencies=latencies, day_walls=[], layer=layer,
            attempted=len(self.pairs), failed=disagreements,
            false_positives=confusion.false_positives,
            false_negatives=confusion.false_negatives,
            malicious=confusion.malicious_total,
            benign=confusion.benign_total, digest=digest.hexdigest())


WORKLOADS = {cls.name: cls
             for cls in (SteadyDay, ColdDay, MonthReplay, ScanFleet)}


def wire_probe(seconds: float) -> Dict[str, float]:
    """Round-trip one real ``PartitionMapTask`` through ``FrameCodec`` (HMAC
    and allow-listed unpickler intact) for about ``seconds``.

    Informational: the multi-process and TCP transports stay out of the
    end-to-end metrics because they cannot repeat within a tenth on two
    shared cores, but the frame codec they are built on can be timed alone.
    With ``seconds`` of 0 nothing runs and the metrics are zero.
    """
    if seconds <= 0:
        return {"exec.wire_frames_per_s": 0.0, "exec.wire_mb_per_s": 0.0,
                "exec.wire_frame_bytes": 0.0}
    generator = TelemetryGenerator(fixed_volume(
        StreamConfig.paper_scale(50, seed=1)))
    batch = generator.generate_day(MONTH_START)
    task = PartitionMapTask(
        index=0,
        samples=[ClusteredSample.from_content(sample.sample_id,
                                              sample.content)
                 for sample in batch.samples[:20]],
        epsilon=0.10, min_points=3,
        engine_config=DistanceEngineConfig(workers=1, shared_cache=False))
    sender, receiver = FrameCodec(), FrameCodec()
    frames = frame_bytes = 0
    started = time.perf_counter()
    while True:
        frame = sender.encode(task)
        decoded = receiver.decode(frame)
        if len(decoded.samples) != len(task.samples):
            raise RuntimeError("wire probe: decoded task differs")
        frames += 1
        frame_bytes = len(frame)
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            break
    return {
        "exec.wire_frames_per_s": frames / elapsed,
        "exec.wire_mb_per_s": frames * frame_bytes / elapsed / 1e6,
        "exec.wire_frame_bytes": float(frame_bytes),
    }

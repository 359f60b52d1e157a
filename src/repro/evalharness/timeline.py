"""The month-long Kizzle-vs-AV experiment (paper, Section IV).

:class:`MonthExperiment` drives the full comparison:

1. Kizzle's corpus is seeded with unpacked kit cores captured *before* the
   study window (the paper seeds Kizzle with existing unpacked samples).
2. For every day of the window, the synthetic telemetry batch is generated,
   Kizzle processes it (cluster → label → generate signatures) and both
   Kizzle's signature set and the simulated commercial AV scan the day's
   samples.  Kizzle scans with the signatures available at the end of that
   day's run (the paper's pipeline finishes within ~90 minutes, i.e. same
   day); the AV scans with whatever rules its analysts have released by that
   date.
3. Per-day and aggregate FP/FN metrics are recorded (Figures 6, 13, 14),
   along with signature-length series (Figure 12) and per-day cluster counts
   (the "280 to 1,200 clusters per day" observation).

When the Kizzle configuration enables the incremental warm path
(``kizzle.incremental.enabled``), the experiment runs warm end to end: the
pipeline sheds known samples and carries clusters forward day over day.
Either way the scan stage derives each sample's normal form once and hands
that string to both engines; Kizzle's side reads the pipeline's day record
(:meth:`~repro.core.pipeline.Kizzle.kits_matching`), so content its shed
already scanned is probed only against the signatures deployed since.  A
warm day therefore normalizes each content at most twice: once in shed and
once here.  The recorded FP/FN metrics are identical to a cold run on the
synthetic stream, which ``tests/paper/test_perf_incremental_month.py``
asserts.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.config import KizzleConfig
from repro.core.pipeline import Kizzle
from repro.core.results import DailyResult
from repro.core.stages import Stage, StageGraph
from repro.ekgen.telemetry import StreamConfig, TelemetryGenerator
from repro.evalharness.groundtruth import GroundTruth
from repro.evalharness.metrics import DayMetrics, KitCounts, score_day
from repro.scanner.avbaseline import SimulatedCommercialAV
from repro.scanner.normalizer import normalize_for_scan


@dataclass
class ExperimentConfig:
    """Configuration of the month-long experiment."""

    start: datetime.date = datetime.date(2014, 8, 1)
    end: datetime.date = datetime.date(2014, 8, 31)
    #: Days (before ``start``) whose unpacked cores seed Kizzle's corpus.
    seed_days: int = 5
    stream: StreamConfig = field(default_factory=StreamConfig)
    kizzle: KizzleConfig = field(default_factory=KizzleConfig)
    kits: List[str] = field(default_factory=lambda: [
        "nuclear", "sweetorange", "angler", "rig"])


@dataclass
class DayRecord:
    """Everything recorded for one day of the experiment."""

    date: datetime.date
    sample_count: int
    malicious_count: int
    benign_count: int
    cluster_count: int
    malicious_cluster_count: int
    new_signatures: int
    kizzle: DayMetrics
    av: DayMetrics
    #: Length (characters) of the newest deployed Kizzle signature per kit.
    signature_lengths: Dict[str, int] = field(default_factory=dict)
    processing_minutes: float = 0.0
    #: Samples the warm path shed as already-known (0 on the cold path).
    shed_count: int = 0
    #: Measured wall seconds of the experiment's own stage graph
    #: (process / scan / evaluate), plus the pipeline's nested per-stage
    #: walls under ``process.<stage>``.
    stage_walls: Dict[str, float] = field(default_factory=dict)


@dataclass
class MonthlyReport:
    """Aggregated outcome of the experiment."""

    config: ExperimentConfig
    days: List[DayRecord] = field(default_factory=list)
    ground_truth: GroundTruth = field(default_factory=GroundTruth)
    av_release_dates: List[datetime.date] = field(default_factory=list)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def kizzle_counts(self) -> KitCounts:
        counts = KitCounts()
        for day in self.days:
            counts = counts.merge(day.kizzle.per_kit)
        return counts

    def av_counts(self) -> KitCounts:
        counts = KitCounts()
        for day in self.days:
            counts = counts.merge(day.av.per_kit)
        return counts

    def overall_rates(self) -> Dict[str, float]:
        """The headline numbers (paper: Kizzle FP < 0.03%, FN < 5%)."""
        kizzle_fp = sum(day.kizzle.confusion.false_positives for day in self.days)
        kizzle_fn = sum(day.kizzle.confusion.false_negatives for day in self.days)
        av_fp = sum(day.av.confusion.false_positives for day in self.days)
        av_fn = sum(day.av.confusion.false_negatives for day in self.days)
        benign_total = sum(day.benign_count for day in self.days)
        malicious_total = sum(day.malicious_count for day in self.days)
        return {
            "kizzle_fp_rate": kizzle_fp / benign_total if benign_total else 0.0,
            "kizzle_fn_rate": kizzle_fn / malicious_total if malicious_total else 0.0,
            "av_fp_rate": av_fp / benign_total if benign_total else 0.0,
            "av_fn_rate": av_fn / malicious_total if malicious_total else 0.0,
        }

    def fn_series(self, kit: Optional[str] = None
                  ) -> Dict[str, List[float]]:
        """Per-day FN rates for both engines (Figure 13b; Figure 6 when a
        kit is given)."""
        kizzle_series: List[float] = []
        av_series: List[float] = []
        for day in self.days:
            if kit is None:
                kizzle_series.append(day.kizzle.confusion.false_negative_rate)
                av_series.append(day.av.confusion.false_negative_rate)
            else:
                kizzle_series.append(day.kizzle.per_kit_fn_rate.get(kit, 0.0))
                av_series.append(day.av.per_kit_fn_rate.get(kit, 0.0))
        return {"kizzle": kizzle_series, "av": av_series,
                "dates": [day.date for day in self.days]}

    def fp_series(self) -> Dict[str, List[float]]:
        """Per-day FP rates for both engines (Figure 13a)."""
        return {
            "kizzle": [day.kizzle.confusion.false_positive_rate
                       for day in self.days],
            "av": [day.av.confusion.false_positive_rate for day in self.days],
            "dates": [day.date for day in self.days],
        }

    def signature_length_series(self) -> Dict[str, List[int]]:
        """Per-day newest-signature lengths per kit (Figure 12)."""
        kits = sorted({kit for day in self.days
                       for kit in day.signature_lengths})
        series: Dict[str, List[int]] = {kit: [] for kit in kits}
        for day in self.days:
            for kit in kits:
                series[kit].append(day.signature_lengths.get(kit, 0))
        series["dates"] = [day.date for day in self.days]  # type: ignore[assignment]
        return series

    def cluster_count_range(self) -> Dict[str, int]:
        counts = [day.cluster_count for day in self.days]
        if not counts:
            return {"min": 0, "max": 0}
        return {"min": min(counts), "max": max(counts)}


class MonthExperiment:
    """Runs the month-long comparison."""

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 generator: Optional[TelemetryGenerator] = None,
                 av: Optional[SimulatedCommercialAV] = None) -> None:
        self.config = config or ExperimentConfig()
        self.generator = generator or TelemetryGenerator(self.config.stream)
        self.av = av or SimulatedCommercialAV(
            timeline=self.generator.timeline,
            study_start=self.config.start)
        self.kizzle = Kizzle(self.config.kizzle)
        # The experiment's own per-day loop is a stage graph too, extending
        # the pipeline's (shed -> ... -> finalize) with the paper's
        # evaluation steps: scan the day with both engines, then score.
        self.day_graph = StageGraph([
            Stage("process", self._stage_process,
                  requires=("batch", "date"), provides=("daily",)),
            # Scanning depends on the signatures the process stage deploys
            # for the same date — ``daily`` encodes that ordering.
            Stage("scan", self._stage_scan,
                  requires=("batch", "date", "daily"),
                  provides=("kizzle_detections", "av_detections")),
            Stage("evaluate", self._stage_evaluate,
                  requires=("batch", "date", "daily",
                            "kizzle_detections", "av_detections"),
                  provides=("record",)),
        ])

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the pipeline's execution substrate (idempotent).

        The pooled backends keep worker processes alive across days — the
        cluster backend may even have spawned localhost worker
        subprocesses — so an embedding application (or the CLI) should
        close the experiment when done, or use it as a context manager.
        """
        self.kizzle.close()

    def __enter__(self) -> "MonthExperiment":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    def seed(self) -> None:
        """Seed Kizzle's corpus with pre-study unpacked kit cores."""
        for kit in self.config.kits:
            cores = []
            for offset in range(1, self.config.seed_days + 1):
                date = self.config.start - datetime.timedelta(days=offset)
                cores.append(self.generator.reference_core(kit, date))
            self.kizzle.seed_known_kit(kit, cores)

    # ------------------------------------------------------------------
    def run(self, progress: Optional[callable] = None) -> MonthlyReport:
        """Run the whole experiment and return the report."""
        self.seed()
        report = MonthlyReport(config=self.config)
        report.av_release_dates = self.av.signature_release_dates()
        current = self.config.start
        one_day = datetime.timedelta(days=1)
        while current <= self.config.end:
            record = self.run_day(current, report.ground_truth)
            report.days.append(record)
            if progress is not None:
                progress(record)
            current += one_day
        return report

    def run_day(self, date: datetime.date,
                ground_truth: GroundTruth) -> DayRecord:
        """Run one day: generate, process, scan with both engines, score."""
        batch = self.generator.generate_day(date)
        ground_truth.add_samples(batch.samples)
        context = {"batch": batch, "date": date}
        walls = self.day_graph.run(context)
        record: DayRecord = context["record"]
        record.stage_walls = dict(walls)
        daily: DailyResult = context["daily"]
        for stage, seconds in daily.stage_walls.items():
            record.stage_walls[f"process.{stage}"] = seconds
        return record

    # -- the experiment's stage implementations -------------------------
    def _stage_process(self, context) -> None:
        batch = context["batch"]
        context["daily"] = self.kizzle.process_day(
            [(sample.sample_id, sample.content) for sample in batch.samples],
            context["date"])

    def _stage_scan(self, context) -> None:
        """Scan the day with both engines, one normal form per sample."""
        date = context["date"]
        kizzle_detections: Dict[str, Set[str]] = {}
        av_detections: Dict[str, Set[str]] = {}
        for sample in context["batch"].samples:
            normalized = normalize_for_scan(sample.content)
            kizzle_detections[sample.sample_id] = self.kizzle.kits_matching(
                sample.content, date, normalized=normalized)
            av_detections[sample.sample_id] = self.av.scan(
                sample.sample_id, sample.content, as_of=date,
                normalized=normalized).kits
        context["kizzle_detections"] = kizzle_detections
        context["av_detections"] = av_detections

    def _stage_evaluate(self, context) -> None:
        batch, date = context["batch"], context["date"]
        daily: DailyResult = context["daily"]
        true_kits = {sample.sample_id: sample.kit for sample in batch.samples}
        kizzle_metrics = score_day(true_kits, context["kizzle_detections"])
        av_metrics = score_day(true_kits, context["av_detections"])

        signature_lengths: Dict[str, int] = {}
        for kit in self.config.kits:
            latest = self.kizzle.database.latest_for(kit, as_of=date)
            if latest is not None:
                signature_lengths[kit] = latest.length

        context["record"] = DayRecord(
            date=date,
            sample_count=len(batch.samples),
            malicious_count=len(batch.malicious),
            benign_count=len(batch.benign),
            cluster_count=daily.cluster_count,
            malicious_cluster_count=len(daily.malicious_clusters),
            new_signatures=len(daily.new_signatures),
            kizzle=kizzle_metrics,
            av=av_metrics,
            signature_lengths=signature_lengths,
            processing_minutes=(daily.timing.total_time / 60.0
                                if daily.timing else 0.0),
            shed_count=daily.shed_count,
        )

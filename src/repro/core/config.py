"""Kizzle configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.distance.engine import DistanceEngineConfig
from repro.exec.backend import BackendConfig
from repro.labeling.corpus import DEFAULT_THRESHOLDS
from repro.signatures.compiler import SignatureConfig
from repro.winnowing.fingerprint import DEFAULT_K, DEFAULT_WINDOW


@dataclass
class IncrementalConfig:
    """Knobs of the incremental (day-over-day warm) pipeline.

    Attributes
    ----------
    enabled:
        Master switch.  Off (the default), every day re-tokenizes,
        re-clusters and re-labels from scratch.  On or off, a day runs the
        same stage graph; the fields below are read inside the ``shed``,
        ``label`` and ``finalize`` stages and only take effect when on.
    shed_known:
        Set aside, before tokenization, samples matched by an
        already-deployed signature (the paper's "most of the stream is the
        same grayware every day").  Shed samples are counted per kit in the
        daily result; an unmatched sample is never shed.  The scan that
        sheds is kept as the day record the day's later scans extend.
    carry_forward:
        Inject yesterday's cluster prototypes as pre-labeled anchors:
        samples within ``epsilon`` of an anchor are absorbed into the
        anchor's cluster (inheriting its label without re-unpacking or
        re-winnowing) and only the residual novel material enters DBSCAN.
    anchor_ttl_days:
        Days a carry-forward anchor survives without absorbing anything
        before it is dropped (stale prototypes stop paying rent).
    max_anchors:
        Upper bound on carried anchors; the least recently refreshed are
        dropped first.
    """

    enabled: bool = False
    shed_known: bool = True
    carry_forward: bool = True
    anchor_ttl_days: int = 7
    max_anchors: int = 256

    def __post_init__(self) -> None:
        if self.anchor_ttl_days < 1:
            raise ValueError("anchor_ttl_days must be at least 1")
        if self.max_anchors < 1:
            raise ValueError("max_anchors must be at least 1")


@dataclass
class KizzleConfig:
    """All tuning knobs of the pipeline in one place (paper, Section V
    "Tuning the ML" discusses exactly these).

    Attributes
    ----------
    epsilon:
        DBSCAN normalized edit-distance threshold (paper: 0.10).
    min_points:
        Minimum cluster density; clusters smaller than this are noise, which
        is also the mechanism behind the paper's residual false negatives
        ("changes ... not numerous enough ... to warrant a separate cluster").
    machines:
        Simulated machine count for the clustering stage (paper: 50).
    partitions:
        Number of partitions for the map phase; defaults to ``machines``.
    winnow_k / winnow_window:
        Winnowing fingerprint parameters for labeling.
    label_thresholds:
        Per-family winnow overlap thresholds.
    signature:
        Signature generation settings (window cap, minimum length).
    distance:
        Distance-engine settings: the two prefilter toggles
        (``length_filter`` / ``bag_filter``), plus ``workers`` — the
        default partition-pool width when ``backend.workers`` is unset (0
        means auto-detect).  These only change cost, never clustering
        results.
    reuse_existing_signatures:
        When true, a new signature is only generated for a malicious cluster
        if no already-deployed signature for the same kit matches the
        cluster's samples — this is what makes the Figure 12 "steps" appear
        only when the kit actually changes.
    incremental:
        Day-over-day warm-path settings (shedding, carry-forward);
        disabled by default.  See :class:`IncrementalConfig`.
    backend:
        Execution-backend selection (``serial`` / ``process`` /
        ``cluster``) and its transport knobs.  Unset fields inherit the
        pipeline-level values (``machines``, ``distance.workers``) via
        :meth:`resolved_backend`.  Backends never change results or the
        virtual timeline of a report — only where work runs.
    """

    epsilon: float = 0.10
    min_points: int = 3
    machines: int = 50
    partitions: Optional[int] = None
    winnow_k: int = DEFAULT_K
    winnow_window: int = DEFAULT_WINDOW
    label_thresholds: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    signature: SignatureConfig = field(default_factory=SignatureConfig)
    distance: DistanceEngineConfig = field(
        default_factory=DistanceEngineConfig)
    reuse_existing_signatures: bool = True
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must be in (0, 1]")
        if self.min_points < 1:
            raise ValueError("min_points must be at least 1")
        if self.machines < 1:
            raise ValueError("machines must be at least 1")

    def resolved_backend(self) -> BackendConfig:
        """The backend configuration with inherited fields filled in."""
        return self.backend.resolved(machines=self.machines,
                                     workers=self.distance.workers)

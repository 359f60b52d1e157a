"""Kizzle's core: configuration, the daily processing pipeline, and result
records.  This package is the paper's primary contribution; everything else
under :mod:`repro` is a substrate it builds on.
"""

from repro.core.config import IncrementalConfig, KizzleConfig
from repro.core.results import ClusterReport, DailyResult, ShedRecord
from repro.core.stages import Stage, StageGraph, StageGraphError
from repro.core.pipeline import Kizzle

__all__ = [
    "IncrementalConfig",
    "KizzleConfig",
    "ClusterReport",
    "DailyResult",
    "ShedRecord",
    "Stage",
    "StageGraph",
    "StageGraphError",
    "Kizzle",
]

"""Reproduction of *Kizzle: A Signature Compiler for Detecting Exploit Kits*
(Stock, Livshits, Zorn — DSN 2016).

The top-level package re-exports the public entry points a downstream user
needs: the :class:`~repro.core.pipeline.Kizzle` driver and its configuration,
the synthetic telemetry generator used in place of the paper's proprietary
IE telemetry, and the simulated commercial AV baseline.  The substrates
(tokenizer, clustering, winnowing, unpackers, signatures, scanner, cluster
timing model) live in their own subpackages; see DESIGN.md for the map.
"""

from repro.core.config import KizzleConfig
from repro.core.pipeline import Kizzle
from repro.core.results import ClusterReport, DailyResult
from repro.core.stages import Stage, StageGraph
from repro.ekgen.telemetry import DailyBatch, StreamConfig, TelemetryGenerator
from repro.exec.backend import BackendConfig, create_backend
from repro.scanner.avbaseline import SimulatedCommercialAV, default_av_baseline
from repro.signatures.signature import Signature

__version__ = "1.0.0"

__all__ = [
    "Kizzle",
    "KizzleConfig",
    "BackendConfig",
    "create_backend",
    "ClusterReport",
    "DailyResult",
    "Stage",
    "StageGraph",
    "TelemetryGenerator",
    "StreamConfig",
    "DailyBatch",
    "SimulatedCommercialAV",
    "default_av_baseline",
    "Signature",
    "__version__",
]

"""Token edit distance for the clustering stack.

Kizzle clusters samples by the edit distance between their abstract token
strings (paper, Section III-A).  This package provides Myers' bit-parallel
exact kernel and :class:`DistanceEngine`, the in-process batch layer with
exact length and token-bag prefilters in front of that kernel, which every
clustering query goes through.  The reference dynamic programs the two are
tested against live in ``tests/oracle_distance.py``.
"""

from repro.distance.bitparallel import (
    bitparallel_edit_distance,
    build_pattern_mask,
)
from repro.distance.engine import (
    DistanceEngine,
    DistanceEngineConfig,
    EngineStats,
)

__all__ = [
    "bitparallel_edit_distance",
    "build_pattern_mask",
    "DistanceEngine",
    "DistanceEngineConfig",
    "EngineStats",
]

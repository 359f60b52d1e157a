"""Prototype (representative sample) selection for clusters.

Kizzle unpacks and labels a *single prototype sample* per cluster (paper,
Section III-A), so the prototype should be the sample most representative of
the cluster.  We use the medoid: the member minimizing the sum of distances
to all other members.  For large clusters an exact medoid is quadratic, so a
seeded subsample is used beyond a size threshold — prototypes only need to be
"typical", not optimal.

Members may carry *weights* (multiplicities): the incremental pipeline
collapses a group of shed duplicates into one sentinel member of weight
``w``, and the medoid of the weighted members equals the medoid of the
expanded cluster, so warm and cold runs pick the same prototypes.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.distance.engine import DistanceEngine

#: Above this cluster size the medoid is computed over a random subsample.
_EXACT_MEDOID_LIMIT = 40


def medoid_index(token_strings: Sequence[Tuple[str, ...]],
                 candidates: Optional[Sequence[int]] = None,
                 engine: Optional[DistanceEngine] = None,
                 weights: Optional[Sequence[int]] = None) -> int:
    """Index of the medoid of the given token strings.

    ``candidates`` restricts both the candidate prototypes and the reference
    set (used for the subsampled approximation).  ``weights`` multiplies each
    reference's contribution to a candidate's distance total.  Distances go
    through the engine's exact kernel; duplicate members are the norm, and
    the engine answers an identical pair without calling it.
    """
    if not token_strings:
        raise ValueError("cannot compute a medoid of an empty cluster")
    indices = list(candidates) if candidates is not None \
        else list(range(len(token_strings)))
    if len(indices) == 1:
        return indices[0]
    engine = engine or DistanceEngine()
    best_index = indices[0]
    best_total = float("inf")
    for i in indices:
        total = 0.0
        for j in indices:
            if i == j:
                continue
            multiplier = weights[j] if weights is not None else 1
            total += engine.distance(token_strings[i], token_strings[j]) \
                * multiplier
            if total >= best_total:
                break
        if total < best_total:
            best_total = total
            best_index = i
    return best_index


def _weighted_modal_indices(token_strings: Sequence[Tuple[str, ...]],
                            weights: Optional[Sequence[int]]) -> List[int]:
    """Indices sharing the (weight-)most frequent token string."""
    counts: dict = {}
    totals: dict = {}
    for index, tokens in enumerate(token_strings):
        counts.setdefault(tokens, []).append(index)
        totals[tokens] = totals.get(tokens, 0) \
            + (weights[index] if weights is not None else 1)
    modal_tokens = max(totals, key=lambda tokens: totals[tokens])
    return counts[modal_tokens]


def select_prototype(token_strings: Sequence[Tuple[str, ...]],
                     seed: int = 0,
                     engine: Optional[DistanceEngine] = None,
                     weights: Optional[Sequence[int]] = None) -> int:
    """Pick the prototype index for a cluster.

    Exact medoid for small clusters; medoid over a seeded subsample for
    large ones.  Duplicate-heavy clusters (the common case in grayware) are
    handled by always including the most frequent token string among the
    candidates.
    """
    if not token_strings:
        raise ValueError("cannot select a prototype from an empty cluster")
    if len(token_strings) <= _EXACT_MEDOID_LIMIT:
        return medoid_index(token_strings, engine=engine, weights=weights)

    rng = random.Random(seed)
    candidates = rng.sample(range(len(token_strings)),
                            _EXACT_MEDOID_LIMIT)
    # Make sure the modal token string is represented.
    modal_indices = _weighted_modal_indices(token_strings, weights)
    if not any(index in candidates for index in modal_indices):
        candidates[0] = modal_indices[0]
    return medoid_index(token_strings, candidates=candidates, engine=engine,
                        weights=weights)

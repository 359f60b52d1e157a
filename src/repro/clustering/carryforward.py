"""Day-over-day cluster carry-forward: pre-labeled anchors.

The cold pipeline re-unpacks and re-winnows a prototype for every cluster
every day even though the stream is dominated by the same grayware families
day after day (paper, Section III).  This module keeps yesterday's cluster
prototypes as *pre-labeled anchors*: a cluster whose prototype lands within
the DBSCAN epsilon of an anchor inherits the anchor's benign/kit label
without entering the unpack-and-winnow labeling stage.  Only genuinely novel
clusters — new kits, packer updates that moved beyond epsilon, fresh benign
templates — pay for labeling.

Label inheritance is advisory, not load-bearing: the pipeline re-labels a
carried *kit* cluster for real before compiling a signature from it (see
``Kizzle._report_for``), so a wrong inheritance can never ship a signature;
it can only cost one extra labeling pass.

An anchor probe that reaches the exact kernel is a prototype that moved a
little — a kit update inserts a block, it does not rewrite the page — and
the kernel strips the prefix and suffix the two prototypes share before it
runs (:mod:`repro.distance.bitparallel`): the probe costs the changed block,
not the page, and yields the same integer, so ``comparisons``, the pair
cache and the charged ``carry_forward`` seconds do not depend on it.

Anchors age out: one not re-observed (and whose kit is not being shed
upstream by deployed signatures) for ``ttl_days`` is dropped, and the anchor
set is capped at ``max_anchors`` keeping the most recently refreshed.  With
carry-forward disabled the pipeline falls back to the exact cold path; a
drift-free repeated day produces the same labels and signatures either way
(asserted in ``tests/test_incremental.py``).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.distance.engine import DistanceEngine

TokenString = Tuple[str, ...]


@dataclass
class ClusterAnchor:
    """Yesterday's cluster prototype plus everything needed to re-label.

    ``kit`` is ``None`` for benign anchors.  ``overlap``/``best_family``/
    ``layers`` replicate the original
    :class:`~repro.labeling.labeler.ClusterLabel` verdict so a carried
    cluster can report the same label without re-unpacking.
    """

    tokens: TokenString
    kit: Optional[str]
    overlap: float
    best_family: Optional[str]
    layers: int
    last_seen: datetime.date
    weight: int = 0


class CarryForwardIndex:
    """The anchor set and its aging policy.

    Parameters
    ----------
    epsilon:
        The DBSCAN threshold; a prototype within this normalized distance of
        an anchor is considered the same cluster continued.
    engine:
        Shared distance engine (prefilters + memo cache make anchor probes
        nearly free for prototypes that repeat day over day).
    ttl_days / max_anchors:
        Aging policy, see the module docstring.
    """

    def __init__(self, epsilon: float = 0.10,
                 engine: Optional[DistanceEngine] = None,
                 ttl_days: int = 7, max_anchors: int = 256) -> None:
        self.epsilon = epsilon
        self.engine = engine or DistanceEngine()
        self.ttl_days = ttl_days
        self.max_anchors = max_anchors
        self.anchors: List[ClusterAnchor] = []
        #: Anchor probes issued since construction (for work accounting).
        self.comparisons = 0

    # ------------------------------------------------------------------
    def match(self, tokens: TokenString) -> Optional[ClusterAnchor]:
        """The first anchor within epsilon of ``tokens``, or ``None``.

        Anchors are probed most recently refreshed and heaviest first
        (:meth:`update` stores them in exactly that order), so the stable
        bulk of the stream resolves on the first probe.
        """
        for anchor in self.anchors:
            self.comparisons += 1
            if self.engine.within(anchor.tokens, tokens, self.epsilon):
                return anchor
        return None

    # ------------------------------------------------------------------
    def refresh_kits(self, kits: Sequence[str], date: datetime.date) -> None:
        """Keep kit anchors alive while their samples are shed upstream.

        When deployed signatures already cover a kit, the kit's clusters may
        consist purely of shed sentinels; refreshing by kit ensures the
        anchors survive even on days the kit produced no cluster at all.
        """
        wanted = set(kits)
        for anchor in self.anchors:
            if anchor.kit in wanted:
                anchor.last_seen = date

    def update(self, reports: Sequence[object], date: datetime.date) -> None:
        """Roll the anchor set forward from today's final cluster reports.

        ``reports`` is the day's list of
        :class:`~repro.core.results.ClusterReport`: every cluster
        contributes its prototype and label as tomorrow's anchor.  Anchors
        from previous days that were not re-observed today survive until
        their TTL lapses, so a kit that skips a day is still caught warm;
        past that, or past ``max_anchors``, the least recently refreshed
        anchors are dropped.
        """
        survivors: List[ClusterAnchor] = []
        fresh_tokens = set()
        for report in reports:
            cluster = report.cluster
            label = report.label
            tokens = cluster.prototype.tokens
            fresh_tokens.add(tokens)
            survivors.append(ClusterAnchor(
                tokens=tokens, kit=label.kit, overlap=label.overlap,
                best_family=label.best_family, layers=label.layers,
                last_seen=date, weight=cluster.weighted_size))
        horizon = date - datetime.timedelta(days=self.ttl_days)
        for anchor in self.anchors:
            if anchor.tokens in fresh_tokens:
                continue
            if anchor.last_seen >= horizon:
                survivors.append(anchor)
        survivors.sort(key=lambda a: (a.last_seen, a.weight), reverse=True)
        self.anchors = survivors[:self.max_anchors]

"""The signature scan engine.

A :class:`SignatureDatabase` holds the currently deployed signatures (Kizzle
adds new ones daily); a :class:`ScanEngine` normalizes samples and reports
which signatures (and therefore which kit families) match.

Both scale to paper-size streams:

* the database keeps per-kit, creation-date-sorted indexes, so a kit's
  ``signatures_for``/``latest_for`` are a bisect plus a slice instead of a
  full rescan on every call (behaviour-identical, including tie-breaking),
  and ``added_since(generation)`` names what deployed after a scan was
  taken, so a caller holding that scan's verdict probes only the rest;
* a scan probes each kit's deployed signatures newest first and stops at
  the kit's first hit, and gates every signature by the literal anchor its
  compiler recorded (:attr:`Signature.literal_anchor`, a substring every
  match contains) before the full regex runs.  The gate never changes
  verdicts; the per-kit probe lists are built once per
  ``(as_of, database.generation)``, not per document.

Every scan reads the one normal form,
:func:`~repro.scanner.normalizer.normalize_for_scan`, which runs the
JavaScript lexer only where its C-level paths cannot decide.  The engine
holds no per-content state: every ``scan`` normalizes its content.  The
pipeline's day record (``Kizzle.kits_matching``) is what spares a re-scan of
content its shed stage already scanned.
"""

from __future__ import annotations

import bisect
import datetime
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.scanner.normalizer import normalize_for_scan
from repro.signatures.signature import Signature


@dataclass
class ScanResult:
    """Outcome of scanning one sample: the first signature that matched
    for each kit that matched, kits in sorted order."""

    sample_id: str
    matched_signatures: List[Signature] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.matched_signatures)

    @property
    def kits(self) -> Set[str]:
        return {signature.kit for signature in self.matched_signatures}


class _DatedIndex:
    """Signatures kept sorted by (creation date, insertion sequence).

    The stable sequence component reproduces the pre-index semantics exactly:
    ``signatures_for`` used to return signatures in insertion order, and
    ``latest_for`` used ``max(..., key=created)``, which returns the
    *earliest-inserted* signature among those sharing the maximal date.
    """

    __slots__ = ("_keys", "_entries")

    def __init__(self) -> None:
        self._keys: List[tuple] = []       # (created, sequence)
        self._entries: List[Signature] = []

    def add(self, signature: Signature, sequence: int) -> None:
        key = (signature.created, sequence)
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._entries.insert(position, signature)

    def up_to(self, as_of: Optional[datetime.date]) -> List[Signature]:
        """Signatures created on or before ``as_of`` (all when ``None``)."""
        if as_of is None:
            return self._entries
        cut = bisect.bisect_right(self._keys, (as_of, float("inf")))
        return self._entries[:cut]

    def latest(self, as_of: Optional[datetime.date]) -> Optional[Signature]:
        selected = self.up_to(as_of)
        if not selected:
            return None
        newest_date = selected[-1].created
        position = len(selected) - 1
        while position > 0 and selected[position - 1].created == newest_date:
            position -= 1
        return selected[position]

    def __len__(self) -> int:
        return len(self._entries)


class SignatureDatabase:
    """A dated collection of signatures.

    Signatures carry their creation date, so the database can answer "what
    was deployed on day D" — needed to evaluate detection as of a given day
    and to plot signature lengths over time (Figure 12).

    Internally the signatures are indexed per kit and sorted by creation
    date, so a kit's date-filtered queries (the scan engine's probe plan,
    ``latest_for``) cost a bisect instead of a scan over the whole (and,
    over a month, ever-growing) signature list.
    ``generation`` increments on every addition, so it is also the number
    of signatures added so far (see :meth:`added_since`).
    """

    def __init__(self, signatures: Optional[Iterable[Signature]] = None) -> None:
        self._signatures: List[Signature] = []
        self._by_kit: Dict[str, _DatedIndex] = {}
        self.generation = 0
        for signature in signatures or ():
            self.add(signature)

    def add(self, signature: Signature) -> None:
        sequence = len(self._signatures)
        self._signatures.append(signature)
        index = self._by_kit.get(signature.kit)
        if index is None:
            index = self._by_kit[signature.kit] = _DatedIndex()
        index.add(signature, sequence)
        self.generation += 1

    def __len__(self) -> int:
        return len(self._signatures)

    def __iter__(self):
        return iter(self._signatures)

    def signatures_for(self, kit: Optional[str] = None,
                       as_of: Optional[datetime.date] = None) -> List[Signature]:
        """Signatures filtered by kit and deployment date.

        Without a date filter the insertion order is preserved (as before the
        index); with one, signatures arrive sorted by creation date, which for
        the daily pipeline — whose additions are date-monotone — is the same
        order.
        """
        if kit is not None:
            index = self._by_kit.get(kit)
            if index is None:
                return []
            if as_of is None:
                # Preserve exact legacy ordering (insertion order).
                return [s for s in self._signatures if s.kit == kit]
            return list(index.up_to(as_of))
        if as_of is None:
            return list(self._signatures)
        return sorted((s for s in self._signatures if s.created <= as_of),
                      key=lambda signature: signature.created)

    def added_since(self, generation: int) -> List[Signature]:
        """Signatures added after the database was at ``generation``, in
        insertion order (any creation date)."""
        return self._signatures[generation:]

    def latest_for(self, kit: str,
                   as_of: Optional[datetime.date] = None) -> Optional[Signature]:
        """The most recently created signature for a kit."""
        index = self._by_kit.get(kit)
        if index is None:
            return None
        return index.latest(as_of)

    def kits(self) -> Set[str]:
        return {kit for kit, index in self._by_kit.items() if len(index)}


class ScanEngine:
    """Matches a signature database against samples.

    Parameters
    ----------
    database:
        The deployed signatures.
    """

    def __init__(self, database: SignatureDatabase,
                 mode: str = "exact") -> None:
        # ``mode`` ("exact" or "fast") selects nothing: there is one normal
        # form.  Read by bench/ until ROADMAP item 3(d).
        self.database = database
        #: Telemetry: samples scanned.  ``memo_hits`` is always 0, a read
        #: path for ``bench/trace.py`` until ROADMAP item 3(d).
        self.counters = {"scans": 0, "memo_hits": 0}
        #: The probe plan and the ``(as_of, database.generation)`` it was
        #: built for (see :meth:`_probe_plan`).
        self._plan: List[List[Signature]] = []
        self._plan_key: Optional[tuple] = None

    # ------------------------------------------------------------------
    def first_match(self, normalized: str,
                    signatures: Iterable[Signature]) -> Optional[Signature]:
        """The first signature in iteration order that matches, or ``None``.

        Each signature's anchor gates its regex; the gate is a necessary
        condition for a match, so it never changes the answer.
        """
        for signature in signatures:
            if signature.could_match(normalized) \
                    and signature.matches(normalized):
                return signature
        return None

    def _probe_plan(self, as_of: Optional[datetime.date]
                    ) -> List[List[Signature]]:
        """Each kit's signatures deployed as of ``as_of``, newest first,
        kits in sorted order.

        Built once per ``(as_of, database.generation)`` rather than per
        document: a deployment bumps the generation and a new scan date
        changes ``as_of``, so the plan is never stale, and a day's scans
        share one.
        """
        key = (as_of, self.database.generation)
        if key != self._plan_key:
            self._plan = [
                self.database.signatures_for(kit=kit, as_of=as_of)[::-1]
                for kit in sorted(self.database.kits())]
            self._plan_key = key
        return self._plan

    def scan(self, sample_id: str, content: str,
             as_of: Optional[datetime.date] = None) -> ScanResult:
        """Scan one sample with the signatures deployed as of ``as_of``.

        The deployed set is probed per kit, newest signature first
        (:meth:`_probe_plan`), stopping at the first hit for each kit:
        ``detected`` and ``kits`` are those of matching every signature, but
        a sample covered by several generations of a kit's signatures pays
        for one regex instead of all of them.
        """
        self.counters["scans"] += 1
        normalized = normalize_for_scan(content)
        matches: List[Signature] = []
        for signatures in self._probe_plan(as_of):
            hit = self.first_match(normalized, signatures)
            if hit is not None:
                matches.append(hit)
        return ScanResult(sample_id=sample_id, matched_signatures=matches)

"""Simulated commercial anti-virus baseline.

The paper compares Kizzle against a widely used commercial AV engine whose
signatures are written by human analysts.  The engine itself is anonymized;
the behaviour that matters for the comparison is the *adversarial cycle lag*
(Figure 1): after a kit mutates its packer, the analyst needs days to notice,
write and ship a new signature, producing the false-negative windows of
Figures 6 and 13(b).

:class:`SimulatedCommercialAV` models that behaviour faithfully:

* for every packer configuration period of every kit (taken from the
  :class:`~repro.ekgen.evolution.EvolutionTimeline`), there is a hand-written
  rule keyed on a concrete feature of that packer version (the Nuclear eval
  obfuscation string, the RIG delimiter, the Angler Java-exploit marker, the
  Sweet Orange junk token);
* the rule for a period is *released* only ``lag_days`` after the period
  starts (the analyst's response time), so freshly mutated kits go undetected
  in the meantime — the signatures themselves are real regexes evaluated
  against the sample, nothing is hard-coded to "miss";
* one deliberately over-broad heuristic rule produces occasional false
  positives on benign content, mirroring the paper's observation that the
  commercial engine had a higher FP count than Kizzle (Figure 14).
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.ekgen.angler import ANGLER_JAVA_MARKER
from repro.ekgen.nuclear import delimit_word
from repro.ekgen.evolution import EvolutionTimeline, default_timeline
from repro.scanner.normalizer import fast_normalize, normalize_for_scan


@dataclass
class ManualSignatureRule:
    """One analyst-written rule.

    ``pattern`` is matched against the raw sample content and against the
    scanner-normalized content (analysts use whichever representation is more
    convenient); ``released`` is the date the rule ships to endpoints.
    """

    kit: str
    name: str
    pattern: str
    released: datetime.date
    heuristic: bool = False
    _compiled: Optional[re.Pattern] = field(default=None, repr=False,
                                            compare=False)
    _gates: Optional[List[tuple]] = field(default=None, repr=False,
                                          compare=False)
    _anchor_known: bool = field(default=False, repr=False, compare=False)

    @property
    def compiled(self) -> re.Pattern:
        if self._compiled is None:
            self._compiled = re.compile(self.pattern, re.DOTALL)
        return self._compiled

    def matches(self, raw_content: str, normalized_content: str) -> bool:
        return (self.compiled.search(raw_content) is not None
                or self.compiled.search(normalized_content) is not None)

    @property
    def literal_gates(self) -> List[tuple]:
        """``(literal, multiplicity)`` gates the pattern requires.

        Any text the pattern matches must contain each required literal at
        least as many times as it appears unconditionally in the pattern
        (the RIG delimiter patterns, ``\\d{2,3}X\\d{2,3}X...``, require the
        delimiter three times, which is a far more selective gate than one
        occurrence of a two-character literal).  Only the most selective
        gates are kept — longest literals first, at most two.
        """
        if not self._anchor_known:
            from collections import Counter

            from repro.signatures.anchors import required_literals

            counts = Counter(required_literals(self.pattern, min_length=2))
            ranked = sorted(counts.items(),
                            key=lambda item: len(item[0]), reverse=True)
            self._gates = ranked[:2]
            self._anchor_known = True
        return self._gates

    def could_match(self, raw_content: str, normalized_content: str) -> bool:
        """Cheap necessary condition for :meth:`matches` (either side)."""
        for literal, needed in self.literal_gates:
            if raw_content.count(literal) < needed \
                    and normalized_content.count(literal) < needed:
                return False
        return True


@dataclass
class AVScanVerdict:
    """Result of the simulated AV scanning one sample."""

    sample_id: str
    matched_rules: List[ManualSignatureRule] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.matched_rules)

    @property
    def kits(self) -> set:
        return {rule.kit for rule in self.matched_rules}


class SimulatedCommercialAV:
    """A commercial AV engine with analyst-lagged manual signatures."""

    #: Analyst response lag, per kit, in days after a packer change.
    DEFAULT_LAGS: Dict[str, int] = {
        "nuclear": 3,
        "rig": 2,
        "angler": 6,
        "sweetorange": 4,
    }

    def __init__(self, timeline: Optional[EvolutionTimeline] = None,
                 lag_days: Optional[Dict[str, int]] = None,
                 study_start: datetime.date = datetime.date(2014, 8, 1),
                 include_fp_heuristic: bool = True) -> None:
        self.timeline = timeline or default_timeline()
        self.lag_days = dict(self.DEFAULT_LAGS)
        if lag_days:
            self.lag_days.update(lag_days)
        self.study_start = study_start
        self.rules: List[ManualSignatureRule] = []
        self._build_rules()
        if include_fp_heuristic:
            self.rules.append(ManualSignatureRule(
                kit="angler", name="ANG.heur.telemetry",
                pattern=r"adZone=13\d{3,}",
                released=study_start, heuristic=True))
        self.mode = "exact"

    def use_fast_scan(self) -> None:
        """Switch to the warm scan path.

        Rules are gated by their required-literal anchor and the normalized
        side of :meth:`ManualSignatureRule.matches` uses
        :func:`~repro.scanner.normalizer.fast_normalize` instead of the
        lexer.  Verdict-equivalent on the synthetic stream (asserted in
        tests); :attr:`mode` can be reset to ``"exact"`` at any time.
        """
        self.mode = "fast"

    # ------------------------------------------------------------------
    # rule construction
    # ------------------------------------------------------------------
    def _build_rules(self) -> None:
        for kit in self.timeline.known_kits():
            periods = self._packer_periods(kit)
            for index, (start, params) in enumerate(periods):
                pattern = self._feature_pattern(kit, params)
                if pattern is None:
                    continue
                if start <= self.study_start:
                    released = self.study_start
                else:
                    released = start + datetime.timedelta(
                        days=self.lag_days.get(kit, 4))
                self.rules.append(ManualSignatureRule(
                    kit=kit, name=f"{kit.upper()}.sig{index + 1}",
                    pattern=pattern, released=released))

    def _packer_periods(self, kit: str):
        """(start_date, packer_params) for each packer configuration period."""
        periods = []
        base_version = self.timeline.version_for(
            kit, datetime.date(2014, 1, 1))
        periods.append((datetime.date(2014, 1, 1),
                        dict(base_version.packer_params)))
        for event in self.timeline.events_for(kit):
            if event.kind not in ("packer", "packer_semantic"):
                continue
            version = self.timeline.version_for(kit, event.date)
            periods.append((event.date, dict(version.packer_params)))
        return periods

    @staticmethod
    def _feature_pattern(kit: str, params: Dict[str, object]) -> Optional[str]:
        """The concrete packer feature an analyst would key a signature on."""
        if kit == "nuclear":
            # Analysts key Nuclear signatures on the delimiter-spelled method
            # names (the paper's Figure 12 shows NEK signature releases
            # trailing the delimiter rotations of late August); the eval
            # obfuscation churns too often to be worth a signature.
            delimiter = str(params.get("delimiter", ""))
            if not delimiter:
                return None
            return re.escape(delimit_word("document", delimiter))
        if kit == "rig":
            delimiter = str(params.get("delimiter", ""))
            if not delimiter:
                return None
            escaped = re.escape(delimiter)
            return rf"\d{{2,3}}{escaped}\d{{2,3}}{escaped}\d{{2,3}}{escaped}"
        if kit == "angler":
            if bool(params.get("exploit_string_in_html", True)):
                return re.escape(ANGLER_JAVA_MARKER)
            # After the August 13 change the analyst keys the replacement
            # signature on the packer's decode-and-eval trigger, which is
            # stable across the later marker rotations (so AV recovers for
            # the rest of the month, as in Figure 6).
            return (r"fromCharCode\(parseInt\([A-Za-z_$][\w$]*,16\)\)"
                    r".{0,80}window\[ev\+al\]\(")
        if kit == "sweetorange":
            junk = str(params.get("junk_token", ""))
            if not junk:
                return None
            return re.escape(junk)
        return None

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def rules_deployed(self, as_of: datetime.date) -> List[ManualSignatureRule]:
        return [rule for rule in self.rules if rule.released <= as_of]

    def scan(self, sample_id: str, content: str, as_of: datetime.date,
             normalized: Optional[str] = None) -> AVScanVerdict:
        """Scan one sample with the rules deployed on ``as_of``.

        ``normalized`` is the content's normal form in :attr:`mode` when the
        caller already holds it (the month experiment derives it once for
        both engines); it is derived here otherwise.
        """
        fast = self.mode == "fast"
        if normalized is None:
            normalized = fast_normalize(content) if fast \
                else normalize_for_scan(content)
        if fast:
            return self._scan_fast(sample_id, content, normalized, as_of)
        matched = [rule for rule in self.rules_deployed(as_of)
                   if rule.matches(content, normalized)]
        return AVScanVerdict(sample_id=sample_id, matched_rules=matched)

    def _scan_fast(self, sample_id: str, content: str, normalized: str,
                   as_of: datetime.date) -> AVScanVerdict:
        """Warm scan: anchor-gated rules over the fast normal form.

        A rule's anchor is a required substring of any match; a rule that
        matched the raw side leaves its anchor in the raw content, one that
        matched the normalized side leaves it in the fast normal form, so an
        anchor missing from both proves the rule cannot match.
        """
        matched = []
        for rule in self.rules_deployed(as_of):
            if not rule.could_match(content, normalized):
                continue
            if rule.matches(content, normalized):
                matched.append(rule)
        return AVScanVerdict(sample_id=sample_id, matched_rules=matched)

    def signature_release_dates(self, kit: Optional[str] = None
                                ) -> List[datetime.date]:
        """Release dates of (non-heuristic) rules, for the Figure 12 call-outs."""
        return sorted(rule.released for rule in self.rules
                      if not rule.heuristic
                      and (kit is None or rule.kit == kit))


def default_av_baseline() -> SimulatedCommercialAV:
    """The AV baseline with the documented 2014 timeline and default lags."""
    return SimulatedCommercialAV()

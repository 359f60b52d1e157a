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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ekgen.angler import ANGLER_JAVA_MARKER
from repro.ekgen.nuclear import delimit_word
from repro.ekgen.evolution import EvolutionTimeline, default_timeline
from repro.scanner.normalizer import normalize_for_scan

#: ``(literal, count)`` pairs: any text a rule's pattern matches holds each
#: ``literal`` at least ``count`` times.
Gates = Tuple[Tuple[str, int], ...]


@dataclass
class ManualSignatureRule:
    """One analyst-written rule.

    ``pattern`` is matched against the raw sample content and against the
    scanner-normalized content (analysts use whichever representation is more
    convenient); ``released`` is the date the rule ships to endpoints.
    ``gates`` are stated by the rule's author along with the pattern (see
    :data:`Gates`).
    """

    kit: str
    name: str
    pattern: str
    released: datetime.date
    heuristic: bool = False
    gates: Gates = ()
    _compiled: Optional[re.Pattern] = field(default=None, repr=False,
                                            compare=False)

    @property
    def compiled(self) -> re.Pattern:
        if self._compiled is None:
            self._compiled = re.compile(self.pattern, re.DOTALL)
        return self._compiled

    def matches(self, raw_content: str, normalized_content: str) -> bool:
        return (self.compiled.search(raw_content) is not None
                or self.compiled.search(normalized_content) is not None)

    def could_match(self, raw_content: str, normalized_content: str) -> bool:
        """Cheap necessary condition for :meth:`matches`: a rule that
        matched one side left its gates in that side."""
        for literal, needed in self.gates:
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
                released=study_start, heuristic=True,
                gates=(("adZone=13", 1),)))

    # ------------------------------------------------------------------
    # rule construction
    # ------------------------------------------------------------------
    def _build_rules(self) -> None:
        for kit in self.timeline.known_kits():
            periods = self._packer_periods(kit)
            for index, (start, params) in enumerate(periods):
                feature = self._feature_pattern(kit, params)
                if feature is None:
                    continue
                pattern, gates = feature
                if start <= self.study_start:
                    released = self.study_start
                else:
                    released = start + datetime.timedelta(
                        days=self.lag_days.get(kit, 4))
                self.rules.append(ManualSignatureRule(
                    kit=kit, name=f"{kit.upper()}.sig{index + 1}",
                    pattern=pattern, released=released, gates=gates))

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
    def _feature_pattern(kit: str, params: Dict[str, object]
                         ) -> Optional[Tuple[str, Gates]]:
        """The concrete packer feature an analyst would key a signature on:
        the pattern and its gates (see :class:`ManualSignatureRule`)."""
        if kit == "nuclear":
            # Analysts key Nuclear signatures on the delimiter-spelled method
            # names (the paper's Figure 12 shows NEK signature releases
            # trailing the delimiter rotations of late August); the eval
            # obfuscation churns too often to be worth a signature.
            delimiter = str(params.get("delimiter", ""))
            if not delimiter:
                return None
            word = delimit_word("document", delimiter)
            return re.escape(word), ((word, 1),)
        if kit == "rig":
            delimiter = str(params.get("delimiter", ""))
            if not delimiter:
                return None
            escaped = re.escape(delimiter)
            return (rf"\d{{2,3}}{escaped}\d{{2,3}}{escaped}\d{{2,3}}{escaped}",
                    ((delimiter, 3),))
        if kit == "angler":
            if bool(params.get("exploit_string_in_html", True)):
                marker = ANGLER_JAVA_MARKER
                return re.escape(marker), ((marker, 1),)
            # After the August 13 change the analyst keys the replacement
            # signature on the packer's decode-and-eval trigger, which is
            # stable across the later marker rotations (so AV recovers for
            # the rest of the month, as in Figure 6).
            return (r"fromCharCode\(parseInt\([A-Za-z_$][\w$]*,16\)\)"
                    r".{0,80}window\[ev\+al\]\(",
                    (("fromCharCode(parseInt(", 1), ("window[ev+al](", 1)))
        if kit == "sweetorange":
            junk = str(params.get("junk_token", ""))
            if not junk:
                return None
            return re.escape(junk), ((junk, 1),)
        return None

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def rules_deployed(self, as_of: datetime.date) -> List[ManualSignatureRule]:
        return [rule for rule in self.rules if rule.released <= as_of]

    def scan(self, sample_id: str, content: str, as_of: datetime.date,
             normalized: Optional[str] = None) -> AVScanVerdict:
        """Scan one sample with the rules deployed on ``as_of``.

        ``normalized`` is the content's normal form when the caller already
        holds it (the month experiment derives it once for both engines);
        the exact one is derived here otherwise.  Each rule's gates are
        checked before its regex runs.
        """
        if normalized is None:
            normalized = normalize_for_scan(content)
        matched = [rule for rule in self.rules_deployed(as_of)
                   if rule.could_match(content, normalized)
                   and rule.matches(content, normalized)]
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

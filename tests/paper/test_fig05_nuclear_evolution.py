"""Figure 5: evolution of the Nuclear exploit kit over June-August 2014.

The timeline records the packer-level changes (above the axis in the paper's
figure) and payload-level changes (below the axis): 13 packer changes of
which only one is semantic, the AV-detection addition of July 29 and the
Silverlight CVE appended on August 27.
"""

from __future__ import annotations

import datetime

from repro.ekgen.evolution import default_timeline
from repro.evalharness import format_table

JUNE_1 = datetime.date(2014, 6, 1)
AUG_31 = datetime.date(2014, 8, 31)


def build_timeline_rows():
    timeline = default_timeline()
    rows = []
    for event in timeline.events_for("nuclear"):
        if not JUNE_1 <= event.date <= AUG_31:
            continue
        layer = "packer" if event.kind.startswith("packer") else "payload"
        rows.append([event.date.isoformat(), layer, event.kind,
                     event.description])
    return rows


def test_fig05_nuclear_evolution():
    rows = build_timeline_rows()
    print()
    print(format_table(["date", "layer", "kind", "change"], rows,
                       title="Figure 5: Nuclear exploit kit evolution "
                             "(June-August 2014)"))

    timeline = default_timeline()
    packer_changes = timeline.packer_change_dates("nuclear", JUNE_1, AUG_31)
    payload_events = [event for event in timeline.events_for("nuclear")
                      if event.kind in ("payload_cve", "av_check")
                      and JUNE_1 <= event.date <= AUG_31]
    semantic = [event for event in timeline.events_for("nuclear")
                if event.kind == "packer_semantic"]

    # Paper: 13 small syntactic changes, only one of which (8/12) changed the
    # packer's semantics; payload changes are rare (AV check on 7/29, one CVE
    # appended on 8/27) and nothing is ever removed.
    assert len(packer_changes) == 13
    assert len(semantic) == 1 and semantic[0].date == datetime.date(2014, 8, 12)
    assert len(payload_events) == 2
    assert {event.kind for event in payload_events} == {"payload_cve",
                                                        "av_check"}
    # The packer churns far more often than the payload.
    assert len(packer_changes) > 5 * len(payload_events) / 2

    # Packed samples actually change across each packer-change date while the
    # unpacked core stays identical (the onion property).
    from repro.ekgen.nuclear import NuclearKit
    import random

    kit = NuclearKit(timeline)
    core_before = kit.core_source(kit.version_for(datetime.date(2014, 8, 16)))
    core_after = kit.core_source(kit.version_for(datetime.date(2014, 8, 18)))
    assert core_before == core_after  # packer-only change on 8/17
    packed_before = kit.generate(datetime.date(2014, 8, 16), random.Random(1))
    packed_after = kit.generate(datetime.date(2014, 8, 18), random.Random(1))
    assert ("esa1asv" in packed_after.content
            and "esa1asv" not in packed_before.content)

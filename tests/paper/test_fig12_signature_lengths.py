"""Figure 12: Kizzle signature lengths over time, with AV release call-outs.

Every bump in a kit's line marks a day Kizzle decided to compile a new
signature; those bumps line up with the kit's packer changes.  The simulated
AV's hand-written signature releases (the red call-outs of the paper figure)
trail the same changes by the analyst lag.
"""

from __future__ import annotations

import datetime

from repro.ekgen.evolution import default_timeline
from repro.evalharness import format_table


def build_rows(month_report):
    series = month_report.signature_length_series()
    dates = series["dates"]
    kits = [kit for kit in series if kit != "dates"]
    rows = []
    for index, date in enumerate(dates):
        row = [date.isoformat()]
        for kit in ("rig", "angler", "sweetorange", "nuclear"):
            row.append(series.get(kit, [0] * len(dates))[index]
                       if kit in kits else 0)
        rows.append(row)
    return rows, series


def test_fig12_signature_lengths(month_report):
    rows, series = build_rows(month_report)
    print()
    print(format_table(
        ["date", "RIG", "Angler", "Sweet orange", "Nuclear"], rows,
        title="Figure 12: newest deployed Kizzle signature length "
              "(characters) per kit"))
    print("AV signature releases:",
          ", ".join(str(date) for date in month_report.av_release_dates))

    dates = series["dates"]
    new_signature_days = {day.date: day.new_signatures
                          for day in month_report.days}

    # The high-volume kits have deployed signatures by the end of the month,
    # long and specific (the paper's Figure 12 range is roughly 200-1,800
    # characters; ours run longer because the synthetic packers embed larger
    # constant literals).
    assert "angler" in series and "nuclear" in series
    for kit in ("angler", "nuclear"):
        assert series[kit][-1] > 200
    covered_kits = [kit for kit in ("rig", "angler", "sweetorange", "nuclear")
                    if kit in series and series[kit][-1] > 0]
    assert len(covered_kits) >= 3

    # Kizzle responds to packer changes: around the documented Nuclear packer
    # changes of August a new signature appears within two days (a low-volume
    # day can delay a response past that window, so we require it for most
    # changes rather than every single one).
    timeline = default_timeline()
    nuclear_changes = timeline.packer_change_dates(
        "nuclear", datetime.date(2014, 8, 2), datetime.date(2014, 8, 28))
    responded = 0
    for change in nuclear_changes:
        window = [new_signature_days.get(change + datetime.timedelta(days=off), 0)
                  for off in range(0, 3)]
        if sum(window) > 0:
            responded += 1
    assert responded >= max(1, len(nuclear_changes) - 1), \
        f"Kizzle responded to only {responded}/{len(nuclear_changes)} changes"

    # Angler gets a replacement signature after the August 13 body change.
    index_before = dates.index(datetime.date(2014, 8, 12))
    later = [series["angler"][dates.index(datetime.date(2014, 8, 13)
                                          + datetime.timedelta(days=off))]
             for off in range(0, 5)]
    assert any(value != series["angler"][index_before] for value in later)

    # AV releases trail kit changes by the analyst lag: every release in the
    # study window is at or after the corresponding change date.
    study_releases = [date for date in month_report.av_release_dates
                      if date > datetime.date(2014, 8, 1)]
    assert study_releases, "the AV analysts never shipped an update"
    all_changes = []
    for kit in ("rig", "angler", "sweetorange", "nuclear"):
        all_changes.extend(timeline.packer_change_dates(kit))
    assert all(any(release >= change for change in all_changes)
               for release in study_releases)

"""Figure 2: CVEs used by each exploit kit, broken down by component."""

from __future__ import annotations

from repro.ekgen.cves import AV_CHECK_KITS, CVE_INVENTORY, components_for_kit
from repro.evalharness import format_table

KIT_ORDER = ["sweetorange", "angler", "rig", "nuclear"]
COMPONENTS = ["flash", "silverlight", "java", "reader", "ie"]


def build_rows():
    rows = []
    for kit in KIT_ORDER:
        row = [kit]
        for component in COMPONENTS:
            cves = [cve.replace("CVE-", "")
                    for comp, cve in CVE_INVENTORY[kit] if comp == component]
            row.append(", ".join(cves) if cves else "-")
        row.append("Yes" if kit in AV_CHECK_KITS else "No")
        rows.append(row)
    return rows


def test_fig02_cve_table():
    rows = build_rows()
    print()
    print(format_table(
        ["EK"] + COMPONENTS + ["AV check"], rows,
        title="Figure 2: CVEs used for each malware kit (September 2014)"))

    # Shape checks against the paper's table.
    table = {row[0]: row for row in rows}
    assert "2014-0515" in table["sweetorange"][1]
    assert "2013-0074" in table["angler"][2]
    assert "2010-0188" in table["nuclear"][4]
    assert all("2013-2551" in table[kit][5] for kit in KIT_ORDER)
    assert table["sweetorange"][6] == "No"
    assert table["angler"][6] == "Yes"
    assert table["rig"][6] == "Yes"
    assert table["nuclear"][6] == "Yes"
    # Kits carry roughly 4-7 CVEs (Exploit Pack Table observation).
    for kit in KIT_ORDER:
        assert 4 <= len(CVE_INVENTORY[kit]) <= 7
    # Each kit targets multiple plugin/browser components.
    for kit in KIT_ORDER:
        assert len(components_for_kit(kit)) >= 3

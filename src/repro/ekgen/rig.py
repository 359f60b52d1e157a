"""The RIG exploit kit model.

RIG's packer (paper, Figure 4a) accumulates the ASCII codes of the payload in
a buffer through repeated ``collect()`` calls, with a short randomized
delimiter between the codes; at the end it splits the buffer on the delimiter
and rebuilds the payload with ``String.fromCharCode`` into an injected
``<script>`` element.  The delimiter is rotated between kit versions, the
variable names per served sample.

RIG's *unpacked* body is comparatively short and dominated by embedded
landing/payload URLs that change constantly, which is why Figure 11(d) shows
day-over-day similarity as low as 50% for RIG while the other kits stay above
90%.  We reproduce that by giving RIG a compact core with a block of long,
per-day randomized URLs.
"""

from __future__ import annotations

import datetime
import random
from typing import List

from repro.ekgen.base import ExploitKit, KitVersion
from repro.ekgen.cves import AV_CHECK_CODE, exploit_snippet
from repro.ekgen.identifiers import pick_variable_map, random_junk_string, \
    random_url


def encode_char_codes(core: str, delimiter: str) -> str:
    """RIG's buffer: the decimal code of every character, each followed by
    the delimiter.  ``tests/oracle_ekgen.py`` keeps the per-character form
    this equals."""
    return delimiter.join(map(str, map(ord, core))) + delimiter


class RigKit(ExploitKit):
    """Simulated RIG exploit kit."""

    name = "rig"

    #: Number of embedded URLs in the core; together with the campaign-token
    #: block below they dominate the winnow fingerprint and drive the
    #: day-over-day churn of Figure 11(d).
    URL_COUNT = 25

    #: Number of per-day campaign tokens (rotating session keys the RIG
    #: backend embeds in every landing page).
    TOKEN_COUNT = 15

    # ------------------------------------------------------------------
    # unpacked core
    # ------------------------------------------------------------------
    def core_source(self, version: KitVersion) -> str:
        """RIG's compact unpacked core.

        Unlike the other kits, RIG's core skips the heavyweight shared
        runtime and inlines a terse plugin probe, so that the embedded URL
        block is a large fraction of the body (the paper's explanation of the
        RIG similarity churn).
        """
        day_rng = random.Random(f"rig-core-{version.date.isoformat()}")
        urls = [random_url(day_rng, "rig") for _ in range(self.URL_COUNT)]
        url_lines = "\n".join(
            f'var gateUrl{index} = "{url}";' for index, url in enumerate(urls))
        token_lines = "\n".join(
            f'var campaignToken{index} = '
            f'"{random_junk_string(day_rng, day_rng.randint(64, 96))}";'
            for index in range(self.TOKEN_COUNT))
        sections: List[str] = [
            f"// rig exploit kit core with {len(version.cves)} exploits",
            f'var gateUrl = "{urls[0]}";',
            url_lines,
            token_lines,
            _RIG_PLUGIN_PROBE,
        ]
        if version.av_check:
            sections.append(AV_CHECK_CODE)
        launcher_calls = []
        for component, cve in version.cves:
            sections.append(exploit_snippet(cve, component))
            slug = cve.replace("CVE-", "cve_").replace("-", "_").lower()
            launcher_calls.append(
                f'  fired = run_{slug}("{self._required_version(component)}") || fired;')
        launcher = ["function launchExploits() {", "  var fired = false;",
                    "  detectPlugins();"]
        if version.av_check:
            launcher.append("  if (detectSecuritySuites() > 0) { return false; }")
        launcher.extend(launcher_calls)
        launcher.extend(["  return fired;", "}", "launchExploits();"])
        sections.append("\n".join(launcher))
        return "\n".join(sections)

    # ------------------------------------------------------------------
    # packer
    # ------------------------------------------------------------------
    def pack(self, core: str, version: KitVersion, rng: random.Random) -> str:
        delimiter = str(version.packer_params.get("delimiter", "y6"))
        chunk_size = int(version.packer_params.get("chunk_size", 8))
        names = pick_variable_map(
            rng, ["buffer", "delim", "collect", "text", "pieces", "screlem",
                  "index"])

        encoded = encode_char_codes(core, delimiter)
        chunks = [encoded[i:i + chunk_size * 4]
                  for i in range(0, len(encoded), chunk_size * 4)]
        collect_calls = "\n".join(
            f'{names["collect"]}("{chunk}");' for chunk in chunks)

        script = f"""
var {names['buffer']} = "";
var {names['delim']} = "{delimiter}";
function {names['collect']}({names['text']}) {{
  {names['buffer']} += {names['text']};
}}
{collect_calls}
var {names['pieces']} = {names['buffer']}.split({names['delim']});
var {names['screlem']} = document.createElement("script");
for (var {names['index']} = 0; {names['index']} < {names['pieces']}.length - 1; {names['index']}++) {{
  {names['screlem']}.text += String.fromCharCode({names['pieces']}[{names['index']}]);
}}
document.body.appendChild({names['screlem']});
"""
        title = f"loading {rng.randrange(10**6)}"
        return (f"<html><head><title>{title}</title></head><body>\n"
                f"<script type=\"text/javascript\">{script}</script>\n"
                f"</body></html>")


#: Terse plugin probe used only by RIG's compact core.
_RIG_PLUGIN_PROBE = """
var pluginReport = { flash: null, silverlight: null, java: null, msie: null };
function detectPlugins() {
  var nav = window.navigator;
  var match = /MSIE ([0-9]+\\.[0-9]+)/.exec(nav.userAgent);
  pluginReport.msie = match ? match[1] : null;
  try { pluginReport.flash = new ActiveXObject("ShockwaveFlash.ShockwaveFlash").GetVariable("$version"); } catch (e) { }
  try { pluginReport.silverlight = new ActiveXObject("AgControl.AgControl").Settings ? "5.1" : null; } catch (e) { }
  try { pluginReport.java = new ActiveXObject("JavaWebStart.isInstalled").jws ? "1.7" : null; } catch (e) { }
  return pluginReport;
}
function compareVersions(installed, required) {
  var a = String(installed).split(".");
  var b = String(required).split(".");
  for (var i = 0; i < Math.max(a.length, b.length); i++) {
    var left = parseInt(a[i] || "0", 10);
    var right = parseInt(b[i] || "0", 10);
    if (left !== right) { return left < right ? -1 : 1; }
  }
  return 0;
}
function checkFlashVersion(version, cve) { return pluginReport.flash !== null; }
function checkSilverlightVersion(version, cve) { return pluginReport.silverlight !== null; }
function checkJavaVersion(version, cve) { return pluginReport.java !== null; }
function checkBrowserBuild(version, cve) { return pluginReport.msie !== null; }
function encodeSession(cve) {
  var seed = cve.length * 2654435761 % 4294967296;
  return seed.toString(16) + "-" + cve.replace(/[^0-9]/g, "");
}
function buildPayloadUrl(kind, cve) {
  return gateUrl + "&f=" + kind + "&k=" + encodeSession(cve);
}
"""

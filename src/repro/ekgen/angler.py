"""The Angler exploit kit model.

The paper uses Angler to illustrate the window of vulnerability (Figure 6 and
Example 1): until August 13, 2014 the kit emitted an HTML snippet carrying a
Java exploit with a unique string that a commercial AV signature matched.  On
August 13 that string was folded into the obfuscated body (only written to
the document when a vulnerable Java version is present), which broke the AV
signature for roughly a week.

The simulated Angler packs its core as a hex string decoded with
``String.fromCharCode(parseInt(..., 16))`` and triggered through
``window["ev" + "al"]``.  The ``exploit_string_in_html`` packer parameter
controls whether the Java-exploit snippet (with the unique marker string) is
emitted as plain HTML or appended to the packed body.
"""

from __future__ import annotations

import random

from repro.ekgen.base import ExploitKit, KitVersion
from repro.ekgen.identifiers import pick_variable_map

#: The unique string the commercial AV signature keys on (Example 1).
ANGLER_JAVA_MARKER = "aqpOZjBhSVFudVZrQmxhZGU"


def java_exploit_html(marker: str = ANGLER_JAVA_MARKER) -> str:
    """The Java-exploit HTML snippet Angler serves alongside its script."""
    return (
        '<div style="display:none">'
        '<applet archive="grab.jar" code="wbxahdyf.QPAthy">'
        f'<param name="exec" value="{marker}"/>'
        '<param name="prime" value="112-97-121-108-111-97-100"/>'
        "</applet></div>"
    )


def hex_encode(text: str) -> str:
    """Hex-encode text the way the Angler packer embeds its payload.

    Two hex digits per character, of its code point modulo 256: the low
    byte of each UTF-32-LE code unit (``surrogatepass`` keeps lone
    surrogates), so the loop runs in C.  ``tests/oracle_ekgen.py`` keeps the
    per-character form this equals.
    """
    return text.encode("utf-32-le", "surrogatepass")[::4].hex()


def hex_decode(encoded: str) -> str:
    """Inverse of :func:`hex_encode` (used by the Angler unpacker)."""
    if len(encoded) % 2 != 0:
        raise ValueError("Angler hex payload must have even length")
    return "".join(chr(int(encoded[index:index + 2], 16))
                   for index in range(0, len(encoded), 2))


class AnglerKit(ExploitKit):
    """Simulated Angler exploit kit."""

    name = "angler"

    def unpacked_payload(self, core: str, version: KitVersion) -> str:
        """After August 13 the packed body carries the Java-exploit snippet,
        so that is also what unpacking recovers."""
        if bool(version.packer_params.get("exploit_string_in_html", True)):
            return core
        return self._body_with_snippet(core)

    @staticmethod
    def _body_with_snippet(core: str) -> str:
        snippet = java_exploit_html().replace('"', '\\"')
        return (core
                + "\nif (checkJavaVersion(\"1.7.0.17\", \"CVE-2013-0422\")) {"
                + f'\n  document.write("{snippet}");'
                + "\n}")

    def pack(self, core: str, version: KitVersion, rng: random.Random) -> str:
        params = version.packer_params
        in_html = bool(params.get("exploit_string_in_html", True))
        marker = str(params.get("marker", "XKeyAB12"))
        chunk_size = int(params.get("chunk_size", 24))

        body = core
        if not in_html:
            # The exploit snippet (with its unique string) now lives inside
            # the packed body and is only written out after a Java check.
            body = self._body_with_snippet(core)

        encoded = hex_encode(body)
        chunks = [encoded[i:i + chunk_size]
                  for i in range(0, len(encoded), chunk_size)]
        names = pick_variable_map(
            rng, ["packed", "output", "index", "piece", "marker"])
        packed_literal = " +\n  ".join(f'"{chunk}"' for chunk in chunks)

        script = f"""
var {names['marker']} = "{marker}";
var {names['packed']} = {packed_literal};
var {names['output']} = "";
for (var {names['index']} = 0; {names['index']} < {names['packed']}.length; {names['index']} += 2) {{
  var {names['piece']} = {names['packed']}.substr({names['index']}, 2);
  {names['output']} += String.fromCharCode(parseInt({names['piece']}, 16));
}}
window["ev" + "al"]({names['output']});
"""
        html_snippet = java_exploit_html() if in_html else ""
        title = f"redirecting {rng.randrange(10**6)}"
        return (f"<html><head><title>{title}</title></head><body>\n"
                f"{html_snippet}\n"
                f"<script type=\"text/javascript\">{script}</script>\n"
                f"</body></html>")

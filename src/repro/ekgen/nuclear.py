"""The Nuclear exploit kit model.

Nuclear's packer (paper, Figure 4b) carries the payload as a digit string
encrypted with a per-response key, resolves ``eval`` and ``window`` through a
``getter`` indirection where the names are spelled with an infix that is
removed via ``replace`` with ``document.bgColor``, and spells method names
such as ``substr`` or ``concat`` with a delimiter interleaved between the
letters (``sUluNuUluNbUluNsUluNtUluNrUluN``).  The infix and the delimiter
change every few days (Figure 5); the key and the encrypted payload change in
every response.
"""

from __future__ import annotations

import random
from typing import List

from repro.ekgen.base import ExploitKit, KitVersion
from repro.ekgen.identifiers import pick_variable_map, random_crypt_key

#: Method names whose delimited spellings appear in the packed body; their
#: presence (with the rotating delimiter) is what Kizzle's Nuclear signature
#: keys on in Figure 10a.
_DELIMITED_WORDS = ["concat", "substr", "document", "Color", "length",
                    "replace"]

#: The three-digit spelling of every byte value; ``key_shift`` is 1..200,
#: so the encoder rotates this table by slicing it at the shift.
_TRIPLES = tuple(f"{value:03d}" for value in range(256))


def encrypt_payload(core: str, key: str) -> str:
    """Encrypt the core into Nuclear's digit-string payload.

    Each character is shifted by a key-derived offset and emitted as three
    decimal digits.  The scheme is intentionally simple — what matters for
    the reproduction is that the digits (and the key) differ in every
    response, making pattern-matching on the payload itself useless, exactly
    as the paper observes.

    The shift is taken modulo 256, so only each code point's low byte
    matters: those bytes (every fourth of the UTF-32-LE encoding) index a
    rotated table of the 256 digit triples, and the loop runs in C.
    ``tests/oracle_ekgen.py`` keeps the per-character form this equals.
    """
    shift = key_shift(key)
    table = _TRIPLES[shift:] + _TRIPLES[:shift]
    low_bytes = core.encode("utf-32-le", "surrogatepass")[::4]
    return "".join(map(table.__getitem__, low_bytes))


def decrypt_payload(payload: str, key: str) -> str:
    """Inverse of :func:`encrypt_payload` (used by the Nuclear unpacker)."""
    if len(payload) % 3 != 0:
        raise ValueError("Nuclear payload length must be a multiple of 3")
    shift = key_shift(key)
    characters: List[str] = []
    for index in range(0, len(payload), 3):
        value = int(payload[index:index + 3])
        characters.append(chr((value - shift) % 256))
    return "".join(characters)


def key_shift(key: str) -> int:
    """The character shift derived from an encryption key."""
    return sum(ord(char) for char in key) % 200 + 1


def delimit_word(word: str, delimiter: str) -> str:
    """Spell a word with the delimiter between letters (``substr`` ->
    ``sUluNuUluNbUluNsUluNtUluNrUluN`` for delimiter ``UluN``)."""
    return delimiter.join(word)


class NuclearKit(ExploitKit):
    """Simulated Nuclear exploit kit."""

    name = "nuclear"

    def pack(self, core: str, version: KitVersion, rng: random.Random) -> str:
        params = version.packer_params
        obfuscation = str(params.get("eval_obfuscation", "ev#FFFFFFal"))
        delimiter = str(params.get("delimiter", "UluN"))
        generation = int(params.get("packer_generation", 1))

        key = random_crypt_key(rng)
        payload = encrypt_payload(core, key)
        names = pick_variable_map(
            rng, ["payload", "cryptkey", "getter", "thiscopy", "doc", "bgc",
                  "evl", "win", "chars", "index", "value", "shift", "output",
                  "suffix"])

        delimited = [delimit_word(word, delimiter) for word in _DELIMITED_WORDS]
        words_array = ",".join(f'"{spelled}"' for spelled in delimited)

        if obfuscation == "ev+var":
            eval_construction = (
                f'var {names["suffix"]} = "al";\n'
                f'var {names["evl"]} = {names["thiscopy"]}'
                f'[{names["getter"]}]("ev" + {names["suffix"]});')
            eval_reference = names["evl"]
        else:
            eval_construction = (
                f'var {names["evl"]} = {names["thiscopy"]}'
                f'[{names["getter"]}]("{obfuscation}");')
            eval_reference = (f'{names["evl"]}["replace"]({names["bgc"]}, "")')

        win_spelled = "win" + _infix_of(obfuscation) + "dow"

        decoder = self._decoder_source(names, generation)

        script = f"""
var {names['payload']} = "{payload}";
var {names['cryptkey']} = "{key}";
var {names['getter']} = "getter";
this["getter"] = function (a) {{ return a; }};
var {names['thiscopy']} = this;
var {names['doc']} = {names['thiscopy']}[{names['thiscopy']}[{names['getter']}]("{delimit_word('document', delimiter)}".split("{delimiter}").join(""))];
var {names['bgc']} = {names['doc']}[{names['thiscopy']}[{names['getter']}]("bg" + "{delimit_word('Color', delimiter)}".split("{delimiter}").join(""))];
var methodTable = [{words_array}];
{eval_construction}
var {names['win']} = {names['thiscopy']}[{names['getter']}]("{win_spelled}");
{decoder}
{names['thiscopy']}[{names['win']}["replace"]({names['bgc']}, "")][{eval_reference}]({names['output']});
"""
        title = f"statistics {rng.randrange(10**6)}"
        return (f"<html><head><title>{title}</title></head><body>\n"
                f"<script type=\"text/javascript\">{script}</script>\n"
                f"</body></html>")

    @staticmethod
    def _decoder_source(names: dict, generation: int) -> str:
        """The payload decryption loop.

        The August 12 "semantic change" (Figure 5) is modeled as generation 2:
        the decoder builds an array of characters and joins it instead of
        concatenating into a string, which changes the token structure of the
        packer without changing what it computes.
        """
        if generation >= 2:
            return f"""
var {names['shift']} = 0;
for (var {names['index']} = 0; {names['index']} < {names['cryptkey']}.length; {names['index']}++) {{
  {names['shift']} += {names['cryptkey']}.charCodeAt({names['index']});
}}
{names['shift']} = {names['shift']} % 200 + 1;
var {names['chars']} = new Array();
for (var {names['index']} = 0; {names['index']} < {names['payload']}.length; {names['index']} += 3) {{
  var {names['value']} = parseInt({names['payload']}.substr({names['index']}, 3), 10);
  {names['chars']}.push(String.fromCharCode(({names['value']} - {names['shift']} + 256) % 256));
}}
var {names['output']} = {names['chars']}.join("");
"""
        return f"""
var {names['shift']} = 0;
for (var {names['index']} = 0; {names['index']} < {names['cryptkey']}.length; {names['index']}++) {{
  {names['shift']} += {names['cryptkey']}.charCodeAt({names['index']});
}}
{names['shift']} = {names['shift']} % 200 + 1;
var {names['output']} = "";
for (var {names['index']} = 0; {names['index']} < {names['payload']}.length; {names['index']} += 3) {{
  var {names['value']} = parseInt({names['payload']}.substr({names['index']}, 3), 10);
  {names['output']} += String.fromCharCode(({names['value']} - {names['shift']} + 256) % 256);
}}
"""


def _infix_of(obfuscation: str) -> str:
    """Extract the infix used between ``win`` and ``dow``.

    For ``ev#FFFFFFal`` style strings the infix is the part between the
    letters of ``eval``; for exotic variants the whole middle section is
    reused, matching the paper's observation that the same obscuring infix
    shows up in both the ``eval`` and ``window`` spellings (Figure 4b).
    """
    if obfuscation == "ev+var":
        return ""
    stripped = obfuscation
    for prefix in ("eva", "ev", "e"):
        if stripped.startswith(prefix):
            stripped = stripped[len(prefix):]
            break
    for suffix in ("val", "al", "l"):
        if stripped.endswith(suffix):
            stripped = stripped[:-len(suffix)]
            break
    return stripped or "#333366"

"""Property-based tests (hypothesis) for the core data structures and
invariants: the lexer never crashes and re-tokenizes consistently, the edit
distance is a metric, banded search agrees with the full dynamic program,
winnowing honours its density/containment guarantees, the packers round-trip
through their unpackers for arbitrary cores, and generated regex fragments
always accept the values they were generalized from.
"""

from __future__ import annotations

import random
import re
import string
from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracle_distance import TokenEditDistance, _histogram_lower_bound, \
    banded_edit_distance, edit_distance, length_lower_bound, \
    normalized_edit_distance
from repro.distance.engine import _bag_surplus
from repro.ekgen.nuclear import decrypt_payload, encrypt_payload
from repro.ekgen.angler import hex_decode, hex_encode
from repro.ekgen.sweetorange import insert_junk, remove_junk
from repro.ekgen.identifiers import random_crypt_key
from repro.jstoken import tokenize
from repro.scanner.normalizer import normalize_for_scan
from repro.signatures.alignment import TokenColumn
from repro.signatures.anchors import best_anchor, required_literals
from repro.signatures.regexgen import build_pattern, generalize_column
from repro.winnowing.fingerprint import Fingerprint, kgram_hashes, winnow

DEFAULT_SETTINGS = settings(max_examples=60, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])

token_alphabet = st.sampled_from(
    ["var", "Identifier", "String", "(", ")", "=", ";", "[", "]", "+"])
token_strings = st.lists(token_alphabet, min_size=0, max_size=40).map(tuple)

js_text = st.text(
    alphabet=string.ascii_letters + string.digits + " \n\t{}()[];=+-*/'\"<>.,&|!",
    max_size=400)

printable_core = st.text(
    alphabet=string.ascii_letters + string.digits + " \n{}()[];=+-.\"'",
    min_size=1, max_size=300)


class TestLexerProperties:
    @DEFAULT_SETTINGS
    @given(js_text)
    def test_lexer_never_crashes(self, source):
        tokens = tokenize(source)
        assert all(token.value for token in tokens)

    @DEFAULT_SETTINGS
    @given(js_text)
    def test_lexing_is_deterministic(self, source):
        assert tokenize(source) == tokenize(source)

    @DEFAULT_SETTINGS
    @given(js_text)
    def test_token_positions_are_monotonic(self, source):
        positions = [token.position for token in tokenize(source)]
        assert positions == sorted(positions)

    @DEFAULT_SETTINGS
    @given(js_text)
    def test_normalization_idempotent_modulo_whitespace(self, source):
        normalized = normalize_for_scan(source)
        assert " " not in normalized.replace(" ", "") or True
        # normalizing an already-normalized script changes nothing further
        assert normalize_for_scan(normalized) == normalize_for_scan(
            normalize_for_scan(normalized))


class TestDistanceProperties:
    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @DEFAULT_SETTINGS
    @given(token_strings)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_bounds(self, a, b):
        distance = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings, token_strings)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_banded_agrees_with_full(self, a, b):
        exact = edit_distance(a, b)
        assert banded_edit_distance(a, b, exact) == exact
        if exact > 0:
            assert banded_edit_distance(a, b, exact - 1) is None

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings)
    def test_lower_bounds_never_exceed_distance(self, a, b):
        normalized = normalized_edit_distance(a, b)
        assert length_lower_bound(a, b) <= normalized + 1e-9
        assert _histogram_lower_bound(a, b) <= normalized + 1e-9
        assert _bag_surplus(Counter(a), Counter(b)) <= edit_distance(a, b)

    @DEFAULT_SETTINGS
    @given(token_strings, token_strings,
           st.floats(min_value=0.05, max_value=0.5))
    def test_metric_within_agrees_with_distance(self, a, b, epsilon):
        metric = TokenEditDistance(epsilon=epsilon)
        truth = normalized_edit_distance(a, b) <= epsilon
        assert metric.within(a, b, epsilon) == truth


class TestWinnowingProperties:
    @DEFAULT_SETTINGS
    @given(st.text(alphabet=string.ascii_lowercase, min_size=0, max_size=500))
    def test_winnow_positions_valid(self, text):
        hashes = kgram_hashes(text, 5)
        for value, position in winnow(hashes, 8):
            assert 0 <= position < len(hashes)
            assert hashes[position] == value

    @DEFAULT_SETTINGS
    @given(st.text(alphabet=string.ascii_lowercase, min_size=50, max_size=400))
    def test_self_containment_is_total(self, text):
        fingerprint = Fingerprint.of(text)
        assert fingerprint.intersection_size(fingerprint) == fingerprint.size

    @DEFAULT_SETTINGS
    @given(st.text(alphabet=string.ascii_lowercase, min_size=60, max_size=200),
           st.text(alphabet=string.ascii_lowercase, min_size=0, max_size=200))
    def test_containment_monotone_under_extension(self, body, extra):
        """Appending content to a document can only preserve or add shared
        fingerprints with the original."""
        base = Fingerprint.of(body)
        extended = Fingerprint.of(body + extra)
        assert base.intersection_size(extended) >= 0
        assert base.intersection_size(extended) <= base.size


class TestPackerRoundTripProperties:
    @DEFAULT_SETTINGS
    @given(printable_core, st.integers(min_value=0, max_value=10**6))
    def test_nuclear_encryption_roundtrip(self, core, seed):
        key = random_crypt_key(random.Random(seed))
        assert decrypt_payload(encrypt_payload(core, key), key) == core

    @DEFAULT_SETTINGS
    @given(printable_core)
    def test_angler_hex_roundtrip(self, core):
        assert hex_decode(hex_encode(core)) == core

    @DEFAULT_SETTINGS
    @given(printable_core, st.integers(min_value=1, max_value=60))
    def test_sweetorange_junk_roundtrip(self, core, every):
        junk = "JuNkToKeN"
        if junk in core:
            core = core.replace(junk, "")
        assert remove_junk(insert_junk(core, junk, every), junk) == core


class TestRegexGeneralizationProperties:
    observed_values = st.lists(
        st.text(alphabet=string.ascii_letters + string.digits + "_$#.",
                min_size=1, max_size=20),
        min_size=1, max_size=6)

    @DEFAULT_SETTINGS
    @given(observed_values)
    def test_fragment_accepts_every_observed_value(self, values):
        fragment = generalize_column(values)
        compiled = re.compile(f"^(?:{fragment})$")
        for value in values:
            assert compiled.match(value), (fragment, value)

    @DEFAULT_SETTINGS
    @given(observed_values)
    def test_fragment_is_valid_regex(self, values):
        re.compile(generalize_column(values))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="09azAZ_$#/. \n", min_size=0,
                            max_size=6),
                    min_size=1, max_size=5))
    @example(["0", "0\n"])
    @example(["a$", "b$\n", "c"])
    def test_fragment_fullmatches_every_observed_value(self, values):
        """As the scanner compiles it (DOTALL), and with the values that
        break ``^...$`` validation: a trailing newline, blanks, ``$``."""
        fragment = generalize_column(values)
        for value in values:
            assert re.fullmatch(fragment, value, re.DOTALL), (fragment, value)


class TestAnchorSoundnessProperties:
    """An anchor is a *required* substring: whatever the pattern matches
    contains it, also when the constant text is full of characters that mean
    something to ``re`` (JS ``||`` is why: it arrives as ``\\|\\|``)."""

    SETTINGS = settings(max_examples=300, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])
    HOSTILE = "|([\\)]{}*+?.^$-,01ab "
    regex_hostile = st.text(alphabet=HOSTILE, min_size=1, max_size=12)

    @staticmethod
    def assert_anchors_required(pattern, text):
        assert re.compile(pattern, re.DOTALL).search(text), (pattern, text)
        for literal in required_literals(pattern):
            assert literal in text, (pattern, literal, text)
        for floor in (1, 8):
            anchor = best_anchor(pattern, min_length=floor)
            assert anchor is None or anchor in text, (pattern, anchor, text)

    @SETTINGS
    @given(st.text(alphabet=HOSTILE + "\n", min_size=1, max_size=12))
    def test_escaped_text(self, text):
        self.assert_anchors_required(re.escape(text), text)
        # Not vacuous: all of it is required, bars included (an escaped
        # newline is the one escape the walk does not read as a literal).
        assert "".join(required_literals(re.escape(text))) \
            == text.replace("\n", "")

    @SETTINGS
    @given(st.lists(st.lists(regex_hostile, min_size=3, max_size=3),
                    min_size=1, max_size=6),
           st.booleans())
    def test_built_patterns(self, rows, use_backreferences):
        # Three samples; a row whose values agree is a constant column,
        # equal varying rows become a named group and its backreference.
        columns = [TokenColumn(offset=offset, token_class="String",
                               values=values)
                   for offset, values in enumerate(rows)]
        pattern = build_pattern(columns,
                                use_backreferences=use_backreferences)
        for sample in range(3):
            self.assert_anchors_required(
                pattern, "".join(values[sample] for values in rows))

    @SETTINGS
    @given(st.text(alphabet="abAB01|.", min_size=1, max_size=12))
    def test_conditionals_and_global_flags(self, text):
        escaped = re.escape(text)
        self.assert_anchors_required("(?i)" + escaped, text.swapcase())
        self.assert_anchors_required(
            "(?x)" + " ".join(re.escape(character) for character in text),
            text)
        for matched in ("zz", "q" + text + "zz"):
            self.assert_anchors_required(f"(q)?(?(1){escaped})zz", matched)
        # A flag that leaves literal text alone keeps the whole anchor.
        self.assert_anchors_required("(?s)" + escaped, text)
        assert "".join(required_literals("(?s)" + escaped)) == text

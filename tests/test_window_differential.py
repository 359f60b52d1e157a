"""Differential tests: the window search over distinct abstract strings
against the per-member search it replaced, and the compile path that is
handed the cluster's abstract strings against the one that derives them.

``tests/oracle_window.py`` is ``repro.signatures.subsequence`` as it was when
every probe built one n-gram table per cluster member; it is the reference
here, compared on whole ``CommonWindow`` values (``length``, ``positions`` in
input order, ``window``).
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_window
from repro import Kizzle, KizzleConfig
from repro.ekgen import StreamConfig, TelemetryGenerator
from repro.signatures import SignatureCompiler, align_cluster, \
    common_token_window

D = datetime.date
SETTINGS = settings(max_examples=600, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def assert_same_window(members, max_tokens=200):
    expected = oracle_window.common_token_window(members,
                                                 max_tokens=max_tokens)
    actual = common_token_window(members, max_tokens=max_tokens)
    assert actual == expected, (members, max_tokens)
    return actual


# ----------------------------------------------------------------------
# hypothesis: small alphabets, so windows repeat and uniqueness is what fails
# ----------------------------------------------------------------------
@st.composite
def clusters(draw):
    """Members cut from a few variants of one core string: duplicated
    members, within-cluster variation, ``multiwindow._mask_window``'s
    per-member-unique placeholders, empty members, lists and tuples."""
    symbols = st.sampled_from("abcd"[:draw(st.integers(2, 4))])
    core = draw(st.lists(symbols, max_size=30))
    variants = [draw(st.lists(symbols, max_size=6)) + core
                + draw(st.lists(symbols, max_size=6))
                for _ in range(draw(st.integers(1, 3)))]
    members = [list(variants[pick]) for pick in draw(st.lists(
        st.integers(0, len(variants) - 1), min_size=1, max_size=6))]
    for index, member in enumerate(members):
        fate = draw(st.sampled_from(["keep"] * 5 + ["mask", "mask", "empty"]))
        if fate == "empty":
            del member[:]
        elif fate == "mask" and member:
            start = draw(st.integers(0, len(member) - 1))
            for offset in range(start, draw(st.integers(start, len(member)))):
                member[offset] = f"@@MASKED@@{index}:{offset}"
    if draw(st.booleans()):
        members = [tuple(member) for member in members]
    # Mostly below the shortest member, sometimes the paper's cap.
    return members, draw(st.sampled_from([1, 2, 3, 5, 8, 9, 13, 21, 200]))


class TestGeneratedClusters:
    @SETTINGS
    @given(clusters())
    def test_whole_window_equal(self, cluster):
        members, max_tokens = cluster
        assert_same_window(members, max_tokens)

    @SETTINGS
    @given(st.lists(st.lists(st.sampled_from("ab"), max_size=12),
                    min_size=1, max_size=5))
    def test_unrelated_members(self, members):
        assert_same_window(members)


# ----------------------------------------------------------------------
# the shapes the grouping must not change, one input each
# ----------------------------------------------------------------------
BODY = tuple(f"t{index}" for index in range(120))
# duplicates interleaved with a shifted variant: positions in input order
INTERLEAVED = [tuple("xabcdefg"), tuple("abcdefgy")] * 2
# uniqueness fails at every bisection probe (7, 3, 1); the 8..1 fallback
# finds the one feasible length, 4
FALLBACK = [tuple("abcdxabcybcdz"), tuple("pabcdqabcrbcds")]
NAMED = [
    # every member identical (what generated kit clusters look like)
    ([tuple("abcdefgh")] * 5, 200),
    (INTERLEAVED, 200), (FALLBACK, 200),
    # the first member is the rarer string
    ([tuple("zzabcdefg"), tuple("abcdefg"), tuple("abcdefg")], 200),
    # the cap binds, and sits below the shortest member
    ([BODY] * 3, 50), ([BODY, BODY[5:], BODY], 7),
    # nothing qualifies at all
    ([tuple("aaaa"), tuple("bbbb"), tuple("aaaa")], 200),
    ([tuple("abc"), (), tuple("abc")], 200), ([], 200),
    # a body served three times over: no window, see the xfail below
    ([BODY * 3] * 4, 200),
]


class TestNamedShapes:
    @pytest.mark.parametrize("members,max_tokens", NAMED)
    def test_shape(self, members, max_tokens):
        assert_same_window(members, max_tokens)

    def test_positions_follow_input_order(self):
        window = assert_same_window(INTERLEAVED)
        assert window.positions == [1, 0, 1, 0]
        assert window.window == tuple("abcdefg")

    def test_fallback_shape_reaches_the_linear_probe(self):
        window = assert_same_window(FALLBACK)
        assert window.window == tuple("abcd") and window.positions == [0, 1]

    @pytest.mark.xfail(strict=True, reason=(
        "known wrong answer (ROADMAP item 8(d)): the bisection moves down "
        "when a probe is infeasible, but here the failing condition is "
        "uniqueness, which gets easier as the window grows -- 200 is "
        "feasible, 100 is not, and the 8..1 fallback finds nothing, so the "
        "kit gets no signature.  The oracle gives the same None."))
    def test_body_served_three_times_over_gets_a_window(self):
        window = common_token_window([BODY * 3] * 4)
        assert window is not None and window.length == 200


# ----------------------------------------------------------------------
# the compile path: supplied abstract strings against derived ones
# ----------------------------------------------------------------------
def compiled_clusters(generator, kits, days):
    """``(cluster, kit, day, signature)`` for every cluster a cold pipeline
    compiled a signature for on ``days``."""
    kizzle = Kizzle(KizzleConfig(machines=4, min_points=3))
    for kit in kits:
        kizzle.seed_known_kit(
            kit, [generator.reference_core(kit, days[0] - datetime.timedelta(2))])
    compiled = []
    with kizzle:
        for day in days:
            batch = generator.generate_day(day)
            result = kizzle.process_day(
                [(s.sample_id, s.content) for s in batch.samples], day)
            compiled += [(report.cluster, report.label.kit, day,
                          report.signature)
                         for report in result.clusters
                         if report.signature is not None]
    return compiled


@pytest.fixture(scope="module")
def corpus_clusters():
    cold_day = compiled_clusters(
        TelemetryGenerator(StreamConfig(
            benign_per_day=18, seed=77,
            kit_daily_counts={"angler": 8, "nuclear": 4, "sweetorange": 5,
                              "rig": 3})),
        ("nuclear", "angler", "rig", "sweetorange"), [D(2014, 8, 5)])
    # Angler changes its packer on August 13: the second day compiles again.
    update_day = compiled_clusters(
        TelemetryGenerator(StreamConfig(
            benign_per_day=4, kit_daily_counts={"angler": 6},
            transition_fraction=1.0, seed=6)),
        ("angler",), [D(2014, 8, 12), D(2014, 8, 13)])
    assert len(cold_day) >= 3 and len(update_day) == 2
    return cold_day + update_day


class TestCompilePath:
    def test_same_pattern_with_and_without_the_abstract_strings(
            self, corpus_clusters):
        for cluster, kit, day, shipped in corpus_clusters:
            contents = cluster.contents()
            derived = SignatureCompiler().compile_cluster(contents, kit, day)
            supplied = SignatureCompiler().compile_cluster(
                contents, kit, day, token_strings=cluster.token_strings())
            assert derived.pattern == supplied.pattern == shipped.pattern
            assert derived.token_length == supplied.token_length

    def test_foreign_abstract_strings_raise_instead_of_compiling(
            self, corpus_clusters):
        for cluster, kit, day, _shipped in corpus_clusters:
            compiler = SignatureCompiler()
            # One token too many at the front: a window is still found, one
            # token off from where the contents have it.
            shifted = [("var",) + tokens for tokens in cluster.token_strings()]
            with pytest.raises(ValueError):
                compiler.compile_cluster(cluster.contents(), kit, day,
                                         token_strings=shifted)
            assert compiler.compiled_count == 0

    def test_the_check_is_per_token(self):
        contents = ["var a = 1;", "var b = 2;", "var c = 3;"]
        right = ("var", "Identifier", "=", "String", ";")
        wrong = ("var", "Identifier", "=", "Identifier", ";")
        assert [column.values for column in
                align_cluster(contents, token_strings=[right] * 3)] == [
            ["var"] * 3, ["a", "b", "c"], ["="] * 3, ["1", "2", "3"],
            [";"] * 3]
        with pytest.raises(ValueError):
            align_cluster(contents, token_strings=[wrong] * 3)
        with pytest.raises(ValueError):     # longer than the member lexes to
            align_cluster(contents, token_strings=[right + right] * 3)
        with pytest.raises(ValueError):     # one string per member
            align_cluster(contents, token_strings=[right] * 2)

"""Instance documents, exact scalars, bid files."""

from __future__ import annotations

import copy
import inspect
import json
import math
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopetition
from coopetition import (
    Ad,
    AuctionInstance,
    InstanceError,
    display_scalar,
    format_scalar,
    parse_bids,
    parse_instance,
    parse_scalar,
    serialize_instance,
    settle,
    total_bid,
)
from coopetition import model
from coopetition.model import (
    ZERO,
    Outcome,
    Record,
    exact_sum,
    instance_from_document,
    ratio_text,
)
from helpers import (
    F,
    ab_e,
    format_scalar_by_loops,
    make_instance,
    parse_scalar_by_fraction,
    prime_family,
    rival_family,
    triangle,
)

GOOD_DOC = """
{
  "advertisers": [
    {"name": "A", "value": "2"},
    {"name": "B", "value": "2"},
    {"name": "E", "value": "3"}
  ],
  "ads": [["A", "B"], ["E"]]
}
"""


class TestParseScalar:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("2.9", F(29, 10)),
            ("  0.125 ", F(1, 8)),
            ("3/4", F(3, 4)),
            ("7", F(7)),
            (7, F(7)),
            ("-1.5", F(-3, 2)),
            (F(5, 3), F(5, 3)),
        ],
    )
    def test_exact(self, raw, expected):
        assert parse_scalar(raw) == expected

    @pytest.mark.parametrize("raw", [2.9, True, None, [1], "1/0", "abc", ""])
    def test_rejects(self, raw):
        with pytest.raises(InstanceError):
            parse_scalar(raw)

    def test_error_names_location(self):
        with pytest.raises(InstanceError, match=r"advertisers\[0\]\.value"):
            parse_scalar(0.5, where="advertisers[0].value")

    @pytest.mark.parametrize(
        "raw",
        ["1e4301", "1E-4301", "2.5e+00004301", "1e4_301 ", "1e" + "9" * 5000, "9" * 4301],
        ids=["exponent", "negative", "padded", "underscore", "long-exponent", "4301-digits"],
    )
    def test_oversized_literals_are_rejected_before_conversion(self, raw):
        with pytest.raises(InstanceError, match=r"^bids\['A'\]: .*digits"):
            parse_scalar(raw, where="bids['A']")

    @pytest.mark.parametrize(
        "raw",
        ["1e4300", "1e-4300", "9" * 4300, "1/" + "3" * 4299],
        ids=["exponent", "negative", "4300-digits", "4300-digit-fraction"],
    )
    def test_literals_at_the_limit_parse(self, raw):
        assert parse_scalar(raw) == F(raw)


# Short strings over digits and the characters the plain-literal reader
# must not mistake for them: "²" and "٣" are digits to str.isdigit and "\\d"
# but not ASCII; "_", signs, spaces and exponents belong to Fraction alone.
LITERALS = st.text(st.sampled_from("0123456789²٣_+- ./e"), max_size=8)


def _read(read, *args):
    """A reader's Fraction, or its InstanceError text."""
    try:
        return read(*args)
    except InstanceError as exc:
        return str(exc)


class TestPlainLiterals:
    """Instance values and bids in the forms "123", "p/q" and "12.5" are
    read with int(); each value and every error must be what
    `parse_scalar_by_fraction`, which reads with `Fraction(text)`, says."""

    @given(LITERALS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_bids_read_as_the_reference_reads_them(self, text):
        instance = make_instance({"A": 5, "B": 1}, [["A"], ["B"]])
        got = _read(parse_bids, json.dumps({"bids": {"A": text}}), instance)
        expected = _read(parse_scalar_by_fraction, text, "bids['A']")
        assert (got[0] if isinstance(got, tuple) else got) == expected

    @given(LITERALS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_values_read_as_the_reference_reads_them(self, text):
        doc = {"advertisers": [{"name": "A", "value": text}], "ads": [["A"]]}
        got = _read(instance_from_document, doc)
        expected = _read(parse_scalar_by_fraction, text, "advertisers[0].value")
        if isinstance(expected, Fraction) and expected < 0:
            expected = f"advertisers[0].value: negative value {format_scalar(expected)}"
        assert (got if isinstance(got, str) else got.values[0]) == expected

    @pytest.mark.parametrize(
        "text, value",
        [("0", F(0)), ("007", F(7)), ("12.5", F(25, 2)), ("0.125", F(1, 8)), ("6/4", F(3, 2)),
         ("0/3", F(0)), ("9" * 40, F(int("9" * 40)))],
    )
    def test_plain_forms_are_read_with_int(self, text, value):
        assert parse_scalar(text) == value == parse_scalar_by_fraction(text)

    @pytest.mark.parametrize(
        "text",
        ["²", "1²", "٣", "1/٣", "1_0", "+1", "-1", " 1", "1 ", "1/0", "1/00", "/2", "2/", ".5",
         "5.", "1e2", "1.2.3", "1/2/3", "9" * 41, 7, True, None],
    )
    def test_every_other_form_is_left_to_parse_scalar(self, text):
        where = "advertisers[0].value"
        assert _read(parse_scalar, text, where) == _read(parse_scalar_by_fraction, text, where)

    def test_a_non_ascii_digit_is_a_located_error(self):
        doc = {"advertisers": [{"name": "A", "value": "²"}], "ads": [["A"]]}
        with pytest.raises(InstanceError) as caught:
            instance_from_document(doc)
        assert str(caught.value) == "advertisers[0].value: not an exact number: '²'"

    @pytest.mark.parametrize(
        "ads, message",
        [
            ([["A", "Q"]], "ads[0]: unknown advertiser 'Q'"),
            ([["A"], ["B", "B"]], "ads[1]: duplicate member 'B'"),
            ([["A", 3]], "ads[0]: unknown advertiser 3"),
            ([["A", ["B"]]], "ads[0]: unknown advertiser ['B']"),
            ([["A", {"B": 1}]], "ads[0]: unknown advertiser {'B': 1}"),
            ([["A", "A", "Q"]], "ads[0]: duplicate member 'A'"),
            ([["Q", "A", "A"]], "ads[0]: unknown advertiser 'Q'"),
        ],
        ids=["unknown", "duplicate", "int", "list", "dict", "duplicate-first", "unknown-first"],
    )
    def test_member_errors_name_the_first_bad_member(self, ads, message):
        doc = {"advertisers": [{"name": "A", "value": "1"}, {"name": "B", "value": "1"}], "ads": ads}
        with pytest.raises(InstanceError) as caught:
            instance_from_document(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize("index", [2, 7, -1])
    def test_an_index_out_of_range_is_named(self, index):
        ads = (Ad(frozenset({0})), Ad(frozenset({1, index})))
        with pytest.raises(InstanceError) as caught:
            AuctionInstance(("A", "B"), (F(1), F(1)), ads)
        assert str(caught.value) == f"ads[1]: unknown advertiser index {index}"


class TestFormatScalar:
    @pytest.mark.parametrize(
        "value, text",
        [
            (F(29, 10), "2.9"),
            (F(1, 8), "0.125"),
            (F(3), "3"),
            (F(0), "0"),
            (F(-3, 2), "-1.5"),
            (F(1, 3), "1/3"),
            (F(-5, 7), "-5/7"),
        ],
    )
    def test_shortest_exact_form(self, value, text):
        assert format_scalar(value) == text

    def test_display_adds_approximation_to_fractions(self):
        assert display_scalar(F(1, 3)) == "1/3 (~0.333333)"
        assert display_scalar(F(29, 10)) == "2.9"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("render", [format_scalar, display_scalar])
    @pytest.mark.parametrize(
        "value", [F(1, 10**4300 + 1), F(10**4300 + 1, 3), F(10**4400), F(1, 2**14300)]
    )
    def test_too_long_to_print_is_an_instance_error(self, render, value):
        # A scale may have 43000 digits; a number past the interpreter's
        # 4300-digit printing limit is an error that names it, not its hint.
        with pytest.raises(InstanceError, match=r"^a number to print has more than 4300 digits$"):
            render(value)
        assert render(F(1, 10**4299)) == format_scalar(F(1, 10**4299))

    @given(
        st.fractions(
            min_value=-1000, max_value=1000, max_denominator=10**6
        )
    )
    def test_round_trip(self, x):
        assert parse_scalar(format_scalar(x)) == x


def _printed(render, x: Fraction) -> tuple[str, str]:
    """A rendering's text, or the text of the InstanceError it raised."""
    try:
        return "text", render(x)
    except InstanceError as exc:
        return "error", str(exc)


# Numerators: small, negative, and past the 4300-digit print limit.
_NUMERATORS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(lambda sign, r: sign * (10**4300 + r), st.sampled_from((1, -1)), st.integers(0, 99)),
)


class TestDecimalPlans:
    """`format_scalar` reads one memoized plan per denominator; the loops it
    replaced stay in `tests/helpers` as the reference."""

    @given(
        _NUMERATORS,
        st.integers(0, 70),
        st.integers(0, 40),
        st.sampled_from((1, 1, 1, 3, 7, 9, 21, 49, 10**20 + 1)),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_loops(self, numerator, twos, fives, k):
        x = F(numerator, 2**twos * 5**fives * k)
        assert _printed(format_scalar, x) == _printed(format_scalar_by_loops, x)

    def test_the_print_limit_reads_the_same(self):
        # Denominators 2^a with a past 14,300 need that many decimal places.
        for x in (
            F(1, 2**14_300), F(-3, 2**14_280 * 5), F(7, 5**6_200), F(1, 10**4299),
            F(-(10**4300), 3), F(10**4300 + 1, 2**10), F(10**4299, 2**4 * 5**9 * 7),
        ):
            assert _printed(format_scalar, x) == _printed(format_scalar_by_loops, x)

    def test_the_memo_stays_within_its_bound(self):
        plans = model._decimal_plan
        for denominator in range(2, 10**4 + 2):
            assert format_scalar(F(1, denominator)) == format_scalar_by_loops(F(1, denominator))
        info = plans.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize


def _display_by_float(x: Fraction) -> str:
    """`display_scalar` as it reads a Fraction: the exact form, and for a
    "p/q" form float(x) to six digits, when x fits in a float."""
    text = format_scalar_by_loops(x)
    if "/" not in text:
        return text
    try:
        return f"{text} (~{float(x):.6g})"
    except OverflowError:
        return text


# Denominators of 2s and 5s only (a terminating decimal), of other primes,
# and past float range; numerators small, negative and past float range.
_RATIO_DENOMINATORS = st.one_of(
    st.builds(lambda twos, fives: 2**twos * 5**fives, st.integers(0, 70), st.integers(0, 40)),
    st.integers(1, 10**12),
    st.builds(lambda exponent, r: 10**exponent + r, st.integers(300, 400), st.integers(1, 99)),
)
_RATIO_NUMERATORS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.builds(
        lambda sign, exponent, r: sign * (10**exponent + r),
        st.sampled_from((1, -1)), st.integers(300, 400), st.integers(0, 99),
    ),
)


class TestRatioText:
    """Every report scalar is formatted from its ints by `ratio_text`; the
    loops of `tests/helpers` and float(x) are the references."""

    @given(_RATIO_NUMERATORS, _RATIO_DENOMINATORS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_format_and_display(self, numerator, denominator):
        x = F(numerator, denominator)
        n, d = x.numerator, x.denominator
        exact = _printed(format_scalar_by_loops, x)
        assert _printed(lambda _: ratio_text(n, d), x) == exact == _printed(format_scalar, x)
        shown = _printed(_display_by_float, x)
        assert _printed(lambda _: ratio_text(n, d, True), x) == shown == _printed(display_scalar, x)

    def test_past_float_range_the_approximation_is_dropped(self):
        big = 10**400 + 1
        assert ratio_text(big, 3, True) == ratio_text(big, 3) == f"{big}/3"
        assert ratio_text(-big, 7, True) == f"{-big}/7"
        assert ratio_text(1, big, True) == f"1/{big} (~0)"
        assert ratio_text(2**1023 * 3, 7, True) == f"{2**1023 * 3}/7 (~3.8522e+307)"

    def test_the_print_limit_is_an_instance_error(self):
        for n, d in ((10**4300, 3), (1, 10**4300 + 1), (1, 2**14_300), (10**4300 + 1, 2**10)):
            with pytest.raises(InstanceError, match="^a number to print has more than 4300 digits$"):
                ratio_text(n, d, True)


class TestParseInstance:
    def test_good_document(self):
        instance = parse_instance(GOOD_DOC)
        assert instance.names == ("A", "B", "E")
        assert instance.values == (F(2), F(2), F(3))
        assert instance.members(0) == frozenset({0, 1})
        assert instance.members(1) == frozenset({2})
        assert instance.label(0) == "ad 0 {A, B}"

    def test_round_trip(self):
        instance = parse_instance(GOOD_DOC)
        assert parse_instance(serialize_instance(instance)) == instance

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("advertisers"), r"advertisers: expected a non-empty list"),
            (lambda d: d["advertisers"][1].update(name="A"), r"advertisers\[1\]\.name: duplicate"),
            (lambda d: d["advertisers"][0].update(value="-1"), r"advertisers\[0\]\.value: negative"),
            (lambda d: d["advertisers"][0].update(value=0.5), r"advertisers\[0\]\.value: floats"),
            (lambda d: d["ads"].append(["A", "Z"]), r"ads\[2\]: unknown advertiser 'Z'"),
            (lambda d: d["ads"].append(["A", "A"]), r"ads\[2\]: duplicate member 'A'"),
            (lambda d: d["ads"].append([]), r"ads\[2\]: expected a non-empty list"),
            (lambda d: d["ads"].append(["B", "A"]), r"ads\[2\]: identical member set to ads\[0\]"),
            (lambda d: d["ads"].pop(), r"advertiser 'E' appears in no ad"),
        ],
    )
    def test_located_errors(self, mutate, message):
        doc = json.loads(GOOD_DOC)
        mutate(doc)
        with pytest.raises(InstanceError, match=message):
            parse_instance(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(InstanceError, match="not valid JSON"):
            parse_instance("{advertisers:")

    def test_build_rejects_unknown_member(self):
        with pytest.raises(InstanceError, match=r"ads\[0\]: unknown advertiser 'Q'"):
            make_instance({"A": 1}, [["Q"]])


# Plain literals that are not in lowest terms or carry leading zeros.
UNREDUCED = ["2/4", "0.50", "007", "10/20", "0/5", "0.0", "000/3", "12.500"]


class TestOnePassReader:
    """`instance_from_document` and `parse_bids` read plain literals to
    reduced ints in one pass and build the instance without re-checking what
    that pass settled; the results and every error stay as they were."""

    @pytest.mark.parametrize("text", UNREDUCED)
    def test_unreduced_plain_literals_read_as_the_reference_reads_them(self, text):
        expected = parse_scalar_by_fraction(text)
        doc = {"advertisers": [{"name": "A", "value": text}, {"name": "B", "value": "1"}],
               "ads": [["A"], ["B"]]}
        instance = instance_from_document(doc)
        assert instance.values[0] == expected == parse_scalar(text)
        assert F(instance._units[0], instance._scale) == expected
        assert instance._scale == expected.denominator
        assert parse_bids(json.dumps({"bids": {"A": text}}), instance)[0] == expected

    @pytest.mark.parametrize("members", [3, 17, 32, 40, 48])
    def test_wide_documents_build_the_instance_the_constructor_builds(self, members):
        rng = random.Random(members)
        source = rival_family(rng, members, rivals_per_member=2)
        # Each value written in one of its equal forms, plain or not.
        advertisers = []
        for name, value in zip(source.names, source.values):
            n, d = value.numerator, value.denominator
            forms = [format_scalar(value), f"{n}/{d}", f"{3 * n}/{3 * d}", f"+{n}/{d}"]
            forms += [n, f"{n}.000"] if d == 1 else []
            advertisers.append({"name": name, "value": rng.choice(forms)})
        ads = [[source.names[i] for i in sorted(ad.members)] for ad in source.ads]
        for ad in ads:
            rng.shuffle(ad)
        instance = instance_from_document({"advertisers": advertisers, "ads": ads})
        built = AuctionInstance(source.names, tuple(map(F, source.values)), source.ads)
        assert instance == built == source
        assert (instance._scale, instance._units, instance._totals) == (
            built._scale, built._units, built._totals,
        )
        assert [F(t, instance._scale) for t in instance._totals] == [
            sum((source.values[i] for i in ad.members), F(0)) for ad in source.ads
        ]

    @pytest.mark.parametrize(
        "values, ads, message",
        [
            (["-1", "1"], [["A0", "A1", "Q"]], "ads[0]: unknown advertiser 'Q'"),
            (["1", "-1", "x"], [["A0", "A1", "A2"]], "advertisers[2].value: not an exact number: 'x'"),
            (["1", "-2"], [["A0"], ["A1"], ["A0"]], "advertisers[1].value: negative value -2"),
            ([-3, 2], [["A0", "A1"]], "advertisers[0].value: negative value -3"),
            (["1", "2", "3"], [["A0"], ["A0"]], "ads[1]: identical member set to ads[0]"),
            (["1", "2"], [["A0"], ["A1"], ["A1"], ["A0"]], "ads[2]: identical member set to ads[1]"),
            (["1"], [["A0"], ["A0"], []], "ads[2]: expected a non-empty list of advertiser names"),
            (["1", "2", "3"], [["A0"], ["A2"]], "advertiser 'A1' appears in no ad"),
        ],
        ids=["member-first", "value-first", "negative-first", "int-negative", "twin-first",
             "first-twin", "shape-first", "coverage"],
    )
    def test_each_check_runs_once_in_the_constructors_order(self, values, ads, message):
        # The document's own checks come first, then the constructor's:
        # negative values, the scale, repeated member sets, coverage.
        doc = {"advertisers": [{"name": f"A{i}", "value": v} for i, v in enumerate(values)],
               "ads": ads}
        with pytest.raises(InstanceError) as caught:
            instance_from_document(doc)
        assert str(caught.value) == message

    def test_the_scale_limit_comes_after_every_value_is_read(self):
        huge = [f"1/{10**4000 + 2 * i + 1}" for i in range(12)]
        for extra, message in (
            ("x", "advertisers[12].value: not an exact number: 'x'"),
            ("-1", "advertisers[12].value: negative value -1"),
            ("1", "advertisers[10].value: the values' common denominator has more than 43000 digits"),
        ):
            doc = {"advertisers": [{"name": f"A{i}", "value": v} for i, v in enumerate(huge + [extra])],
                   "ads": [[f"A{i}"] for i in range(13)]}
            with pytest.raises(InstanceError) as caught:
                instance_from_document(doc)
            assert str(caught.value) == message


class TestConstructorReadsAsDocuments:
    """`AuctionInstance(...)` checks one value per name and the member
    indices, then reads the equivalent instance document, so it rejects what
    a document would, with the document's located message."""

    @pytest.mark.parametrize(
        "names, values, ads, message",
        [
            ((1,), (1,), [{0}], "advertisers[0].name: expected a non-empty string"),
            (("",), (1,), [{0}], "advertisers[0].name: expected a non-empty string"),
            (("A", None), (1, 1), [{0, 1}], "advertisers[1].name: expected a non-empty string"),
            ((), (), [], "advertisers: expected a non-empty list"),
            (("A", "A"), (1, 2), [{0}, {1}], "advertisers[1].name: duplicate advertiser 'A'"),
            (("A",), (1,), [], "ads: expected a non-empty list"),
            (("A",), (1,), [{0}, set()], "ads[1]: expected a non-empty list of advertiser names"),
            (("A", "B"), (1,), [{0, 1}], "one value per advertiser is required"),
            (("A", "B"), (1, 1), [{0}, {True}], "ads[1]: unknown advertiser index True"),
            (("A", "B"), (1, 1), [{0}, {"B"}], "ads[1]: unknown advertiser index 'B'"),
        ],
        ids=["int-name", "empty-name", "none-name", "no-names", "duplicate-name", "no-ads",
             "empty-ad", "value-count", "bool-index", "str-index"],
    )
    def test_errors_are_the_documents(self, names, values, ads, message):
        with pytest.raises(InstanceError) as caught:
            AuctionInstance(names, values, tuple(Ad(frozenset(ad)) for ad in ads))
        assert str(caught.value) == message

    def test_a_list_of_names_builds_the_documents_instance(self):
        ads = [Ad(frozenset({0, 1})), Ad(frozenset({1}))]
        instance = AuctionInstance(["A", "B"], ["1/2", 2], ads)
        assert instance == make_instance({"A": "1/2", "B": 2}, [["A", "B"], ["B"]])
        assert (instance.names, instance.values) == (("A", "B"), (F(1, 2), F(2)))
        assert instance.label(0) == "ad 0 {A, B}"


class TestParseBids:
    def test_full_profile(self):
        instance = ab_e()
        bids = parse_bids('{"bids": {"A": "1.5", "B": "0.5", "E": "3"}}', instance)
        assert bids == (F(3, 2), F(1, 2), F(3))

    def test_omitted_advertisers_bid_their_values(self):
        instance = ab_e()
        assert parse_bids('{"bids": {"A": "0"}}', instance) == (F(0), F(2), F(3))
        assert parse_bids('{"bids": {}}', instance) == instance.values

    def test_unknown_name(self):
        with pytest.raises(InstanceError, match="unknown advertiser 'Z'"):
            parse_bids('{"bids": {"Z": "1"}}', ab_e())

    def test_shape(self):
        with pytest.raises(InstanceError, match="expected"):
            parse_bids('{"amounts": {}}', ab_e())


class TestTotals:
    def test_total_value(self):
        # An ad's total value is the sum of its members' values, which the
        # instance caches in its units.
        instance = triangle()
        totals = [sum((instance.values[i] for i in ad.members), F(0)) for ad in instance.ads]
        assert totals == [F(3), F(2), F(2)]
        assert [F(t, instance._scale) for t in instance._totals] == totals

    def test_total_bid(self):
        instance = triangle()
        bids = (F(1, 2),) * 3 + (F(1), F(1))
        assert total_bid(instance, bids, 0) == F(3, 2)
        assert total_bid(instance, bids, 2) == F(3, 2)


# Denominators are products of distinct primes, so the common denominator of
# several terms outgrows each one and the running numerator is rescaled.
_SQUAREFREE = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), unique=True).map(math.prod)
_TERMS = st.lists(
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.builds(Fraction, st.integers(-(10**6), 10**6), _SQUAREFREE),
    ),
    max_size=12,
)


class TestExactSum:
    @given(_TERMS)
    def test_matches_the_fraction_sum(self, terms):
        result = exact_sum(terms)
        assert type(result) is Fraction
        assert result == sum(terms, Fraction(0))
        assert exact_sum(iter(terms)) == result

    def test_empty_and_cancelling_sums_are_fraction_zero(self):
        for terms in ([], [0], [F(1, 3), F(-1, 6), 2, F(-13, 6)]):
            result = exact_sum(terms)
            assert type(result) is Fraction and result == 0 and result.denominator == 1


class TestSettle:
    def test_charges_only_winning_members(self):
        instance = ab_e()
        outcome = settle(instance, 0, (F(1), F(2), F(3)))
        assert outcome.winner == 0
        assert outcome.payments == (F(1), F(2), F(0))
        assert outcome.revenue == F(3)
        assert outcome.surpluses == (F(1), F(0), F(0))

    def test_losers_keep_zero_surplus(self):
        instance = ab_e()
        outcome = settle(instance, 1, (F(1), F(2), F(3)))
        assert outcome.payments == (F(0), F(0), F(3))
        assert outcome.surpluses == (F(0), F(0), F(0))

    def test_families_match_a_fraction_reference(self):
        rng = random.Random(2024)
        for case in range(60):
            members = 3 + case % 14
            if case % 2:
                instance = prime_family(rng, members, 2 * members)
            else:
                instance = rival_family(rng, members, rivals_per_member=2)
            winner = rng.randrange(instance.m)
            inside = instance.members(winner)
            # Bids of every kind: a new zero, the shared zero, above value.
            bids = [
                rng.choice((F(0), ZERO, value, value * F(rng.randint(0, 30), rng.choice((7, 10)))))
                for value in instance.values
            ]
            outcome = settle(instance, winner, bids)
            payments = tuple(bids[i] if i in inside else F(0) for i in range(instance.n))
            assert outcome.winner == winner
            assert outcome.payments == payments
            assert outcome.surpluses == tuple(
                instance.values[i] - bids[i] if i in inside else F(0) for i in range(instance.n)
            )
            assert outcome.revenue == sum(payments, F(0))
            assert type(outcome.revenue) is Fraction

    def test_revenue_is_read_off_the_payments(self):
        outcome = Outcome(0, (F(1), ZERO, F(1, 2), F(0)), (F(0),) * 4)
        assert outcome.revenue == F(3, 2) and type(outcome.revenue) is Fraction
        assert Outcome.__slots__ == ("winner", "payments", "surpluses")
        with pytest.raises(AttributeError):
            outcome.revenue = F(1)


def _record_samples():
    """One valid record of every record type, as (type, positional args)."""
    c = coopetition
    instance = make_instance({"A": 1, "B": 2}, [["A", "B"], ["B"]])
    ad = instance.ads[0]
    row = c.CefConstraint(1, frozenset({0}), 1)
    lowering = c.LoweringRound(F(1), (0,), (1,), (0,))
    return [
        (c.GridSpec, (F(1, 2), 5)),
        (c.Ad, (frozenset({0, 1}),)),
        (c.AuctionInstance, (("A", "B"), (F(1), F(2)), (ad, c.Ad(frozenset({1}))))),
        (c.Outcome, (0, (F(1), F(0)), (F(0), F(2)))),
        (c.CefConstraint, (1, frozenset({0}), 2)),
        (c.CefPolytope, (instance, 0, (row,))),
        (c.EquilibriumResult, (None, "A could lower")),
        (c.LoweringRound, (F(1), (0,), (1,), (0,))),
        (c.LoweringTrace, (0, (lowering,))),
        (c.OwnedAuction, (instance, (0, 1), (F(1), F(1, 2)))),
        (c.ContractTerm, (1, 0, F(1, 2), F(3), F(0))),
        (c.PositionOutcome, ({0: 0}, {0: F(3)}, (F(0), F(8)))),
    ]


RECORD_SAMPLES = _record_samples()

# A subclass that declares no fields of its own inherits its parent's; it
# is defined here, at module level, so that pickle can find it by name.
SlotlessConstraint = type("SlotlessConstraint", (coopetition.CefConstraint,), {"__slots__": ()})


def _field_names(cls) -> tuple[str, ...]:
    """The fields of a record type: the `__slots__` of the nearest class in
    its MRO that lists any."""
    return next(k.__slots__ for k in cls.__mro__ if k.__dict__.get("__slots__"))


# The certificate and the round events are fields of the records above now:
# a passing verdict's `witnesses` and a round's `zeros` and `tight`. These
# samples keep their record semantics under the names they once had.
FOLDED_SAMPLES = [
    ("EquilibriumCertificate", coopetition.EquilibriumResult, ({0: None, 1: 2}, None)),
    ("RoundEvent", coopetition.LoweringRound, (F(1), (), (1,), (0,))),
]


def _hashable(cls, values) -> bool:
    """Whether a record built from `values` hashes: when they all hash, or
    when the record keeps read-only copies of its mapping arguments."""
    if cls in (coopetition.EquilibriumResult, coopetition.PositionOutcome):
        return True
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_record_type_is_sampled():
    assert set(Record.__subclasses__()) == {cls for cls, _ in RECORD_SAMPLES}
    assert len(RECORD_SAMPLES) == 12


@pytest.mark.parametrize(
    "cls, args",
    [pytest.param(cls, args, id=cls.__name__) for cls, args in RECORD_SAMPLES]
    + [pytest.param(cls, args, id=name) for name, cls, args in FOLDED_SAMPLES]
    + [pytest.param(SlotlessConstraint, (1, frozenset({0}), 2), id="SlotlessConstraint")],
)
class TestRecordSemantics:
    def test_keyword_and_positional_construction(self, cls, args):
        record = cls(*args)
        assert record == cls(**dict(zip(_field_names(cls), args)))
        assert tuple(getattr(record, name) for name in _field_names(cls)) == args
        assert not hasattr(record, "__dict__")

    def test_equality_within_one_type_only(self, cls, args):
        record, twin = cls(*args), cls(*args)
        assert record == twin and not record != twin
        other_type = type(cls.__name__, (cls,), {"__slots__": ()})
        assert record != other_type(*args)
        assert record != args
        if _hashable(cls, args):
            assert hash(record) == hash(twin)
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_assignment_and_deletion_raise(self, cls, args):
        record = cls(*args)
        for name in _field_names(cls):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(*args)

    def test_repr_names_every_field(self, cls, args):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_field_names(cls), args))
        assert repr(cls(*args)) == f"{cls.__name__}({fields})"

    def test_copy_and_pickle_round_trip(self, cls, args):
        record = cls(*args)
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls and clone == record


def test_constructor_parameters_are_the_slots():
    for cls, _ in RECORD_SAMPLES:
        assert tuple(inspect.signature(cls).parameters) == cls.__slots__, cls.__name__


def test_a_subclass_without_slots_of_its_own_keeps_its_fields():
    record = SlotlessConstraint(1, frozenset({0}), 2)
    assert repr(record) == "SlotlessConstraint(ad=1, bidders=frozenset({0}), room=2)"
    other = SlotlessConstraint(2, frozenset({1}), 5)
    assert record != other and hash(record) != hash(other)
    assert hash(record) == hash((1, frozenset({0}), 2))
    assert pickle.loads(pickle.dumps(record)) == record


# The records whose constructor only stores its arguments: it is generated
# from the slots and reports a missing argument as a hand-written one would.
GENERATED = ("Ad", "CefConstraint", "CefPolytope", "LoweringRound", "LoweringTrace", "Outcome")


@pytest.mark.parametrize(
    "cls, args",
    [
        pytest.param(cls, args, id=cls.__name__)
        for cls, args in RECORD_SAMPLES
        if cls.__name__ in GENERATED
    ],
)
def test_a_missing_argument_names_the_record(cls, args):
    message = f"{cls.__name__}.__init__() missing 1 required positional argument: "
    with pytest.raises(TypeError, match=f"^{re.escape(message)}'{cls.__slots__[-1]}'$"):
        cls(*args[:-1])


def _number_entry_points():
    """(id, call putting a caller's number at one position, that position)."""
    c = coopetition
    polytope = c.build_polytope(triangle())
    owned = c.OwnedAuction(triangle(), (0, 3, 4), (F(1), F(1, 2)))
    ads = (c.Ad(frozenset({0})), c.Ad(frozenset({1})))
    return [
        ("check_bids", lambda x: c.is_equilibrium(polytope, [F(1, 2), x, 0, 1, 1]), "bids[1]"),
        ("weights", lambda x: c.sample_pareto_equilibrium(polytope, [1, x, 1]), "weights[1]"),
        ("effective_bids", lambda x: c.position_vcg(owned, [1, x, F(1, 3)]), "effective_bids[1]"),
        ("fraction", lambda x: c.ContractTerm(1, 0, x, F(3), F(0)), "fraction"),
        ("cap", lambda x: c.ContractTerm(1, 0, F(1, 2), x, F(0)), "cap"),
        ("subsidy", lambda x: c.ContractTerm(1, 0, F(1, 2), F(3), x), "subsidy"),
        ("amount", lambda x: c.ContractTerm.committed(1, 0, x), "amount"),
        ("epsilon", lambda x: c.GridSpec(x), "epsilon"),
        ("value", lambda x: c.AuctionInstance(("A", "B"), (F(1), x), ads), "advertisers[1].value"),
        ("slots", lambda x: c.OwnedAuction(triangle(), (0, 3, 4), (x, F(1, 4))), "slots[0]"),
        (
            "max_subsidy",
            lambda x: c.best_response_contract(owned, 1, (), c.GridSpec(F(1, 2)), max_subsidy=x),
            "max_subsidy",
        ),
    ]


@pytest.mark.parametrize(
    "call, where",
    [pytest.param(call, where, id=name) for name, call, where in _number_entry_points()],
)
def test_entry_points_read_numbers_as_documents_do(call, where):
    # A float is already inexact and a bool is no number: each is a located
    # error, so 0.1 is never read as its binary expansion.
    for bad, problem in ((0.1, "floats are inexact"), (True, "expected a number, got a boolean")):
        with pytest.raises(InstanceError, match=f"^{re.escape(where)}: {problem}"):
            call(bad)
    # Ints, strings and Fractions read as the Fraction they denote.
    for good in (1, "1/2", F(1, 2)):
        assert repr(call(good)) == repr(call(parse_scalar(good)))


class TestInstanceScale:
    """The integer scale is a cache beside the record's fields, never one of them."""

    def sample(self):
        return make_instance({"A": "1/3", "B": "2.5", "C": 0}, [["A", "B"], ["B", "C"], ["C"]])

    def test_one_scale_for_every_value(self):
        instance = self.sample()
        assert (instance._scale, instance._units, instance._totals) == (6, (2, 15, 0), (17, 15, 0))
        assert [F(t, instance._scale) for t in instance._totals] == [F(17, 6), F(5, 2), F(0)]

    def test_the_scale_admits_any_one_literal(self):
        # The scale limit is ten times the literal limit, in digits.
        for literal in ("1e-4300", "0." + "9" * 4295 + "e-4300"):
            instance = make_instance({"A": literal, "B": 1}, [["A"], ["B"]])
            assert instance._scale == parse_scalar(literal).denominator

    def test_a_scale_past_its_limit_names_the_value_that_crossed_it(self):
        values = {f"A{i}": F(1, 10**4000 + 2 * i + 1) for i in range(12)}
        with pytest.raises(InstanceError, match=r"^advertisers\[10\]\.value: .* 43000 digits$"):
            make_instance(values, [[name] for name in values])

    def test_bids_past_the_scale_limit_name_the_bid_that_crossed_it(self):
        # The bids are held to the values' limit, through the same helper.
        instance = make_instance({f"A{i}": 1 for i in range(12)}, [[f"A{i}" for i in range(12)]])
        bids = {f"A{i}": f"1/{10**4000 + 2 * i + 1}" for i in range(12)}
        with pytest.raises(InstanceError, match=r"^bids\['A10'\]: the bids' .* 43000 digits$"):
            parse_bids(json.dumps({"bids": bids}), instance)
        del bids["A11"], bids["A10"]
        assert parse_bids(json.dumps({"bids": bids}), instance)[9] == F(1, 10**4000 + 19)

    def test_record_semantics_see_only_the_fields(self):
        instance = self.sample()
        fields = (instance.names, instance.values, instance.ads)
        assert coopetition.AuctionInstance.__slots__ == ("names", "values", "ads")
        assert instance == coopetition.AuctionInstance(*fields)
        assert hash(instance) == hash(fields)
        assert repr(instance) == (
            f"AuctionInstance(names={fields[0]!r}, values={fields[1]!r}, ads={fields[2]!r})"
        )
        assert instance.__reduce__() == (coopetition.AuctionInstance, fields)
        with pytest.raises(AttributeError):
            instance._scale = 1

    def test_copies_and_pickles_rebuild_the_scale(self):
        instance = self.sample()
        payload = pickle.dumps(instance)
        assert b"_scale" not in payload and b"_totals" not in payload
        for clone in (copy.copy(instance), copy.deepcopy(instance), pickle.loads(payload)):
            assert clone == instance
            assert (clone._scale, clone._units, clone._totals) == (6, (2, 15, 0), (17, 15, 0))


@pytest.mark.parametrize(
    "args, message",
    [
        ((F(0),), "epsilon: must be positive"),
        ((F(-1, 2),), "epsilon: must be positive"),
        ((F(1), "5"), "budget: expected an int, got str"),
        ((F(1), 1.5), "budget: expected an int, got float"),
        ((F(1), True), "budget: expected an int, got bool"),
        ((F(1), None), "budget: expected an int, got NoneType"),
        ((F(1), 0), "budget: must be at least 1"),
    ],
)
def test_grid_spec_errors_name_the_parameter(args, message):
    with pytest.raises(InstanceError) as caught:
        coopetition.GridSpec(*args)
    assert str(caught.value) == message


def test_check_bids_counts_the_profile():
    with pytest.raises(InstanceError) as caught:
        coopetition.check_bids(ab_e(), [F(1), F(2)])
    assert str(caught.value) == "bid profile has 2 entries, instance has 3 advertisers"


def test_record_defaults_and_repr():
    assert coopetition.GridSpec(F(1)).budget == 10_000_000
    failed = coopetition.EquilibriumResult(failure="A could lower")
    assert (failed.witnesses, failed.ok, bool(failed)) == (None, False, False)
    passed = coopetition.EquilibriumResult({0: None})
    assert (passed.failure, passed.ok, bool(passed)) == (None, True, True)
    for both_or_neither in ((), ({0: None}, "A could lower")):
        # A caller's slip, and never reachable from a document: a bug, not bad input.
        with pytest.raises(
            coopetition.InternalError, match="^exactly one of witnesses and failure must be set$"
        ):
            coopetition.EquilibriumResult(*both_or_neither)
    assert repr(coopetition.GridSpec(F(1, 2))) == (
        "GridSpec(epsilon=Fraction(1, 2), budget=10000000)"
    )
    assert repr(coopetition.Ad(frozenset({1}))) == "Ad(members=frozenset({1}))"

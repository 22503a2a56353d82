"""Instance documents, exact scalars, bid files."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopetition import (
    InstanceError,
    display_scalar,
    format_scalar,
    parse_bids,
    parse_instance,
    parse_scalar,
    serialize_instance,
    settle,
    total_bid,
    total_value,
)
from coopetition.model import exact_sum
from helpers import F, ab_e, make_instance, triangle

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

    @given(
        st.fractions(
            min_value=-1000, max_value=1000, max_denominator=10**6
        )
    )
    def test_round_trip(self, x):
        assert parse_scalar(format_scalar(x)) == x


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
        instance = triangle()
        assert total_value(instance, 0) == F(3)
        assert total_value(instance, 1) == F(2)

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

"""Winner determination, coopetitive VCG, first-price clearing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopetition import (
    build_polytope,
    efficient_winner,
    first_price_clear,
    revenue_lower_bound,
    total_value,
    vcg,
    vcg_bruteforce,
    welfare_ties,
)
from helpers import (
    F,
    ab_e,
    four_ones,
    make_instance,
    random_instance,
    rival_family,
    single_ad,
    triangle,
)


class TestEfficientWinner:
    def test_highest_total_value(self):
        assert efficient_winner(ab_e()) == 0
        assert efficient_winner(triangle()) == 0

    def test_ties_break_to_lowest_ad_id(self):
        instance = make_instance({"A": 2, "B": 1, "C": 1}, [["B", "C"], ["A"]])
        assert efficient_winner(instance) == 0
        assert welfare_ties(instance) == (0, 1)
        # Ad 0 is lower; ads 1 and 2 tie. Every caller of the rule picks ad 1.
        instance = make_instance(
            {"A": 1, "B": 2, "C": 1, "D": 1}, [["A"], ["B"], ["C", "D"]]
        )
        assert efficient_winner(instance) == 1
        assert welfare_ties(instance) == (1, 2)
        assert vcg(instance).winner == 1
        assert build_polytope(instance).winner == 1

    def test_no_tie_reports_single_ad(self):
        assert welfare_ties(ab_e()) == (0,)


class TestVcg:
    def test_cooperation_can_erase_all_payments(self):
        result = vcg(four_ones())
        assert result.winner == 0
        assert result.payments == (F(0),) * 5
        assert result.revenue == F(0)

    def test_partial_externalities_are_charged(self):
        result = vcg(ab_e())
        assert result.winner == 0
        assert result.payments == (F(1), F(1), F(0))
        assert result.revenue == F(2)

    def test_triangle_charges_nothing(self):
        result = vcg(triangle())
        assert result.payments == (F(0),) * 5

    def test_single_ad_is_free(self):
        assert vcg(single_ad()).revenue == F(0)

    def test_losing_ad_members_pay_nothing(self):
        result = vcg(ab_e())
        assert result.payments[2] == F(0)

    def test_dropping_a_member_ties_other_ads(self):
        # Without B the winner's other members keep 4, which ties {A, D} and
        # {E}: B pays 0. Without A the best is {B, C, F} at 5 against 3: A
        # pays 2.
        instance = make_instance(
            {"A": 3, "B": 2, "C": 1, "D": 1, "E": 4, "F": 2},
            [["A", "B", "C"], ["A", "D"], ["E"], ["B", "C", "F"]],
        )
        expected = (F(2), F(0), F(0), F(0), F(0), F(0))
        assert vcg(instance).payments == expected
        assert vcg_bruteforce(instance) == vcg(instance)

    def test_matches_the_breakpoint_oracle_beyond_eight_advertisers(self):
        # Winners of 12-20 members against two rival ads per member.
        rng = random.Random(12)
        for case in range(27):
            instance = rival_family(rng, 12 + case % 9, rivals_per_member=2)
            assert vcg(instance) == vcg_bruteforce(instance)

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_payments_sit_between_zero_and_value(self, seed):
        instance = random_instance(random.Random(seed))
        result = vcg(instance)
        assert result.winner == efficient_winner(instance)
        members = instance.members(result.winner)
        for i in range(instance.n):
            assert F(0) <= result.payments[i]
            assert result.payments[i] <= instance.values[i]
            if i not in members:
                assert result.payments[i] == F(0)
        assert result.revenue <= total_value(instance, result.winner)


class TestFirstPriceClear:
    def test_highest_total_bid_wins_and_pays_bids(self):
        instance = ab_e()
        outcome = first_price_clear(instance, (F(1), F(1), F("1.5")))
        assert outcome.winner == 0
        assert outcome.payments == (F(1), F(1), F(0))
        assert outcome.revenue == F(2)
        assert outcome.surpluses == (F(1), F(1), F(0))

    def test_bid_ties_break_to_lowest_ad_id(self):
        instance = ab_e()
        outcome = first_price_clear(instance, (F(1), F(2), F(3)))
        assert outcome.winner == 0

    def test_rival_can_outbid_the_efficient_ad(self):
        instance = ab_e()
        outcome = first_price_clear(instance, (F(0), F(0), F(3)))
        assert outcome.winner == 1
        assert outcome.revenue == F(3)


class TestRevenueLowerBound:
    @pytest.mark.parametrize(
        "instance, bound",
        [
            (ab_e(), F(3)),
            (four_ones(), F("2.9")),
            (triangle(), F(1)),
            (single_ad(), F(0)),
        ],
    )
    def test_best_outside_rival(self, instance, bound):
        assert revenue_lower_bound(instance) == bound

    def test_overlap_with_winner_does_not_count(self):
        # Rival {A, D}: only D is outside the winning ad.
        instance = make_instance(
            {"A": 3, "B": 3, "D": 2}, [["A", "B"], ["A", "D"]]
        )
        assert revenue_lower_bound(instance) == F(2)

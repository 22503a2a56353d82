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
    settle,
    total_value,
    vcg,
    vcg_bruteforce,
    welfare_ties,
)
from coopetition.model import ZERO
from helpers import (
    F,
    ab_e,
    four_ones,
    make_instance,
    prime_family,
    random_instance,
    random_value,
    rival_family,
    single_ad,
    triangle,
    vcg_by_member_scan,
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

    def test_clears_to_the_outcome_of_its_payments(self):
        # Members keep value minus payment; the losing E keeps 0.
        instance = ab_e()
        assert vcg(instance) == settle(instance, 0, (F(1), F(1), F(0)))
        assert vcg(instance).surpluses == (F(1), F(1), F(0))

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


class TestVcgWalk:
    """The walk over the ads by descending total against the breakpoint
    oracle and the per-member scan it replaced."""

    def check(self, instance) -> None:
        result = vcg(instance)
        assert result == vcg_by_member_scan(instance)
        assert result == vcg_bruteforce(instance)
        # Only a positive payment is a Fraction of its own; every other
        # payment is the one shared zero.
        assert all(payment > 0 or payment is ZERO for payment in result.payments)

    @pytest.mark.parametrize("members", [32, 40, 48])
    def test_wide_rival_winners(self, members):
        self.check(rival_family(random.Random(members), members, rivals_per_member=2))

    def test_the_acceptance_family(self):
        rng = random.Random(1919)
        for _ in range(300):
            self.check(random_instance(rng))

    def test_a_single_ad(self):
        self.check(single_ad())
        self.check(make_instance({"A": 3, "B": 0}, [["A", "B"]]))

    def test_every_ad_holds_one_member(self):
        rng = random.Random(7)
        for n in (1, 2, 5, 30):
            values = {f"A{i}": random_value(rng) for i in range(n)}
            self.check(make_instance(values, [[name] for name in values]))

    def test_a_shortfall_of_exactly_zero_pays_the_shared_zero(self):
        # Without B, the best rival {A, C, R} reaches 2, exactly what A and C
        # get: B's shortfall is 0. Without C, {A, B, S} reaches 2 + 1/2.
        instance = make_instance(
            {"A": 1, "B": 1, "C": 1, "R": 0, "S": "1/2"},
            [["A", "B", "C"], ["A", "C", "R"], ["A", "B", "S"]],
        )
        result = vcg(instance)
        assert result.payments == (F(0), F(0), F("1/2"), F(0), F(0))
        assert result.payments[1] is ZERO
        self.check(instance)


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


def tie_families():
    """Prime-denominator families with exact ties to the winner, shuffled so
    a tie can break either way, at small values and near 2**70."""
    for base in (0, 2**70):
        rng = random.Random(270 + (base > 0))
        for case in range(30):
            members = 3 + case % 10
            yield prime_family(rng, members, 2 * members, base=base, ties=True)


class TestIntegerTotals:
    """The integer ad totals against plain Fraction sums, on exact ties."""

    def test_winner_and_ties_match_fraction_sums(self):
        tied = 0
        for instance in tie_families():
            totals = [sum((instance.values[i] for i in ad.members), F(0)) for ad in instance.ads]
            top = max(totals)
            ties = tuple(j for j, total in enumerate(totals) if total == top)
            assert welfare_ties(instance) == ties
            assert efficient_winner(instance) == ties[0]
            assert [total_value(instance, j) for j in range(instance.m)] == totals
            tied += len(ties) > 1
        assert tied >= 50

    def test_vcg_matches_the_breakpoint_oracle(self):
        for instance in tie_families():
            assert vcg(instance) == vcg_bruteforce(instance)

    def test_revenue_floor_and_rows_match_fraction_sums(self):
        for instance in tie_families():
            winner = instance.members(efficient_winner(instance))
            outside = [
                sum((instance.values[i] for i in ad.members - winner), F(0))
                for ad in instance.ads
            ]
            assert revenue_lower_bound(instance) == max(outside)
            for row in build_polytope(instance).constraints:
                assert row.rhs == outside[row.ad]

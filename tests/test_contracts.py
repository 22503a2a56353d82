"""Position auction with owned ads and cost-sharing contract terms."""

from __future__ import annotations

import json

import pytest

from coopetition import (
    ContractTerm,
    GridBudgetError,
    GridSpec,
    InstanceError,
    OwnedAuction,
    PositionOutcome,
    best_response_contract,
    evaluate_contracts,
    parse_instance,
    parse_owned_auction,
    position_vcg,
    serialize_owned_auction,
)
from helpers import F, make_instance


def owned(values, ads, owners, slots) -> OwnedAuction:
    instance = make_instance(values, ads)
    return OwnedAuction(
        instance=instance,
        owners=tuple(instance.index(name) for name in owners),
        slots=tuple(F(s) for s in slots),
    )


# Example 1 shape: M rides in both sellers' ads, single slot.
def two_sellers() -> OwnedAuction:
    return owned(
        {"S": 3, "M": 10, "D": 2},
        [["S", "M"], ["D", "M"]],
        ["S", "D"],
        ["1"],
    )


def two_sellers_plus_entrant() -> OwnedAuction:
    return owned(
        {"S": 3, "M": 10, "D": 2, "A": 11},
        [["S", "M"], ["D", "M"], ["A"]],
        ["S", "D", "A"],
        ["1"],
    )


class TestOwnedAuction:
    def test_owner_must_be_a_member(self):
        with pytest.raises(InstanceError, match="owner 'E' is not a member"):
            owned({"A": 2, "E": 3}, [["A"], ["E"]], ["E", "E"], ["1"])

    @pytest.mark.parametrize("slots", [[], ["0"], ["1.5"], ["0.5", "0.5"], ["0.4", "0.6"]])
    def test_slots_strictly_decrease_within_unit(self, slots):
        with pytest.raises(InstanceError):
            owned({"A": 2, "E": 3}, [["A"], ["E"]], ["A", "E"], slots)

    def test_round_trip(self):
        auction = two_sellers()
        again = parse_owned_auction(serialize_owned_auction(auction))
        assert again == auction

    def test_parse_errors(self):
        doc = json.loads(serialize_owned_auction(two_sellers()))
        doc["owners"] = ["S"]
        with pytest.raises(InstanceError, match="one advertiser name per ad"):
            parse_owned_auction(json.dumps(doc))
        doc["owners"] = ["S", "Z"]
        with pytest.raises(InstanceError, match=r"owners\[1\]: unknown advertiser"):
            parse_owned_auction(json.dumps(doc))


class TestContractTerm:
    def test_committed_pledges_everything_up_to_the_amount(self):
        term = ContractTerm.committed(1, 0, F("8.25"))
        assert (term.fraction, term.cap, term.subsidy) == (F(1), F("8.25"), F("8.25"))
        assert term.transfer(F(100)) == F("8.25")
        assert term.transfer(F(2)) == F(2)

    def test_share_with_cap(self):
        term = ContractTerm(supporter=1, ad=0, fraction=F(1, 2), cap=F(1, 4), subsidy=F(0))
        assert term.transfer(F("0.4")) == F("0.2")
        assert term.transfer(F(2)) == F(1, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fraction": F(2)},
            {"fraction": F(-1, 2)},
            {"cap": F(-1)},
            {"subsidy": F(-1)},
        ],
    )
    def test_validation(self, kwargs):
        base = {"supporter": 0, "ad": 0, "fraction": F(1), "cap": F(0), "subsidy": F(0)}
        with pytest.raises(ValueError):
            ContractTerm(**{**base, **kwargs})


class TestPositionVcg:
    def test_outcome_hashes_and_keeps_its_own_mappings(self):
        assignment, prices = {0: 0, 1: 1}, {0: F(3), 1: F(0)}
        outcome = PositionOutcome(assignment, prices, (F(0), F(8)))
        assert hash(outcome) == hash(PositionOutcome({1: 1, 0: 0}, {1: F(0), 0: F(3)}, (F(0), F(8))))
        assignment[2] = 2
        prices[0] = F(1)
        assert outcome.assignment == {0: 0, 1: 1} and outcome.prices == {0: F(3), 1: F(0)}
        for mapping in (outcome.assignment, outcome.prices):
            with pytest.raises(TypeError, match="read-only"):
                mapping[0] = 1
            with pytest.raises(TypeError, match="read-only"):
                mapping.pop(0)
        # The contract outcome is a record of its own, hashable alike.
        auction = two_sellers()
        cleared = evaluate_contracts(auction, [ContractTerm.committed(1, 0, F(2))])
        hash(cleared)
        with pytest.raises(TypeError, match="read-only"):
            cleared.prices.clear()
        assert cleared == evaluate_contracts(auction, [ContractTerm.committed(1, 0, F(2))])

    def test_three_bidder_ladder(self):
        auction = owned(
            {"X": 11, "Y": 3, "Z": 2},
            [["X"], ["Y"], ["Z"]],
            ["X", "Y", "Z"],
            ["0.1", "0.08", "0.05"],
        )
        outcome = position_vcg(auction, (F(11), F(3), F(2)))
        assert outcome.assignment == {0: 0, 1: 1, 2: 2}
        assert outcome.prices[0] == F("1.2")
        assert outcome.prices[1] == F("0.75")
        assert outcome.prices[2] == F(0)
        # Top slot: values 11 * 0.1 clicks minus 0.1 * 1.2 paid.
        assert outcome.utilities[0] == F("1.1") - F("0.12")

    def test_more_ads_than_slots(self):
        auction = owned(
            {"X": 5, "Y": 4, "Z": 3},
            [["X"], ["Y"], ["Z"]],
            ["X", "Y", "Z"],
            ["0.5", "0.25"],
        )
        outcome = position_vcg(auction, (F(5), F(4), F(3)))
        assert outcome.assignment == {0: 0, 1: 1}
        # Slot 0 displaces Y by a quarter of the clicks and Z entirely.
        assert outcome.prices[0] == (F(4) * F("0.25") + F(3) * F("0.25")) / F("0.5")
        assert outcome.prices[1] == F(3)
        assert 2 not in outcome.assignment

    def test_ties_rank_the_lower_ad_id_first(self):
        auction = owned(
            {"X": 5, "Y": 5}, [["X"], ["Y"]], ["X", "Y"], ["0.5"]
        )
        outcome = position_vcg(auction, (F(5), F(5)))
        assert outcome.assignment == {0: 0}

    def test_shared_member_collects_from_both_slots(self):
        auction = owned(
            {"S": 3, "M": 10, "D": 2},
            [["S", "M"], ["D", "M"]],
            ["S", "D"],
            ["0.5", "0.25"],
        )
        outcome = position_vcg(auction, (F(3), F(2)))
        assert outcome.utilities[1] == F(10) * F("0.5") + F(10) * F("0.25")

    def test_bid_count_must_match(self):
        with pytest.raises(InstanceError, match="expected 2 effective bids"):
            position_vcg(two_sellers(), (F(1),))


class TestEvaluateContracts:
    def test_no_contracts_is_truthful_owner_bidding(self):
        auction = two_sellers()
        outcome = evaluate_contracts(auction, ())
        assert outcome == position_vcg(auction, (F(3), F(2)))
        assert outcome.utilities == (F(1), F(10), F(0))

    def test_subsidy_flips_the_slot_and_the_transfer_flows_back(self):
        auction = two_sellers()
        term = ContractTerm.committed(1, 1, F(2))  # M pledges 2 on D's ad
        outcome = evaluate_contracts(auction, (term,))
        assert outcome.assignment == {1: 0}
        assert outcome.prices[1] == F(3)
        assert outcome.utilities == (F(0), F(8), F(1))

    def test_terms_on_unassigned_ads_move_nothing(self):
        auction = two_sellers()
        term = ContractTerm.committed(1, 1, F("0.5"))
        outcome = evaluate_contracts(auction, (term,))
        assert outcome.assignment == {0: 0}
        assert outcome.utilities[1] == F(10)

    @pytest.mark.parametrize(
        "terms, message",
        [
            ((ContractTerm.committed(2, 0, F(1)),), "not a member"),
            ((ContractTerm.committed(0, 0, F(1)),), "owns"),
            (
                (ContractTerm.committed(1, 1, F(1)), ContractTerm.committed(1, 1, F(2))),
                "duplicate term",
            ),
            ((ContractTerm.committed(1, 9, F(1)),), "unknown ad"),
        ],
    )
    def test_term_validation(self, terms, message):
        with pytest.raises(InstanceError, match=message):
            evaluate_contracts(two_sellers(), terms)


class TestBestResponse:
    def test_settled_market_needs_no_subsidy(self):
        best = best_response_contract(
            two_sellers(), 1, (), GridSpec(epsilon=F(1, 4)), max_subsidy=F(11)
        )
        assert best == ()

    def test_entrant_makes_a_subsidy_worthwhile(self):
        auction = two_sellers_plus_entrant()
        base = evaluate_contracts(auction, ())
        assert base.utilities[1] == F(0)
        best = best_response_contract(
            auction, 1, (), GridSpec(epsilon=F(1, 4)), max_subsidy=F(11)
        )
        assert best == (ContractTerm.committed(1, 0, F(8)),)
        outcome = evaluate_contracts(auction, best)
        assert outcome.utilities[1] == F(2)

    def test_supporter_lifts_its_own_ad_over_a_rival(self):
        auction = owned(
            {"A": 2, "B": 2, "E": 3}, [["A", "B"], ["E"]], ["A", "E"], ["1"]
        )
        best = best_response_contract(auction, 1, (), GridSpec(epsilon=F(1)))
        assert best == (ContractTerm.committed(1, 0, F(1)),)
        outcome = evaluate_contracts(auction, best)
        assert outcome.utilities[1] == F(1)

    def test_responder_with_no_supported_ad_stays_out(self):
        auction = two_sellers()
        assert best_response_contract(auction, 0, (), GridSpec(epsilon=F(1))) == ()

    def test_rejects_a_negative_maximum(self):
        # No level lies in [0, -5]; an empty answer would read as "stay out".
        with pytest.raises(ValueError, match="max_subsidy must be non-negative, got -5"):
            best_response_contract(
                two_sellers_plus_entrant(), 1, (), GridSpec(epsilon=F(1)), max_subsidy=F(-5)
            )

    def test_rejects_terms_from_the_responder(self):
        with pytest.raises(ValueError, match="must not contain"):
            best_response_contract(
                two_sellers(),
                1,
                (ContractTerm.committed(1, 1, F(1)),),
                GridSpec(epsilon=F(1)),
            )

    def test_budget_guard(self):
        with pytest.raises(GridBudgetError, match="budget"):
            best_response_contract(
                two_sellers(), 1, (), GridSpec(epsilon=F(1, 4), budget=10)
            )

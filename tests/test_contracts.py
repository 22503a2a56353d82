"""Position auction with owned ads and cost-sharing contract terms."""

from __future__ import annotations

import json
import random

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
from helpers import (
    F,
    best_response_by_evaluation,
    evaluate_contracts_by_fractions,
    make_instance,
    owned_family,
    position_vcg_by_fractions,
    random_value,
)


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


# The owned triangle: A owns ad 0 {A, B, C}, D owns ad 1 {A, D}, E owns ad 2 {B, E}.
def owned_triangle() -> OwnedAuction:
    ads = [["A", "B", "C"], ["A", "D"], ["B", "E"]]
    return owned({name: 1 for name in "ABCDE"}, ads, ["A", "D", "E"], ["1", "1/2"])


class TestOwnedAuction:
    def test_owner_must_be_a_member(self):
        with pytest.raises(InstanceError, match="owner 'E' is not a member"):
            owned({"A": 2, "E": 3}, [["A"], ["E"]], ["E", "E"], ["1"])

    @pytest.mark.parametrize("slots", [[], ["0"], ["1.5"], ["0.5", "0.5"], ["0.4", "0.6"]])
    def test_slots_strictly_decrease_within_unit(self, slots):
        with pytest.raises(InstanceError):
            owned({"A": 2, "E": 3}, [["A"], ["E"]], ["A", "E"], slots)

    @pytest.mark.parametrize(
        "owners, message",
        [
            ((0, 9, 4), "owners[1]: unknown advertiser index 9"),
            ((0, -1, 4), "owners[1]: unknown advertiser index -1"),
            ((0, 3, True), "owners[2]: unknown advertiser index True"),
            ((0, 3), "one owner per ad is required"),
        ],
    )
    def test_owners_are_indices_in_range(self, owners, message):
        triangle = owned_triangle()
        with pytest.raises(InstanceError) as caught:
            OwnedAuction(triangle.instance, owners, triangle.slots)
        assert str(caught.value) == message

    def test_a_slot_ladder_is_not_empty(self):
        with pytest.raises(InstanceError) as caught:
            OwnedAuction(owned_triangle().instance, (0, 3, 4), ())
        assert str(caught.value) == "at least one slot is required"

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


def settled_transfers(term: ContractTerm, prices) -> list:
    """What `evaluate_contracts` moves from S to O per click under `term` on
    ad 0 in one-slot markets where O owns ad 0 {O, S} and outbids the rival
    R, whose value sets ad 0's price. The shown ad's price is checked too."""
    transfers = []
    for price in prices:
        auction = owned({"O": 200, "S": 1, "R": price}, [["O", "S"], ["R"]], ["O", "R"], ["1"])
        outcome = evaluate_contracts(auction, (term,))
        assert (outcome.assignment, outcome.prices) == ({0: 0}, {0: price})
        transfer = outcome.utilities[0] - (200 - price)
        assert outcome.utilities[1:] == (1 - transfer, F(0))
        transfers.append(transfer)
    return transfers


class TestContractTerm:
    def test_committed_pledges_everything_up_to_the_amount(self):
        term = ContractTerm.committed(1, 0, F("8.25"))
        assert (term.fraction, term.cap, term.subsidy) == (F(1), F("8.25"), F("8.25"))
        assert settled_transfers(term, [F(100), F(2)]) == [F("8.25"), F(2)]

    def test_share_with_cap(self):
        term = ContractTerm(supporter=1, ad=0, fraction=F(1, 2), cap=F(1, 4), subsidy=F(0))
        assert settled_transfers(term, [F("0.4"), F(2)]) == [F("0.2"), F(1, 4)]

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

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ContractTerm(1, 0, F(3, 2), F(1), F(0)), "fraction: must be in [0, 1]"),
            (lambda: ContractTerm(1, 0, F(1), F(-1), F(0)), "cap: must be non-negative"),
            (lambda: ContractTerm(1, 0, F(1), F(1), F(-1)), "subsidy: must be non-negative"),
            (lambda: ContractTerm.committed(1, 0, F(-1)), "amount: must be non-negative"),
        ],
        ids=["fraction", "cap", "subsidy", "amount"],
    )
    def test_range_errors_name_the_field(self, make, message):
        with pytest.raises(InstanceError) as caught:
            make()
        assert str(caught.value) == message


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

    def test_matches_the_fraction_reference(self):
        # The best-response family, cleared at bids drawn from a small pool
        # so that ties between ads are common.
        rng = random.Random(20)
        for _ in range(300):
            auction = owned_family(rng)[0]
            pool = [random_value(rng, 10) for _ in range(3)]
            bids = [rng.choice(pool) for _ in range(auction.instance.m)]
            assert position_vcg(auction, bids) == position_vcg_by_fractions(auction, bids)

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


class TestTermIndices:
    """A term's supporter and ad are ints, not bools, in range, and every
    term error names the term's position."""

    @pytest.mark.parametrize(
        "supporter, ad, message",
        [
            (99, 0, "contracts[0].supporter: unknown advertiser index 99"),
            (-1, 0, "contracts[0].supporter: unknown advertiser index -1"),
            (True, 0, "contracts[0].supporter: unknown advertiser index True"),
            (3, 5, "contracts[0].ad: unknown ad index 5"),
            (3, -1, "contracts[0].ad: unknown ad index -1"),
            (3, True, "contracts[0].ad: unknown ad index True"),
            (3, "x", "contracts[0].ad: unknown ad index 'x'"),
        ],
    )
    def test_out_of_range_indices_are_located(self, supporter, ad, message):
        others = (ContractTerm.committed(supporter, ad, F(1)),)
        for call in (
            lambda: evaluate_contracts(owned_triangle(), others),
            lambda: best_response_contract(owned_triangle(), 2, others, GridSpec(F(1))),
        ):
            with pytest.raises(InstanceError) as caught:
                call()
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([(1, 1)], "contracts[0]: 'B' is not a member of ad 1 {A, D}"),
            ([(2, 0), (0, 0)], "contracts[1]: 'A' owns ad 0 {A, B, C} and cannot support it"),
            ([(1, 0), (2, 0), (1, 0)], "contracts[2]: duplicate term from 'B' on ad 0 {A, B, C}"),
        ],
        ids=["member", "owner", "duplicate"],
    )
    def test_term_errors_name_the_term(self, terms, message):
        contracts = [ContractTerm.committed(supporter, ad, F(1)) for supporter, ad in terms]
        with pytest.raises(InstanceError) as caught:
            evaluate_contracts(owned_triangle(), contracts)
        assert str(caught.value) == message

    @pytest.mark.parametrize("responder", [99, -1, True, "B"])
    def test_a_responder_is_an_index_in_range(self, responder):
        # An advertiser that does not exist has no best response, not "stay out".
        with pytest.raises(InstanceError) as caught:
            best_response_contract(owned_triangle(), responder, (), GridSpec(F(1)))
        assert str(caught.value) == f"responder: unknown advertiser index {responder!r}"


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

    def test_invalid_others_are_rejected_without_a_supported_ad(self):
        # S owns its only ad, so it supports none; the term is still checked.
        others = (ContractTerm.committed(1, 5, F(1)),)
        with pytest.raises(InstanceError, match=r"^contracts\[0\]\.ad: unknown ad index 5$"):
            best_response_contract(two_sellers(), 0, others, GridSpec(epsilon=F(1)))

    def test_matches_the_evaluation_loop(self):
        rng = random.Random(30)
        answers = multi_slot = ties = over_budget = 0
        for _ in range(300):
            auction, responder, others, grid, ceiling = owned_family(rng)
            try:
                expected, tied = best_response_by_evaluation(
                    auction, responder, others, grid, ceiling
                )
            except GridBudgetError:
                with pytest.raises(GridBudgetError):
                    best_response_contract(auction, responder, others, grid, ceiling)
                over_budget += 1
                continue
            best = best_response_contract(auction, responder, others, grid, ceiling)
            assert best == expected
            profile = others + best
            assert evaluate_contracts(auction, profile) == evaluate_contracts_by_fractions(
                auction, profile
            )
            answers += bool(best)
            multi_slot += bool(best) and len(auction.slots) > 1
            ties += tied > 1
        assert answers >= 50 and multi_slot >= 10 and ties >= 1 and over_budget >= 1

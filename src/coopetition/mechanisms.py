"""Winner determination and the two baseline payment rules.

Ties in total value break toward the lowest ad id, everywhere, so repeated
runs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import (
    ZERO,
    AuctionInstance,
    Outcome,
    check_bids,
    settle,
    total_bid,
)


def _winner(totals: Sequence[Fraction | int]) -> int:
    """The first ad with the largest (value or bid) total: lowest id wins ties."""
    return totals.index(max(totals))


def efficient_winner(instance: AuctionInstance) -> int:
    """The ad with the largest total member value; lowest id wins ties."""
    return _winner(instance._totals)


def welfare_ties(instance: AuctionInstance) -> tuple[int, ...]:
    """All ads achieving the maximum total value (length > 1 means a tie)."""
    totals = instance._totals
    top = max(totals)
    return tuple(j for j, total in enumerate(totals) if total == top)


def vcg(instance: AuctionInstance) -> Outcome:
    """Charge each winning member the externality it imposes.

    A member of the winning ad pays the shortfall between the best total the
    other advertisers could reach without it and what they actually get; when
    the winning ad faces no real competition everyone pays zero, so two
    advertisers sharing an ad can ride each other's values all the way to
    free clicks.

    In closed form, with t_j the total value of ad j and W = t_winner, member
    i pays max(0, max_j (t_j - [i in j]·v_i) - (W - v_i)). An ad holding i gives
    at most W - v_i, so that is max(0, t - (W - v_i)) for t the largest total of
    an ad lacking i. One walk over the ads by descending total, in integer
    units, gives each member its t: O(m log m) plus a set difference per ad.
    """
    totals = instance._totals
    units = instance._units
    winner = _winner(totals)
    welfare = totals[winner]
    payments = [ZERO] * instance.n
    unplaced = instance.members(winner)
    for j in sorted(range(instance.m), key=totals.__getitem__, reverse=True):
        lacking = unplaced - instance.ads[j].members
        for i in lacking:
            shortfall = totals[j] - (welfare - units[i])
            if shortfall > 0:
                payments[i] = Fraction(shortfall, instance._scale)
        unplaced -= lacking
        if not unplaced:
            break
    return settle(instance, winner, payments)


def first_price_clear(instance: AuctionInstance, bids: Sequence[Fraction]) -> Outcome:
    """Show the ad with the highest total bid; members pay their own bids."""
    profile = check_bids(instance, bids)
    best = _winner([total_bid(instance, profile, j) for j in range(instance.m)])
    return settle(instance, best, profile)


def revenue_lower_bound(instance: AuctionInstance) -> Fraction:
    """Outside pressure on the winner: the best rival total among advertisers
    that are not in the winning ad. Zero when there is no rival ad."""
    winner = efficient_winner(instance)
    winner_members = instance.members(winner)
    units = instance._units
    bound = 0
    for j, ad in enumerate(instance.ads):
        if j != winner:
            bound = max(bound, sum([units[i] for i in ad.members - winner_members]))
    return Fraction(bound, instance._scale)

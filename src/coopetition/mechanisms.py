"""Winner determination and the two baseline payment rules.

Ties in total value break toward the lowest ad id, everywhere, so repeated
runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import (
    AuctionInstance,
    Outcome,
    check_bids,
    exact_sum,
    settle,
    total_bid,
    total_value,
)


@dataclass(frozen=True)
class VcgResult:
    """Truthful-values clearing: winner, per-advertiser payments, revenue."""

    winner: int
    payments: tuple[Fraction, ...]
    revenue: Fraction

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.payments):
            raise ValueError("payments must be non-negative")
        if exact_sum(self.payments) != self.revenue:
            raise ValueError("revenue must equal the sum of payments")


def _totals(instance: AuctionInstance) -> list[Fraction]:
    return [total_value(instance, j) for j in range(instance.m)]


def _winner(totals: Sequence[Fraction]) -> int:
    """The first ad with the largest (value or bid) total: lowest id wins ties."""
    return totals.index(max(totals))


def efficient_winner(instance: AuctionInstance) -> int:
    """The ad with the largest total member value; lowest id wins ties."""
    return _winner(_totals(instance))


def welfare_ties(instance: AuctionInstance) -> tuple[int, ...]:
    """All ads achieving the maximum total value (length > 1 means a tie)."""
    totals = _totals(instance)
    top = max(totals)
    return tuple(j for j, total in enumerate(totals) if total == top)


def vcg(instance: AuctionInstance) -> VcgResult:
    """Charge each winning member the externality it imposes.

    A member of the winning ad pays the shortfall between the best total the
    other advertisers could reach without it and what they actually get; when
    the winning ad faces no real competition everyone pays zero, so two
    advertisers sharing an ad can ride each other's values all the way to
    free clicks.

    In closed form, with t_j the total value of ad j and W = t_winner, member
    i pays max(0, max_j (t_j - [i in j]·v_i) - (W - v_i)). Each total is one
    integer pass over its ad, so the cost is O(|winner|·m) after one pass
    over the ads.
    """
    totals = _totals(instance)
    winner = _winner(totals)
    welfare = totals[winner]
    payments = [Fraction(0)] * instance.n
    for i in instance.members(winner):
        value = instance.values[i]
        best_without = max(
            total - value if i in ad.members else total
            for ad, total in zip(instance.ads, totals)
        )
        shortfall = best_without - (welfare - value)
        payments[i] = max(Fraction(0), shortfall)
    payments_t = tuple(payments)
    return VcgResult(winner=winner, payments=payments_t, revenue=exact_sum(payments_t))


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
    bound = Fraction(0)
    for j in range(instance.m):
        if j == winner:
            continue
        outside = exact_sum(
            instance.values[i] for i in instance.members(j) if i not in winner_members
        )
        bound = max(bound, outside)
    return bound

"""Cost-sharing contracts around a position auction.

Here ads are owned: one member runs the campaign, bids, and pays, while the
other members free-ride unless they sign a contract. A contract term from a
supporter pledges a share of the owner's per-click price (a fraction with a
cap), and the supporter also declares a flat per-click subsidy that is added
to the owner's truthful bid before the auction runs. Terms are committed
first, then the auction clears; the settlement transfer per click is
min(fraction * price, cap), never more than the cap.

The auction is a position auction with ad-independent click rates r_k, zero
below the last slot: ads rank by effective bid, and slot k's rate times its
per-click price is displaced_k, the sum over lower ranks l of bid_l *
(r_{l-1} - r_l). A member of several shown ads collects value at the sum of
their rates. One kernel clears in integer units, bids over L and rates over
R, so displaced_k is an int over L*R and no price is divided out. The best
response reads only the responder's utility off it, one int per vector; it
builds no record per vector and counts the vectors against the budget first.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

# benchmarks/spans.py wraps contracts.parse_instance by name in its traced
# run, so the name stays bound here although nothing in this module calls it.
from .model import (  # noqa: F401
    AuctionInstance,
    FrozenMap,
    GridBudgetError,
    GridSpec,
    InstanceError,
    Record,
    exact_scalars,
    format_scalar,
    instance_from_document,
    load_document,
    parse_instance,
    parse_scalar,
    serialize_instance,
)


class OwnedAuction(Record):
    """An instance plus per-ad owners and a ladder of slot click rates."""

    __slots__ = ("instance", "owners", "slots")
    instance: AuctionInstance
    owners: tuple[int, ...]
    slots: tuple[Fraction, ...]

    def __init__(
        self, instance: AuctionInstance, owners: tuple[int, ...], slots: tuple[Fraction, ...]
    ) -> None:
        if len(owners) != instance.m:
            raise InstanceError("one owner per ad is required")
        for j, owner in enumerate(owners):
            if owner not in instance.members(j):
                raise InstanceError(f"ads[{j}]: owner {instance.names[owner]!r} is not a member")
        if not slots:
            raise InstanceError("at least one slot is required")
        slots = exact_scalars(slots, "slots[{}]")
        for k, rate in enumerate(slots):
            if not 0 < rate <= 1:
                raise InstanceError(f"slots[{k}]: click rate must be in (0, 1]")
            if k and rate >= slots[k - 1]:
                raise InstanceError(f"slots[{k}]: click rates must strictly decrease")
        self._set_fields(instance, owners, slots)


class ContractTerm(Record):
    """A supporter's pledge on one ad: price share, cap, declared subsidy."""

    __slots__ = ("supporter", "ad", "fraction", "cap", "subsidy")
    supporter: int
    ad: int
    fraction: Fraction
    cap: Fraction
    subsidy: Fraction

    def __init__(
        self, supporter: int, ad: int, fraction: Fraction, cap: Fraction, subsidy: Fraction
    ) -> None:
        fraction, cap = parse_scalar(fraction, "fraction"), parse_scalar(cap, "cap")
        subsidy = parse_scalar(subsidy, "subsidy")
        if not 0 <= fraction <= 1:
            raise InstanceError("fraction must be in [0, 1]")
        if cap < 0:
            raise InstanceError("cap must be non-negative")
        if subsidy < 0:
            raise InstanceError("subsidy must be non-negative")
        self._set_fields(supporter, ad, fraction, cap, subsidy)

    @classmethod
    def committed(cls, supporter: int, ad: int, amount: Fraction) -> "ContractTerm":
        """Pledge a flat amount: pay the whole price up to `amount` per click."""
        amount = parse_scalar(amount, "amount")
        return cls(supporter=supporter, ad=ad, fraction=Fraction(1), cap=amount, subsidy=amount)

    def transfer(self, price: Fraction) -> Fraction:
        return min(self.fraction * price, self.cap)


ContractProfile = tuple[ContractTerm, ...]


class PositionOutcome(Record):
    """Slots assigned, per-click prices of assigned ads, expected utilities.
    The assignment and the prices are read-only copies."""

    __slots__ = ("assignment", "prices", "utilities")
    assignment: Mapping[int, int]
    prices: Mapping[int, Fraction]
    utilities: tuple[Fraction, ...]

    def __init__(
        self,
        assignment: Mapping[int, int],
        prices: Mapping[int, Fraction],
        utilities: tuple[Fraction, ...],
    ) -> None:
        self._set_fields(FrozenMap(assignment), FrozenMap(prices), utilities)


def parse_owned_auction(text: str) -> OwnedAuction:
    """Instance document extended with "owners" and "slots" lists."""
    doc = load_document(text)
    instance = instance_from_document(doc)
    owners_doc = doc.get("owners")
    if not isinstance(owners_doc, list) or len(owners_doc) != instance.m:
        raise InstanceError("owners: expected one advertiser name per ad")
    owners = []
    for j, name in enumerate(owners_doc):
        if not isinstance(name, str) or name not in instance.names:
            raise InstanceError(f"owners[{j}]: unknown advertiser {name!r}")
        owners.append(instance.index(name))
    slots_doc = doc.get("slots")
    if not isinstance(slots_doc, list) or not slots_doc:
        raise InstanceError("slots: expected a non-empty list of click rates")
    slots = tuple(parse_scalar(rate, where=f"slots[{k}]") for k, rate in enumerate(slots_doc))
    return OwnedAuction(instance=instance, owners=tuple(owners), slots=slots)


def serialize_owned_auction(owned: OwnedAuction) -> str:
    doc = json.loads(serialize_instance(owned.instance))
    doc["owners"] = [owned.instance.names[owner] for owner in owned.owners]
    doc["slots"] = [format_scalar(rate) for rate in owned.slots]
    return json.dumps(doc, indent=2)


def _slot_rates(owned: OwnedAuction) -> tuple[int, list[int]]:
    """R, the lcm of the slot rates' denominators, and the rates over R."""
    rscale = math.lcm(*[rate.denominator for rate in owned.slots])
    return rscale, [int(rate * rscale) for rate in owned.slots]


def _clear(bids: Sequence[int], rates: Sequence[int]) -> tuple[list[int], list[int]]:
    """The clearing kernel: the shown ads by rank (ties to the lowest ad id)
    and each one's displaced_k, for int bids over L and rates over R."""
    order = sorted(range(len(bids)), key=bids.__getitem__, reverse=True)
    shown = order[: len(rates)]
    displaced, total = [0] * len(shown), 0
    for k in reversed(range(min(len(shown), len(bids) - 1))):
        total += bids[order[k + 1]] * (rates[k] - (rates[k + 1] if k + 1 < len(rates) else 0))
        displaced[k] = total
    return shown, displaced


def position_vcg(owned: OwnedAuction, effective_bids: Sequence[Fraction]) -> PositionOutcome:
    """Rank ads by effective bid (ties to the lowest ad id) and price slots."""
    instance = owned.instance
    if len(effective_bids) != instance.m:
        raise InstanceError(f"expected {instance.m} effective bids, got {len(effective_bids)}")
    bids = exact_scalars(effective_bids, "effective_bids[{}]")
    scale = math.lcm(instance._scale, *[bid.denominator for bid in bids])
    rscale, rates = _slot_rates(owned)
    shown, displaced = _clear([int(bid * scale) for bid in bids], rates)
    utilities = [0] * instance.n
    for k, ad in enumerate(shown):
        for i in instance.members(ad):
            utilities[i] += rates[k] * instance._units[i] * (scale // instance._scale)
        utilities[owned.owners[ad]] -= displaced[k]
    return PositionOutcome(
        {ad: k for k, ad in enumerate(shown)},
        {ad: Fraction(displaced[k], scale * rates[k]) for k, ad in enumerate(shown)},
        tuple([Fraction(utility, scale * rscale) for utility in utilities]),
    )


def _validate_contracts(owned: OwnedAuction, contracts: Sequence[ContractTerm]) -> None:
    seen = set()
    for term in contracts:
        instance = owned.instance
        if not 0 <= term.ad < instance.m:
            raise InstanceError(f"contract targets unknown ad {term.ad}")
        if term.supporter not in instance.members(term.ad):
            raise InstanceError(
                f"contract: {instance.names[term.supporter]!r} is not a member of "
                f"{instance.label(term.ad)}"
            )
        if term.supporter == owned.owners[term.ad]:
            raise InstanceError(
                f"contract: {instance.names[term.supporter]!r} owns {instance.label(term.ad)} "
                f"and cannot support it"
            )
        key = (term.supporter, term.ad)
        if key in seen:
            raise InstanceError(
                f"contract: duplicate term from {instance.names[term.supporter]!r} on "
                f"{instance.label(term.ad)}"
            )
        seen.add(key)


def evaluate_contracts(
    owned: OwnedAuction, contracts: Sequence[ContractTerm]
) -> PositionOutcome:
    """Clear the position auction under the given contract terms.

    Owners bid their value plus the declared subsidies on their ad; after
    clearing, each term moves rate * min(fraction * price, cap) from the
    supporter to the owner. With no contracts this is exactly position_vcg
    on truthful owner bids.
    """
    _validate_contracts(owned, contracts)
    instance = owned.instance
    effective = [instance.values[owned.owners[j]] for j in range(instance.m)]
    for term in contracts:
        effective[term.ad] += term.subsidy
    outcome = position_vcg(owned, effective)
    utilities = list(outcome.utilities)
    for term in contracts:
        if term.ad not in outcome.assignment:
            continue
        rate = owned.slots[outcome.assignment[term.ad]]
        transfer = term.transfer(outcome.prices[term.ad])
        utilities[term.supporter] -= rate * transfer
        utilities[owned.owners[term.ad]] += rate * transfer
    return PositionOutcome(outcome.assignment, outcome.prices, tuple(utilities))


def best_response_contract(
    owned: OwnedAuction,
    responder: int,
    others: Sequence[ContractTerm],
    grid: GridSpec,
    max_subsidy: Fraction | None = None,
) -> ContractProfile:
    """Grid-search the responder's committed subsidies on its supported ads.

    Levels are multiples of grid.epsilon in [0, max_subsidy] (default: the
    sum of all values), one per ad the responder supports, maximizing the
    responder's expected utility. Ties break toward the lexicographically
    smallest subsidy vector; zero-level terms are omitted, so an empty
    profile means staying out is a best response. max_subsidy is read as a
    document's numbers are; a negative one leaves no level and raises InstanceError.
    """
    max_subsidy = None if max_subsidy is None else parse_scalar(max_subsidy, "max_subsidy")
    if max_subsidy is not None and max_subsidy < 0:
        raise InstanceError(f"max_subsidy must be non-negative, got {format_scalar(max_subsidy)}")
    instance = owned.instance
    for term in others:
        if term.supporter == responder:
            raise InstanceError("others must not contain terms from the responder")
    _validate_contracts(owned, others)
    supported = [
        j
        for j in range(instance.m)
        if responder in instance.members(j) and owned.owners[j] != responder
    ]
    if not supported:
        return ()
    if max_subsidy is None:
        max_subsidy = Fraction(sum(instance._units), instance._scale)
    steps = int(max_subsidy / grid.epsilon) + 1
    total = steps ** len(supported)
    if total > grid.budget:
        raise GridBudgetError(total, grid.budget)
    # The responder's utility over Q*L*R: bids and caps over L, shares over Q.
    dens = [den for t in others for den in (t.subsidy.denominator, t.cap.denominator)]
    scale = math.lcm(instance._scale, grid.epsilon.denominator, *dens)
    shares = math.lcm(*[term.fraction.denominator for term in others])
    base = [int(instance.values[owner] * scale) for owner in owned.owners]
    for term in others:
        base[term.ad] += int(term.subsidy * scale)
    shared = [(t.ad, int(t.fraction * shares), int(t.cap * scale * shares)) for t in others]
    _, rates = _slot_rates(owned)
    worth, step = int(instance.values[responder] * scale * shares), int(grid.epsilon * scale)
    best_utility, best_levels = None, ()
    for levels in product(range(steps), repeat=len(supported)):
        pledges = {ad: step * level for ad, level in zip(supported, levels)}
        shown, displaced = _clear([bid + pledges.get(j, 0) for j, bid in enumerate(base)], rates)
        utility = 0
        for k, ad in enumerate(shown):
            rate, cost = rates[k], displaced[k]
            if ad in pledges:
                utility += rate * worth - shares * min(cost, rate * pledges[ad])
            elif owned.owners[ad] == responder:
                utility += rate * worth - shares * cost
                utility += sum([min(p * cost, cap * rate) for j, p, cap in shared if j == ad])
        if best_utility is None or utility > best_utility:
            best_utility, best_levels = utility, levels
    return tuple(
        ContractTerm.committed(responder, ad, grid.epsilon * level)
        for ad, level in zip(supported, best_levels)
        if level
    )

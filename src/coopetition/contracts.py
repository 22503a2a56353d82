"""Cost-sharing contracts around a position auction.

Here ads are owned: one member runs the campaign, bids, and pays, while the
other members free-ride unless they sign a contract. A contract term from a
supporter pledges a share of the owner's per-click price (a fraction with a
cap), and the supporter also declares a flat per-click subsidy that is added
to the owner's truthful bid before the auction runs. Terms are committed
first, then the auction clears; the settlement transfer per click is
min(fraction * price, cap), never more than the cap.

The auction itself is a standard position auction with ad-independent click
rates: ads are ranked by effective bid, slot k's per-click price is

    sum over lower ranks r of bid_r * (rate_{r-1} - rate_r),  divided by rate_k

with the rate treated as zero below the last slot. An advertiser appearing
in several assigned ads collects value at the sum of those click rates.
"""

from __future__ import annotations

import json
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


def position_vcg(owned: OwnedAuction, effective_bids: Sequence[Fraction]) -> PositionOutcome:
    """Rank ads by effective bid (ties to the lowest ad id) and price slots."""
    instance = owned.instance
    if len(effective_bids) != instance.m:
        raise InstanceError(f"expected {instance.m} effective bids, got {len(effective_bids)}")
    bids = exact_scalars(effective_bids, "effective_bids[{}]")
    order = sorted(range(instance.m), key=lambda j: (-bids[j], j))
    slot_count = len(owned.slots)
    assignment: dict[int, int] = {}
    prices: dict[int, Fraction] = {}
    utilities = [Fraction(0)] * instance.n
    for rank, ad in enumerate(order[:slot_count]):
        rate = owned.slots[rank]
        displaced = Fraction(0)
        for lower in range(rank + 1, min(len(order) - 1, slot_count) + 1):
            above = owned.slots[lower - 1]
            below = owned.slots[lower] if lower < slot_count else Fraction(0)
            displaced += bids[order[lower]] * (above - below)
        price = displaced / rate
        assignment[ad] = rank
        prices[ad] = price
        for i in instance.members(ad):
            utilities[i] += rate * instance.values[i]
        utilities[owned.owners[ad]] -= rate * price
    return PositionOutcome(assignment=assignment, prices=prices, utilities=tuple(utilities))


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
    levels = [grid.epsilon * k for k in range(steps)]
    best_utility: Fraction | None = None
    best_terms: ContractProfile = ()
    for combo in product(levels, repeat=len(supported)):
        terms = tuple(
            ContractTerm.committed(responder, ad, amount)
            for ad, amount in zip(supported, combo)
            if amount > 0
        )
        outcome = evaluate_contracts(owned, tuple(others) + terms)
        utility = outcome.utilities[responder]
        if best_utility is None or utility > best_utility:
            best_utility = utility
            best_terms = terms
    return best_terms

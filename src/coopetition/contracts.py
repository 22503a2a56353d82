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
their rates. One kernel, `_settle`, clears and settles in integer units:
bids over L, rates over R and shares over Q, so displaced_k is an int over
L*R, a term moves min(share * displaced_k, cap * r_k) over Q*L*R from its
supporter to the owner, and no price is divided out. position_vcg (no
terms), evaluate_contracts and the best response all read their outcome off
it; the search reads only the responder's utility, one int per vector,
builds no record per vector and counts the vectors against the budget first.

Contract files hold {"contracts": [...]} where each term is either
{"supporter": name, "ad": index, "amount": x} (a committed pledge) or the
explicit {"supporter", "ad", "fraction", "cap", "subsidy"} form. Each term is
checked as it is read, and an error names its term, `contracts[k]`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

# benchmarks/spans.py wraps contracts.parse_instance by name in its traced
# run, so the name stays bound here although nothing in this module calls it.
from .model import (  # noqa: F401
    AuctionInstance,
    FrozenMap,
    GridBudgetError,
    GridSpec,
    InstanceError,
    Record,
    _check_index,
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
            _check_index(owner, instance.n, f"owners[{j}]")
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
            raise InstanceError("fraction: must be in [0, 1]")
        if cap < 0:
            raise InstanceError("cap: must be non-negative")
        if subsidy < 0:
            raise InstanceError("subsidy: must be non-negative")
        self._set_fields(supporter, ad, fraction, cap, subsidy)

    @classmethod
    def committed(cls, supporter: int, ad: int, amount: Fraction) -> "ContractTerm":
        """Pledge a flat amount: pay the whole price up to `amount` per click."""
        amount = parse_scalar(amount, "amount")
        if amount < 0:
            raise InstanceError("amount: must be non-negative")
        return cls(supporter=supporter, ad=ad, fraction=Fraction(1), cap=amount, subsidy=amount)


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
    slots = doc.get("slots")
    if not isinstance(slots, list) or not slots:
        raise InstanceError("slots: expected a non-empty list of click rates")
    return OwnedAuction(instance=instance, owners=tuple(owners), slots=slots)


def _read_contract_terms(text: str, owned: OwnedAuction) -> list[ContractTerm]:
    """A contract file's terms, each read and checked against `owned` before
    the next, so errors come in document order, located at `contracts[k]`."""
    try:
        doc = load_document(text)
    except InstanceError as exc:
        raise InstanceError(f"contract file is {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("contracts"), list):
        raise InstanceError('contract file must hold {"contracts": [...]}')
    names = owned.instance.names

    def terms() -> Iterable[ContractTerm]:
        for k, entry in enumerate(doc["contracts"]):
            where = f"contracts[{k}]"
            if not isinstance(entry, dict):
                raise InstanceError(f"{where}: expected an object")
            name = entry.get("supporter")
            if not isinstance(name, str) or name not in names:
                raise InstanceError(f"{where}: unknown supporter {name!r}")
            committed = "amount" in entry
            if committed and entry.keys() & {"fraction", "cap", "subsidy"}:
                raise InstanceError(
                    f'{where}: give either "amount" or "fraction", "cap" and "subsidy", not both'
                )
            read = ContractTerm.committed if committed else ContractTerm
            fields = ("amount",) if committed else ("fraction", "cap", "subsidy")
            try:  # the term's own checks name the field; the term is named here
                term = read(names.index(name), entry.get("ad"), *map(entry.get, fields))
            except InstanceError as exc:
                raise InstanceError(f"{where}.{exc}") from None
            yield term

    return _validate_contracts(owned, terms())


def serialize_owned_auction(owned: OwnedAuction) -> str:
    doc = json.loads(serialize_instance(owned.instance))
    doc["owners"] = [owned.instance.names[owner] for owner in owned.owners]
    doc["slots"] = [format_scalar(rate) for rate in owned.slots]
    return json.dumps(doc, indent=2)


def _slot_rates(owned: OwnedAuction) -> tuple[int, list[int]]:
    """R, the lcm of the slot rates' denominators, and the rates over R."""
    rscale = math.lcm(*[rate.denominator for rate in owned.slots])
    return rscale, [int(rate * rscale) for rate in owned.slots]


def _settle(
    owned: OwnedAuction, bids: list[int], terms: Sequence, scale: int, shares: int, rates: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """The settlement kernel: int bids over L = scale, rates over R, terms
    (ad, supporter, share over Q = shares, cap over Q*L). It returns the shown
    ads by rank (ties to the lowest ad id), each one's displaced_k over L*R,
    and every advertiser's utility over Q*L*R."""
    instance = owned.instance
    order = sorted(range(len(bids)), key=bids.__getitem__, reverse=True)
    shown = order[: len(rates)]
    displaced, total = [0] * len(shown), 0
    for k in reversed(range(min(len(shown), len(bids) - 1))):
        total += bids[order[k + 1]] * (rates[k] - (rates[k + 1] if k + 1 < len(rates) else 0))
        displaced[k] = total
    utilities, unit = [0] * instance.n, scale // instance._scale * shares
    for k, ad in enumerate(shown):
        for i in instance.members(ad):
            utilities[i] += rates[k] * instance._units[i] * unit
        utilities[owned.owners[ad]] -= shares * displaced[k]
    for ad, supporter, share, cap in terms:
        if ad in shown:
            k = shown.index(ad)
            transfer = min(share * displaced[k], cap * rates[k])
            utilities[supporter] -= transfer
            utilities[owned.owners[ad]] += transfer
    return shown, displaced, utilities


def _outcome(
    owned: OwnedAuction, bids: Sequence[int], terms: Sequence[tuple], scale: int, shares: int
) -> PositionOutcome:
    """Settle and read the kernel's ints back as the outcome's Fractions."""
    rscale, rates = _slot_rates(owned)
    shown, displaced, utilities = _settle(owned, bids, terms, scale, shares, rates)
    return PositionOutcome(
        {ad: k for k, ad in enumerate(shown)},
        {ad: Fraction(displaced[k], scale * rates[k]) for k, ad in enumerate(shown)},
        tuple([Fraction(utility, shares * scale * rscale) for utility in utilities]),
    )


def position_vcg(owned: OwnedAuction, effective_bids: Sequence[Fraction]) -> PositionOutcome:
    """Rank ads by effective bid (ties to the lowest ad id) and price slots."""
    instance = owned.instance
    if len(effective_bids) != instance.m:
        raise InstanceError(f"expected {instance.m} effective bids, got {len(effective_bids)}")
    bids = exact_scalars(effective_bids, "effective_bids[{}]")
    scale = math.lcm(instance._scale, *[bid.denominator for bid in bids])
    return _outcome(owned, [int(bid * scale) for bid in bids], (), scale, 1)


def _scaled(
    owned: OwnedAuction, contracts: Sequence[ContractTerm], *denominators: int
) -> tuple[list[int], list[tuple[int, int, int, int]], int, int]:
    """The kernel's inputs for owners bidding value plus subsidies: the bids
    and the terms in ints, L (a multiple of every denominator given) and Q."""
    instance = owned.instance
    dens = [den for t in contracts for den in (t.subsidy.denominator, t.cap.denominator)]
    scale = math.lcm(instance._scale, *denominators, *dens)
    shares = math.lcm(*[term.fraction.denominator for term in contracts])
    bids = [instance._units[owner] * (scale // instance._scale) for owner in owned.owners]
    terms = []
    for t in contracts:
        bids[t.ad] += int(t.subsidy * scale)
        terms.append((t.ad, t.supporter, int(t.fraction * shares), int(t.cap * scale * shares)))
    return bids, terms, scale, shares


def _validate_contracts(owned: OwnedAuction, terms: Iterable[ContractTerm]) -> list[ContractTerm]:
    """The terms, each checked against `owned` as it comes; an error names
    the term by its position, `contracts[k]`."""
    instance, seen, checked = owned.instance, set(), []
    for k, term in enumerate(terms):
        _check_index(term.supporter, instance.n, f"contracts[{k}].supporter")
        _check_index(term.ad, instance.m, f"contracts[{k}].ad", "ad")
        name, label = instance.names[term.supporter], instance.label(term.ad)
        if term.supporter not in instance.members(term.ad):
            raise InstanceError(f"contracts[{k}]: {name!r} is not a member of {label}")
        if term.supporter == owned.owners[term.ad]:
            raise InstanceError(f"contracts[{k}]: {name!r} owns {label} and cannot support it")
        if (term.supporter, term.ad) in seen:
            raise InstanceError(f"contracts[{k}]: duplicate term from {name!r} on {label}")
        seen.add((term.supporter, term.ad))
        checked.append(term)
    return checked


def evaluate_contracts(owned: OwnedAuction, contracts: Sequence[ContractTerm]) -> PositionOutcome:
    """Clear the position auction under the given contract terms.

    Owners bid their value plus the declared subsidies on their ad; the
    settlement kernel clears that and moves rate * min(fraction * price, cap)
    per term from the supporter to the owner, by the rule the best response
    maximizes. With no contracts this is exactly position_vcg on truthful
    owner bids.
    """
    _validate_contracts(owned, contracts)
    return _outcome(owned, *_scaled(owned, contracts))


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
    _check_index(responder, instance.n, "responder")
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
    bids, terms, scale, shares = _scaled(owned, others, grid.epsilon.denominator)
    _, rates = _slot_rates(owned)
    step, best_utility, best_levels = int(grid.epsilon * scale), None, ()
    for levels in product(range(steps), repeat=len(supported)):
        vector, pledges = bids[:], terms[:]
        for ad, level in zip(supported, levels):
            vector[ad] += step * level
            pledges.append((ad, responder, shares, step * level * shares))
        utility = _settle(owned, vector, pledges, scale, shares, rates)[2][responder]
        if best_utility is None or utility > best_utility:
            best_utility, best_levels = utility, levels
    return tuple(
        ContractTerm.committed(responder, ad, grid.epsilon * level)
        for ad, level in zip(supported, best_levels)
        if level
    )

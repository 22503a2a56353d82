"""Data model for coopetitive single-slot ad auctions.

An auction instance is a set of advertisers with per-click values together
with a collection of ads. Each ad is a non-empty set of advertisers, all of
whom derive their per-click value whenever that ad is shown and clicked, so
advertisers can benefit from an ad without being the one paying for it.

All monetary quantities are exact rationals (``fractions.Fraction``); nothing
in this package ever rounds. Instance files are JSON documents::

    {
      "advertisers": [{"name": "A", "value": "2"}, {"name": "E", "value": "2.9"}],
      "ads": [["A"], ["A", "E"]]
    }

Values are strings so decimals survive exactly ("2.9" parses to 29/10).
Fraction strings such as "1/3" are accepted too, and the serializer falls
back to that form whenever a value has no terminating decimal. Plain JSON
integers are allowed; floats are rejected because they are already inexact.

Bid files share the value conventions and map advertiser names to bids::

    {"bids": {"A": "1.5", "E": "0"}}

Advertisers omitted from a bid file default to bidding their value, which is
the standing threat level used throughout the equilibrium analysis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Scalar = Fraction
BidProfile = tuple[Fraction, ...]


class InstanceError(ValueError):
    """A document or value failed validation; the message says where."""


class InternalError(RuntimeError):
    """An invariant of the package itself broke: a bug, not bad input."""


# CPython's default int-to-str limit. A literal with more digits could not be
# printed back, and an exponent in the millions makes Fraction() spend
# seconds building a power of ten before anything else is checked.
_MAX_DIGITS = 4300


def _check_literal_size(text: str, where: str) -> None:
    if len(text) > _MAX_DIGITS and sum(ch.isdigit() for ch in text) > _MAX_DIGITS:
        raise InstanceError(f"{where}: number literal has more than {_MAX_DIGITS} digits")
    _, marker, exponent = text.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if marker and digits.isdecimal() and (
        len(digits) > len(str(_MAX_DIGITS)) or int(digits) > _MAX_DIGITS
    ):
        raise InstanceError(
            f"{where}: exponent larger than {_MAX_DIGITS} in magnitude, "
            f"the number would have more than {_MAX_DIGITS} digits"
        )


def parse_scalar(value: object, where: str = "value") -> Fraction:
    """Parse an exact scalar from a JSON value (string or integer).

    Floats are rejected: by the time json has produced one, exactness is
    already lost. String literals with more than 4300 digits or an exponent
    beyond ±4300 are rejected before they are converted.
    """
    if isinstance(value, bool):
        raise InstanceError(f"{where}: expected a number, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        _check_literal_size(text, where)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"{where}: not an exact number: {value!r}") from None
    if isinstance(value, float):
        raise InstanceError(
            f"{where}: floats are inexact, write the number as a string"
        )
    raise InstanceError(f"{where}: expected a string-encoded number, got {type(value).__name__}")


def _terminating_decimal(x: Fraction) -> str | None:
    """Exact decimal string for x, or None when the decimal does not terminate."""
    den = x.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    if digits == 0:
        return str(x.numerator)
    scaled = abs(x.numerator) * 10**digits // x.denominator
    text = str(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    sign = "-" if x.numerator < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def format_scalar(x: Fraction) -> str:
    """Render exactly: terminating decimal if one exists, else "p/q"."""
    decimal = _terminating_decimal(x)
    return decimal if decimal is not None else f"{x.numerator}/{x.denominator}"


def display_scalar(x: Fraction) -> str:
    """Human-facing rendering: adds an approximate decimal to fraction forms
    whose magnitude fits in a float."""
    decimal = _terminating_decimal(x)
    if decimal is not None:
        return decimal
    try:
        approximation = f" (~{float(x):.6g})"
    except OverflowError:
        approximation = ""
    return f"{x.numerator}/{x.denominator}{approximation}"


@dataclass(frozen=True)
class Ad:
    """One ad: an id (its position in the instance) and its member set."""

    id: int
    members: frozenset[int]


@dataclass(frozen=True)
class AuctionInstance:
    """Immutable auction instance: advertiser names, values, and ads.

    Invariants enforced at construction: values are non-negative, ad ids
    match their positions, member sets are non-empty, pairwise distinct and
    reference declared advertisers, and every advertiser appears in at least
    one ad.
    """

    names: tuple[str, ...]
    values: tuple[Fraction, ...]
    ads: tuple[Ad, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise InstanceError("at least one advertiser is required")
        if len(set(self.names)) != len(self.names):
            raise InstanceError("advertiser names must be unique")
        if len(self.values) != len(self.names):
            raise InstanceError("one value per advertiser is required")
        for k, value in enumerate(self.values):
            if value < 0:
                raise InstanceError(f"advertisers[{k}].value: negative value {format_scalar(value)}")
        if not self.ads:
            raise InstanceError("at least one ad is required")
        seen: dict[frozenset[int], int] = {}
        covered: set[int] = set()
        for position, ad in enumerate(self.ads):
            if ad.id != position:
                raise InstanceError(f"ads[{position}]: id {ad.id} does not match position")
            if not ad.members:
                raise InstanceError(f"ads[{position}]: empty ad")
            for i in ad.members:
                if not 0 <= i < len(self.names):
                    raise InstanceError(f"ads[{position}]: unknown advertiser index {i}")
            if ad.members in seen:
                raise InstanceError(
                    f"ads[{position}]: identical member set to ads[{seen[ad.members]}]"
                )
            seen[ad.members] = position
            covered |= ad.members
        for i, name in enumerate(self.names):
            if i not in covered:
                raise InstanceError(f"advertiser {name!r} appears in no ad")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.ads)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InstanceError(f"unknown advertiser {name!r}") from None

    def members(self, ad_id: int) -> frozenset[int]:
        return self.ads[ad_id].members

    def member_names(self, ad_id: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in sorted(self.ads[ad_id].members))

    def label(self, ad_id: int) -> str:
        return f"ad {ad_id} {{{', '.join(self.member_names(ad_id))}}}"

    @classmethod
    def build(
        cls,
        values: Mapping[str, object],
        ads: Sequence[Iterable[str]],
    ) -> "AuctionInstance":
        """Convenience constructor from a name->value mapping and name lists,
        validated as the equivalent instance document."""
        doc = {
            "advertisers": [{"name": name, "value": v} for name, v in values.items()],
            "ads": [list(member_names) for member_names in ads],
        }
        return instance_from_document(doc)


def load_document(text: str) -> object:
    """Decode a JSON document, reporting a syntax error as an InstanceError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from None


def parse_instance(text: str) -> AuctionInstance:
    """Parse and validate an instance document, reporting the failing location."""
    return instance_from_document(load_document(text))


def instance_from_document(doc: object) -> AuctionInstance:
    """Validate a decoded instance document, reporting the failing location.

    Checks here cover what the built instance cannot see: document shape,
    types, names and repeated members; `AuctionInstance` checks the rest.
    """
    if not isinstance(doc, dict):
        raise InstanceError("top level: expected an object")
    advertisers = doc.get("advertisers")
    if not isinstance(advertisers, list) or not advertisers:
        raise InstanceError("advertisers: expected a non-empty list")
    names: list[str] = []
    values: list[Fraction] = []
    for k, entry in enumerate(advertisers):
        if not isinstance(entry, dict) or "name" not in entry or "value" not in entry:
            raise InstanceError(f"advertisers[{k}]: expected an object with name and value")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InstanceError(f"advertisers[{k}].name: expected a non-empty string")
        if name in names:
            raise InstanceError(f"advertisers[{k}].name: duplicate advertiser {name!r}")
        names.append(name)
        values.append(parse_scalar(entry["value"], where=f"advertisers[{k}].value"))
    index = {name: i for i, name in enumerate(names)}
    ads_doc = doc.get("ads")
    if not isinstance(ads_doc, list) or not ads_doc:
        raise InstanceError("ads: expected a non-empty list")
    ads: list[Ad] = []
    for j, entry in enumerate(ads_doc):
        if not isinstance(entry, list) or not entry:
            raise InstanceError(f"ads[{j}]: expected a non-empty list of advertiser names")
        members: set[int] = set()
        for name in entry:
            if not isinstance(name, str) or name not in index:
                raise InstanceError(f"ads[{j}]: unknown advertiser {name!r}")
            if index[name] in members:
                raise InstanceError(f"ads[{j}]: duplicate member {name!r}")
            members.add(index[name])
        ads.append(Ad(id=j, members=frozenset(members)))
    return AuctionInstance(names=tuple(names), values=tuple(values), ads=tuple(ads))


def serialize_instance(instance: AuctionInstance) -> str:
    doc = {
        "advertisers": [
            {"name": name, "value": format_scalar(value)}
            for name, value in zip(instance.names, instance.values)
        ],
        "ads": [list(instance.member_names(ad.id)) for ad in instance.ads],
    }
    return json.dumps(doc, indent=2)


def parse_bids(text: str, instance: AuctionInstance) -> BidProfile:
    """Parse a bid file against an instance.

    Returns a full profile, one bid per advertiser in instance order;
    advertisers missing from the document bid their value.
    """
    doc = load_document(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("bids"), dict):
        raise InstanceError('top level: expected {"bids": {name: amount}}')
    bids = list(instance.values)
    for name, amount in doc["bids"].items():
        if name not in instance.names:
            raise InstanceError(f"bids: unknown advertiser {name!r}")
        bids[instance.index(name)] = parse_scalar(amount, where=f"bids[{name!r}]")
    return tuple(bids)


def check_bids(instance: AuctionInstance, bids: Sequence[Fraction]) -> BidProfile:
    if len(bids) != instance.n:
        raise InstanceError(
            f"bid profile has {len(bids)} entries, instance has {instance.n} advertisers"
        )
    return tuple(b if isinstance(b, Fraction) else Fraction(b) for b in bids)


def exact_sum(terms: Iterable[Fraction | int]) -> Fraction:
    """The exact sum of rationals or ints, always as a Fraction (0 when empty).

    One integer pass: the running numerator is kept over the lcm of the
    denominators seen so far, so the result is normalized once instead of
    paying a gcd per addition. The terms are not collected into a list; in
    a long-lived process such per-call temporaries fragmented the heap.
    """
    numerator, common = 0, 1
    for term in terms:
        denominator = term.denominator
        if common % denominator:
            grown = math.lcm(common, denominator)
            numerator *= grown // common
            common = grown
        numerator += term.numerator * (common // denominator)
    return Fraction(numerator, common)


def total_value(instance: AuctionInstance, ad_id: int) -> Fraction:
    """Sum of member values for one ad."""
    return exact_sum(instance.values[i] for i in instance.ads[ad_id].members)


def total_bid(instance: AuctionInstance, bids: Sequence[Fraction], ad_id: int) -> Fraction:
    """Sum of member bids for one ad."""
    return exact_sum(bids[i] for i in instance.ads[ad_id].members)


@dataclass(frozen=True)
class Outcome:
    """A cleared auction: who won, who pays what, and who keeps what.

    Surpluses are value minus payment for members of the winning ad and zero
    for everyone else; revenue is the sum of payments, and only winning
    members ever pay.
    """

    winner: int
    payments: tuple[Fraction, ...]
    revenue: Fraction
    surpluses: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if exact_sum(self.payments) != self.revenue:
            raise ValueError("revenue must equal the sum of payments")


def settle(instance: AuctionInstance, winner: int, bids: Sequence[Fraction]) -> Outcome:
    """Charge the winning ad's members their own bids."""
    members = instance.ads[winner].members
    payments = tuple(bids[i] if i in members else Fraction(0) for i in range(instance.n))
    surpluses = tuple(
        instance.values[i] - bids[i] if i in members else Fraction(0)
        for i in range(instance.n)
    )
    return Outcome(
        winner=winner,
        payments=payments,
        revenue=exact_sum(payments),
        surpluses=surpluses,
    )

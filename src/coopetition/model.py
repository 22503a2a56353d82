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

Values are strings so decimals survive exactly ("2.9" parses to 29/10);
"1/3" is accepted too, and the serializer falls back to that form whenever
a value has no terminating decimal. Integers are allowed; floats, already
inexact, and bools are rejected, in documents and library calls alike.

Bid files share the value conventions and map advertiser names to bids::

    {"bids": {"A": "1.5", "E": "0"}}

Advertisers omitted from a bid file default to bidding their value, which is
the standing threat level used throughout the equilibrium analysis.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Scalar = Fraction
BidProfile = tuple[Fraction, ...]


class InstanceError(ValueError):
    """A document or value failed validation; the message says where."""


class InternalError(RuntimeError):
    """An invariant of the package itself broke: a bug, not bad input."""


class Record:
    """Base of the package's immutable records.

    A record lists its fields in `__slots__`, and its constructor is
    generated from them, one parameter per field in slot order, setting each
    field once through its slot. A record with checks, defaults or
    conversions writes its own `__init__`, which ends in one call to that
    generated setter, `self._set_fields(...)`. Records of one type compare and
    hash field by field and print as `Name(field=value, ...)`; copy and
    pickle still go through `__init__`, so its checks run again; assignment
    and deletion raise AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Compile the setter of each type with fields of its own."""
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__")
        if fields:
            # Straight-line code: a loop over the fields costs twice as much.
            scope = {f"_set_{name}": cls.__dict__[name].__set__ for name in fields}
            body = "; ".join(f"_set_{name}(self, {name})" for name in fields)
            exec(f"def __init__(self, {', '.join(fields)}):\n    {body}", scope)
            init = cls._set_fields = scope["__init__"]
            init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
            if "__init__" not in cls.__dict__:
                cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class FrozenMap(dict):
    """A read-only dict that hashes, for a record's mapping fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self) -> tuple:
        return type(self), (dict(self),)

    def _read_only(self, *args: object) -> None:
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class GridSpec(Record):
    """Lattice resolution and a hard cap on how many points may be swept."""

    __slots__ = ("epsilon", "budget")
    epsilon: Fraction
    budget: int

    def __init__(self, epsilon: Fraction, budget: int = 10_000_000) -> None:
        epsilon = parse_scalar(epsilon, "epsilon")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self._set_fields(epsilon, budget)


class GridBudgetError(RuntimeError):
    """The requested sweep is larger than the configured budget."""

    def __init__(self, points: int, budget: int) -> None:
        count = points if points < 10**_MAX_DIGITS else f"at least 10^{_MAX_DIGITS}"
        super().__init__(f"grid needs {count} points, budget is {budget}")


# CPython's default int-to-str limit. A literal with more digits could not be
# printed back, and an exponent in the millions makes Fraction() spend
# seconds building a power of ten before anything else is checked.
_MAX_DIGITS = 4300
# An instance's scale may have ten times as many digits, so any one literal
# fits; counted in bits, as 2**(3.33 * d) has more than d digits.
_MAX_SCALE_BITS = 10 * _MAX_DIGITS * 333 // 100


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


def _common_denominator(scalars: Iterable[tuple[object, Fraction]], place: str, what: str) -> int:
    """The lcm of the (key, scalar) pairs' denominators, one at a time; an
    InstanceError at `place.format(key)` once it passes 43,000 digits."""
    scale = 1
    for key, x in scalars:
        scale = math.lcm(scale, x.denominator)
        if scale.bit_length() > _MAX_SCALE_BITS:
            raise InstanceError(
                f"{place.format(key)}: the {what}' common denominator has more "
                f"than {10 * _MAX_DIGITS} digits"
            )
    return scale


# The longest string `parse_scalar` reads with int() alone; a longer one
# goes through its literal-size checks.
_PLAIN_LENGTH = 40


def parse_scalar(value: object, where: str = "value") -> Fraction:
    """Parse an exact scalar from a JSON value (string or integer).

    A short string "123", "p/q" (q nonzero) or "12.5" of ASCII digits is
    read with int(). Floats are rejected: by the time json has produced one,
    exactness is already lost. String literals with more than 4300 digits or
    an exponent beyond ±4300 are rejected before they are converted.
    """
    if type(value) is str and len(value) <= _PLAIN_LENGTH and value.isascii():
        if value.isdigit():
            return Fraction(int(value))
        num, slash, den = value.partition("/")
        if slash and num.isdigit() and den.isdigit() and int(den):
            return Fraction(int(num), int(den))
        whole, dot, decimals = value.partition(".")
        if dot and whole.isdigit() and decimals.isdigit():
            return Fraction(int(whole + decimals), 10 ** len(decimals))
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


def exact_scalars(xs: Iterable[object], place: str) -> tuple[Fraction, ...]:
    """A caller's numbers as Fractions: each Fraction as it is, anything else
    through `parse_scalar` at `place.format(position)`, so a float or a bool
    is an InstanceError that says where."""
    return tuple(
        [x if type(x) is Fraction else parse_scalar(x, place.format(k)) for k, x in enumerate(xs)]
    )


@functools.lru_cache(maxsize=256)
def _decimal_plan(denominator: int) -> tuple[int, int] | None:
    """(digits, 10**digits // denominator) when p/denominator has a decimal of
    that many places, else None; a report's numbers share a few denominators."""
    twos = (denominator & -denominator).bit_length() - 1
    rest, fives = denominator >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    digits = max(twos, fives)
    return digits, 10**digits // denominator


def _terminating_decimal(x: Fraction) -> str | None:
    """Exact decimal string for x, or None when the decimal does not terminate."""
    numerator, denominator = x.numerator, x.denominator
    if denominator == 1:
        return str(numerator)
    plan = _decimal_plan(denominator)
    if plan is None:
        return None
    digits, factor = plan
    text = str(abs(numerator) * factor).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    sign = "-" if numerator < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def format_scalar(x: Fraction) -> str:
    """Render exactly: terminating decimal if one exists, else "p/q"; an
    InstanceError when a numerator or denominator is too long to print."""
    try:
        decimal = _terminating_decimal(x)
        return decimal if decimal is not None else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise InstanceError(f"a number to print has more than {_MAX_DIGITS} digits") from None


def display_scalar(x: Fraction) -> str:
    """Human-facing rendering: adds an approximate decimal to fraction forms
    whose magnitude fits in a float."""
    text = format_scalar(x)
    if "/" not in text:
        return text
    try:
        return f"{text} (~{float(x):.6g})"
    except OverflowError:
        return text


class Ad(Record):
    """One ad: its member set. Its id is its position in the instance."""

    __slots__ = ("members",)
    members: frozenset[int]


class _Scaled:
    """An instance's values on one integer scale, computed at construction.

    `_scale` is the lcm of the value denominators, `_units[i]` is value i
    times `_scale` and `_totals[j]` is ad j's total in those units, so the
    mechanisms compare and subtract ad totals as ints and build one Fraction
    per reported number. These are caches, not fields: equality, hashing,
    repr and pickle see only the record's own fields, and an unpickled
    instance rebuilds them in `__init__`.
    """

    __slots__ = ("_scale", "_units", "_totals")
    _scale: int
    _units: tuple[int, ...]
    _totals: tuple[int, ...]


class AuctionInstance(Record, _Scaled):
    """Immutable auction instance: advertiser names, values, and ads.

    Invariants enforced at construction: values are non-negative, member
    sets are non-empty, pairwise distinct and reference declared advertisers,
    and every advertiser appears in at least one ad.
    """

    __slots__ = ("names", "values", "ads")
    names: tuple[str, ...]
    values: tuple[Fraction, ...]
    ads: tuple[Ad, ...]

    def __init__(
        self, names: tuple[str, ...], values: tuple[Fraction, ...], ads: tuple[Ad, ...]
    ) -> None:
        if not names:
            raise InstanceError("at least one advertiser is required")
        if len(set(names)) != len(names):
            raise InstanceError("advertiser names must be unique")
        if len(values) != len(names):
            raise InstanceError("one value per advertiser is required")
        values = exact_scalars(values, "advertisers[{}].value")
        for k, value in enumerate(values):
            if value.numerator < 0:
                raise InstanceError(f"advertisers[{k}].value: negative value {format_scalar(value)}")
        scale = _common_denominator(enumerate(values), "advertisers[{}].value", "values")
        if not ads:
            raise InstanceError("at least one ad is required")
        indices = frozenset(range(len(names)))
        seen: dict[frozenset[int], int] = {}
        covered: set[int] = set()
        for position, ad in enumerate(ads):
            if not ad.members:
                raise InstanceError(f"ads[{position}]: empty ad")
            if not ad.members <= indices:
                bad = next(i for i in ad.members if i not in indices)
                raise InstanceError(f"ads[{position}]: unknown advertiser index {bad}")
            if ad.members in seen:
                raise InstanceError(
                    f"ads[{position}]: identical member set to ads[{seen[ad.members]}]"
                )
            seen[ad.members] = position
            covered |= ad.members
        for i, name in enumerate(names):
            if i not in covered:
                raise InstanceError(f"advertiser {name!r} appears in no ad")
        self._set_fields(names, values, ads)
        units = tuple([v.numerator * (scale // v.denominator) for v in values])
        totals = tuple([sum(map(units.__getitem__, ad.members)) for ad in ads])
        _Scaled._scale.__set__(self, scale)
        _Scaled._units.__set__(self, units)
        _Scaled._totals.__set__(self, totals)

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
    """Decode a JSON document, reporting a syntax error, an integer literal
    past the interpreter's digit limit (without its hint to raise the limit)
    or nesting past the recursion limit as an InstanceError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"not valid JSON: {str(exc).partition('; use ')[0]}") from None


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
    index: dict[str, int] = {}
    for k, entry in enumerate(advertisers):
        if not isinstance(entry, dict) or "name" not in entry or "value" not in entry:
            raise InstanceError(f"advertisers[{k}]: expected an object with name and value")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise InstanceError(f"advertisers[{k}].name: expected a non-empty string")
        if name in index:
            raise InstanceError(f"advertisers[{k}].name: duplicate advertiser {name!r}")
        index[name] = k
        names.append(name)
        values.append(parse_scalar(entry["value"], where=f"advertisers[{k}].value"))
    ads_doc = doc.get("ads")
    if not isinstance(ads_doc, list) or not ads_doc:
        raise InstanceError("ads: expected a non-empty list")
    ads: list[Ad] = []
    for j, entry in enumerate(ads_doc):
        if not isinstance(entry, list) or not entry:
            raise InstanceError(f"ads[{j}]: expected a non-empty list of advertiser names")
        try:
            members = frozenset(map(index.__getitem__, entry))
        except (KeyError, TypeError):
            members = frozenset()
        if len(members) != len(entry):
            # Some name is unknown, not a string or repeated: find the first.
            seen: set[str] = set()
            for name in entry:
                if not isinstance(name, str) or name not in index:
                    raise InstanceError(f"ads[{j}]: unknown advertiser {name!r}")
                if name in seen:
                    raise InstanceError(f"ads[{j}]: duplicate member {name!r}")
                seen.add(name)
        ads.append(Ad(members))
    return AuctionInstance(names=tuple(names), values=tuple(values), ads=tuple(ads))


def serialize_instance(instance: AuctionInstance) -> str:
    doc = {
        "advertisers": [
            {"name": name, "value": format_scalar(value)}
            for name, value in zip(instance.names, instance.values)
        ],
        "ads": [list(instance.member_names(j)) for j in range(instance.m)],
    }
    return json.dumps(doc, indent=2)


def parse_bids(text: str, instance: AuctionInstance) -> BidProfile:
    """Parse a bid file against an instance.

    Returns a full profile, one bid per advertiser in instance order;
    advertisers missing from the document bid their value. The bids'
    common denominator is held to the limit of the values'.
    """
    doc = load_document(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("bids"), dict):
        raise InstanceError('top level: expected {"bids": {name: amount}}')
    bids = list(instance.values)
    index = {name: i for i, name in enumerate(instance.names)}
    for name, amount in doc["bids"].items():
        if name not in index:
            raise InstanceError(f"bids: unknown advertiser {name!r}")
        bids[index[name]] = parse_scalar(amount, where=f"bids[{name!r}]")
    _common_denominator([(name, bids[index[name]]) for name in doc["bids"]], "bids[{!r}]", "bids")
    return tuple(bids)


def check_bids(instance: AuctionInstance, bids: Sequence[object]) -> BidProfile:
    """One Fraction per advertiser, read by `exact_scalars` at `bids[i]`."""
    if len(bids) != instance.n:
        raise InstanceError(
            f"bid profile has {len(bids)} entries, instance has {instance.n} advertisers"
        )
    return exact_scalars(bids, "bids[{}]")


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


def total_bid(instance: AuctionInstance, bids: Sequence[Fraction], ad_id: int) -> Fraction:
    """Sum of member bids for one ad."""
    return exact_sum(bids[i] for i in instance.ads[ad_id].members)


# The one shared Fraction zero: what everyone outside the winning ad pays and keeps.
ZERO = Fraction(0)


class Outcome(Record):
    """A cleared auction: who won, who pays what, and who keeps what.

    Surpluses are value minus payment for members of the winning ad and zero
    for everyone else; revenue is the sum of payments, and only winning
    members ever pay.
    """

    __slots__ = ("winner", "payments", "revenue", "surpluses")
    winner: int
    payments: tuple[Fraction, ...]
    revenue: Fraction
    surpluses: tuple[Fraction, ...]

    def __init__(
        self,
        winner: int,
        payments: tuple[Fraction, ...],
        revenue: Fraction,
        surpluses: tuple[Fraction, ...],
    ) -> None:
        if exact_sum(payments) != revenue:
            raise ValueError("revenue must equal the sum of payments")
        self._set_fields(winner, payments, revenue, surpluses)


def settle(instance: AuctionInstance, winner: int, bids: Sequence[Fraction]) -> Outcome:
    """Charge the winning ad's members their own bids; only they are touched."""
    payments = [ZERO] * instance.n
    surpluses = [ZERO] * instance.n
    values = instance.values
    members = instance.ads[winner].members
    for i in members:
        bid = payments[i] = bids[i]
        surpluses[i] = values[i] - bid if bid else values[i]
    revenue = exact_sum(bids[i] for i in members)
    return Outcome(winner, tuple(payments), revenue, tuple(surpluses))

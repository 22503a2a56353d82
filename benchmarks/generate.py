"""Seeded instance documents for the benchmark workloads.

Every function takes a ``random.Random`` and returns plain JSON-ready
documents (values are exact strings), so the package under test receives
only what a user would hand it on disk. Nothing here imports the package.

Families:

* ``bounds_instance``: the acceptance-suite family, a copy of
  ``tests/helpers.random_instance`` that emits documents and names
  advertisers past Z (AA, AB, ...).
* ``rival_instance``: a winning ad of k members facing ``RIVALS_PER_MEMBER * k``
  rival ads. Each rival shares a random part of the winner and adds one
  outside advertiser whose value is a fraction in [3/10, 19/20] of the
  winner members the rival lacks, so the winner stays strictly efficient and
  its envy-free rows bind at varied depths.
* ``owned_instance``: the two-seller market of acceptance criterion 9 with
  seeded values, with or without the entrant that locks the rider out.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

DENOMINATORS = (1, 1, 2, 3, 4, 5, 8, 10)
QUARTER_VALUES = tuple(Fraction(k, 4) for k in range(9))
RIVALS_PER_MEMBER = 2


def advertiser_name(index: int) -> str:
    """Spreadsheet-style names: A..Z, AA..AZ, BA.. and so on."""
    name = ""
    index += 1
    while index:
        index, rest = divmod(index - 1, 26)
        name = chr(ord("A") + rest) + name
    return name


def document(values: dict[str, Fraction], ads: list[list[str]]) -> dict:
    return {
        "advertisers": [{"name": name, "value": str(v)} for name, v in values.items()],
        "ads": [list(ad) for ad in ads],
    }


def random_value(rng: random.Random, high: int = 40) -> Fraction:
    return Fraction(rng.randint(0, high), rng.choice(DENOMINATORS))


def bounds_instance(
    rng: random.Random,
    max_n: int = 8,
    max_m: int = 6,
    value_pool: tuple[Fraction, ...] | None = None,
) -> dict:
    """Distinct non-empty ads that jointly cover everyone (acceptance family)."""
    for _ in range(1000):
        n = rng.randint(1, max_n)
        names = [advertiser_name(i) for i in range(n)]
        if value_pool is None:
            values = {name: random_value(rng) for name in names}
        else:
            values = {name: rng.choice(value_pool) for name in names}
        m = rng.randint(1, max_m)
        ads: list[frozenset[str]] = []
        for _ in range(m):
            size = rng.randint(1, n)
            ads.append(frozenset(rng.sample(names, size)))
        covered = set().union(*ads)
        for name in names:
            if name not in covered:
                j = rng.randrange(len(ads))
                ads[j] = ads[j] | {name}
        if len(set(ads)) != len(ads):
            continue
        return document(values, [sorted(ad) for ad in ads])
    raise RuntimeError("random instance generation kept colliding")


def rival_instance(rng: random.Random, members: int) -> dict:
    """Winner of `members` advertisers (ad 0) against overlapping rival ads."""
    winner = [advertiser_name(i) for i in range(members)]
    values = {
        name: Fraction(rng.randint(4, 40), rng.choice((1, 2, 4, 5))) for name in winner
    }
    twentieths = {name: int(20 * value) for name, value in values.items()}
    ads = [winner]
    for r in range(RIVALS_PER_MEMBER * members):
        shared = rng.sample(winner, rng.randint(0, members - 1))
        inside = set(shared)
        lacking = Fraction(sum(twentieths[name] for name in winner if name not in inside), 20)
        outsider = advertiser_name(members + r)
        values[outsider] = lacking * Fraction(rng.randint(6, 19), 20)
        ads.append(sorted(shared) + [outsider])
    return document(values, ads)


def owned_instance(rng: random.Random, entrant: bool) -> dict:
    """Criterion-9 shape: sellers S and D each own an ad shared with rider M.

    The entrant A, when present, owns a solo ad worth more than either
    seller's bid, which pushes the rider's ads out of the single slot unless
    it pledges a subsidy.
    """
    s = Fraction(rng.randint(2, 8), rng.choice((1, 2, 4)))
    d = Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
    m = Fraction(rng.randint(6, 12))
    values = {"S": s, "M": m, "D": d}
    ads = [["M", "S"], ["D", "M"]]
    owners = ["S", "D"]
    if entrant:
        values["A"] = max(s, d) + Fraction(rng.randint(1, 8), 2)
        ads.append(["A"])
        owners.append("A")
    doc = document(values, ads)
    doc["owners"] = owners
    doc["slots"] = ["1"]
    return doc


def doc_values(doc: dict) -> dict[str, Fraction]:
    return {entry["name"]: Fraction(entry["value"]) for entry in doc["advertisers"]}


def scaled_values(doc: dict) -> tuple[dict[str, int], int]:
    """Values times their least common denominator, and that denominator.

    Sums of these ints order and compare exactly as the Fraction sums do, at
    a fraction of the cost, which keeps document generation out of set-up.
    """
    values = doc_values(doc)
    scale = math.lcm(*(v.denominator for v in values.values()))
    return {name: v.numerator * (scale // v.denominator) for name, v in values.items()}, scale


def _winner(doc: dict, values: dict[str, int]) -> list[str]:
    totals = [sum(values[name] for name in ad) for ad in doc["ads"]]
    winner = set(doc["ads"][totals.index(max(totals))])
    return [name for name in values if name in winner]


def winner_members(doc: dict) -> list[str]:
    """Members of the efficient ad (largest total value, lowest index on ties),
    in advertiser order, which is the order `--weights` follows."""
    return _winner(doc, scaled_values(doc)[0])


def _scaled_rows(doc: dict, values: dict[str, int]) -> tuple[list[str], list[tuple[list[str], int]]]:
    members = _winner(doc, values)
    winner = set(members)
    rows = []
    for ad in doc["ads"]:
        inside = set(ad)
        bidders = [name for name in members if name not in inside]
        if bidders:
            rows.append((bidders, sum(values[name] for name in ad if name not in winner)))
    return members, rows


def cef_rows(doc: dict) -> tuple[list[str], list[tuple[list[str], Fraction]]]:
    """The winner's members and its envy-free rows (bidders, rhs).

    A rival S gives the row: bids over the winner members outside S sum to at
    least the value of S's members outside the winner. Rivals covering the
    whole winner give no row.
    """
    values, scale = scaled_values(doc)
    members, rows = _scaled_rows(doc, values)
    return members, [(bidders, Fraction(rhs, scale)) for bidders, rhs in rows]


def equilibrium_bids(doc: dict, rng: random.Random) -> dict[str, Fraction]:
    """A first-price equilibrium of the winner, by greedy lowering.

    Members are lowered one at a time, in a seeded order, as far as every
    envy-free row and zero allow. A row that goes tight stays tight, since
    later members cannot lower past it, so every member ends at zero or on a
    tight row that excludes it: a Pareto-minimal point of the polytope.
    """
    values, scale = scaled_values(doc)
    members, rows = _scaled_rows(doc, values)
    bids = {name: values[name] for name in members}
    slack = [sum(bids[b] for b in bidders) - rhs for bidders, rhs in rows]
    rows_of: dict[str, list[int]] = {name: [] for name in members}
    for r, (bidders, _) in enumerate(rows):
        for name in bidders:
            rows_of[name].append(r)
    order = list(members)
    rng.shuffle(order)
    for name in order:
        room = min([bids[name]] + [slack[r] for r in rows_of[name]])
        bids[name] -= room
        for r in rows_of[name]:
            slack[r] -= room
    return {name: Fraction(bid, scale) for name, bid in bids.items()}


def vertex_combinations(doc: dict) -> tuple[int, int]:
    """C(rows, d), the constraint subsets vertex enumeration solves, and how
    many of the rows are envy-free rows rather than bounds. The rows are the
    distinct envy-free rows with a positive right side and both bounds of
    every member bid."""
    values, _ = scaled_values(doc)
    members, rows = _scaled_rows(doc, values)
    envy_free = {(tuple(bidders), rhs) for bidders, rhs in rows if rhs != 0}
    bounds = {((name,), 0) for name in members}
    bounds |= {((name,), values[name]) for name in members if values[name] != 0}
    return math.comb(len(envy_free | bounds), len(members)), len(envy_free)


def enumeration_cost(combinations: int, envy_free: int) -> int:
    """Relative cost of vertex enumeration, from `vertex_combinations`.

    Measured at n <= 8 (CPython 3.11, 2 vCPU): about 95 us per combination
    with bound rows only, plus about 45 us per envy-free row, since systems
    made of bounds alone turn singular at the first repeated coordinate.
    """
    return combinations * (2 + envy_free)

"""The cooperative envy-free bid polytope and its equilibrium structure.

For the efficient winning ad T, a bid vector over T's members is cooperative
envy-free (CEF) when, against every rival ad, the members of T outside that
rival collectively outbid the rival's outside value: for each rival ad S,

    sum of bids over (T minus S)  >=  sum of values over (S minus T).

Together with individual rationality (0 <= bid <= value) this carves a
polytope out of the box of member bids. A profile in the polytope is a
first-price equilibrium exactly when no member with a positive bid could
lower it and keep winning, i.e. every such member is pinned by some rival ad
it does not belong to whose total ties the winner's. Pinned-everywhere points
are precisely the Pareto-minimal points of the polytope, which is why
minimizing any strictly positive linear objective over it lands on one.

Non-winners take no action in this analysis: their bids are fixed at their
values, the standing threat level.

In surplus coordinates y = value - bid the polytope is a 0/1 packing
system: each envy-free row becomes

    sum of y over (T minus S)  <=  sum of values over (T minus S) - rhs,

and IR becomes 0 <= y <= value. The right-hand side is the winner's value
minus the rival's, restricted to where they differ, so it is non-negative
because T is efficient. Truthful bidding (y = 0) is therefore always
feasible, which lets the LP start from the slack basis in a single phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .mechanisms import efficient_winner
from .model import AuctionInstance, BidProfile, check_bids, format_scalar
# benchmarks/spans.py wraps polytope.solve_square_system by name in its traced
# run, so the name stays bound here although nothing in this module calls it.
from .simplex import ONE, ZERO, solve_min, solve_square_system  # noqa: F401


@dataclass(frozen=True)
class CefConstraint:
    """One rival ad's envy-free row: sum of bids over `bidders` >= rhs."""

    ad: int
    bidders: tuple[int, ...]
    rhs: Fraction

    def slack(self, bids: Sequence[Fraction]) -> Fraction:
        return sum((bids[i] for i in self.bidders), Fraction(0)) - self.rhs


@dataclass(frozen=True)
class CefPolytope:
    """CEF + IR + non-negativity constraints over the winner's member bids."""

    instance: AuctionInstance
    winner: int
    constraints: tuple[CefConstraint, ...]

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.instance.members(self.winner)))


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Why nobody lowers: each member is at zero (None) or names a tying
    rival ad it does not belong to."""

    witnesses: Mapping[int, int | None]


@dataclass(frozen=True)
class EquilibriumResult:
    ok: bool
    certificate: EquilibriumCertificate | None
    failure: str | None

    def __bool__(self) -> bool:
        return self.ok


def build_polytope(instance: AuctionInstance) -> CefPolytope:
    """Collect the envy-free rows for the efficient winner.

    Rival ads containing all of the winner's members yield the vacuous row
    0 >= 0 (efficiency forces their outside value to zero) and are dropped.
    """
    winner = efficient_winner(instance)
    winner_members = instance.members(winner)
    constraints = []
    for j in range(instance.m):
        if j == winner:
            continue
        rival = instance.members(j)
        bidders = tuple(sorted(winner_members - rival))
        rhs = sum((instance.values[i] for i in rival - winner_members), Fraction(0))
        if not bidders:
            if rhs != 0:
                raise RuntimeError("an ad covering the winner cannot out-value it")
            continue
        constraints.append(CefConstraint(ad=j, bidders=bidders, rhs=rhs))
    return CefPolytope(instance=instance, winner=winner, constraints=tuple(constraints))


def canonical_bids(polytope: CefPolytope, bids: Sequence[Fraction]) -> BidProfile:
    """Replace non-winner bids with their values; member bids pass through."""
    instance = polytope.instance
    profile = check_bids(instance, bids)
    members = instance.members(polytope.winner)
    return tuple(
        profile[i] if i in members else instance.values[i] for i in range(instance.n)
    )


def is_ir(instance: AuctionInstance, bids: Sequence[Fraction]) -> bool:
    """Every bid within [0, value]."""
    return first_ir_violation(instance, bids) is None


def first_ir_violation(instance: AuctionInstance, bids: Sequence[Fraction]) -> int | None:
    profile = check_bids(instance, bids)
    for i, bid in enumerate(profile):
        if bid < 0 or bid > instance.values[i]:
            return i
    return None


def is_cef(polytope: CefPolytope, bids: Sequence[Fraction]) -> bool:
    """Every envy-free row satisfied (non-winner bids are irrelevant here)."""
    return first_cef_violation(polytope, bids) is None


def first_cef_violation(
    polytope: CefPolytope, bids: Sequence[Fraction]
) -> CefConstraint | None:
    profile = check_bids(polytope.instance, bids)
    for constraint in polytope.constraints:
        if constraint.slack(profile) < 0:
            return constraint
    return None


def is_equilibrium(polytope: CefPolytope, bids: Sequence[Fraction]) -> EquilibriumResult:
    """Check the no-unilateral-lowering condition and produce a certificate.

    Non-winner bids are canonicalized to their values first. Fails fast with
    a reason when the profile is not IR or not CEF; otherwise every member
    with a positive bid must be pinned by a tying rival ad that excludes it.
    """
    instance = polytope.instance
    profile = canonical_bids(polytope, bids)
    violator = first_ir_violation(instance, profile)
    if violator is not None:
        name = instance.names[violator]
        return EquilibriumResult(
            ok=False,
            certificate=None,
            failure=(
                f"not IR: {name!r} bids {format_scalar(profile[violator])}, outside "
                f"[0, {format_scalar(instance.values[violator])}]"
            ),
        )
    violated = first_cef_violation(polytope, profile)
    if violated is not None:
        return EquilibriumResult(
            ok=False,
            certificate=None,
            failure=(
                f"not CEF: against {instance.label(violated.ad)} the uncovered members "
                f"bid {format_scalar(violated.slack(profile) + violated.rhs)}, below the "
                f"outside value {format_scalar(violated.rhs)}"
            ),
        )
    witnesses: dict[int, int | None] = {}
    for k in polytope.members:
        if profile[k] == 0:
            witnesses[k] = None
            continue
        witness = next(
            (
                c.ad
                for c in polytope.constraints
                if k in c.bidders and c.slack(profile) == 0
            ),
            None,
        )
        if witness is None:
            return EquilibriumResult(
                ok=False,
                certificate=None,
                failure=(
                    f"{instance.names[k]!r} bids {format_scalar(profile[k])} but no rival "
                    f"ad excluding it ties the winner: lowering would be profitable"
                ),
            )
        witnesses[k] = witness
    return EquilibriumResult(
        ok=True, certificate=EquilibriumCertificate(witnesses=witnesses), failure=None
    )


def sample_pareto_equilibrium(
    polytope: CefPolytope, weights: Sequence[Fraction]
) -> BidProfile:
    """Minimize a strictly positive weighting of member bids over the polytope.

    Any such optimum is Pareto-minimal, hence an equilibrium; the result is
    re-verified before returning. Weights are given per winner member in
    advertiser order.
    """
    members = polytope.members
    if len(weights) != len(members):
        raise ValueError(
            f"expected {len(members)} weights (one per winning member), got {len(weights)}"
        )
    weights = [Fraction(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be strictly positive")
    values = [polytope.instance.values[member] for member in members]
    # Minimizing w . bid is maximizing w . y over the packing rows and caps.
    rows = [
        (coeffs, sum((v for a, v in zip(coeffs, values) if a), Fraction(0)) - rhs)
        for coeffs, rhs in cef_rows(polytope)
    ]
    rows.extend((_unit(p, len(members)), value) for p, value in enumerate(values))
    _, surplus = solve_min([-w for w in weights], le=rows)
    bids = list(polytope.instance.values)
    for member, value, y in zip(members, values, surplus):
        bids[member] = value - y
    profile = tuple(bids)
    verdict = is_equilibrium(polytope, profile)
    if not verdict.ok:
        raise RuntimeError(f"optimizer left the equilibrium set: {verdict.failure}")
    return profile


def cef_rows(polytope: CefPolytope) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """Each envy-free row as (0/1 coefficients in member order, rhs)."""
    members = polytope.members
    return [
        (tuple(ONE if k in c.bidders else ZERO for k in members), c.rhs)
        for c in polytope.constraints
    ]


def _unit(p: int, dimension: int) -> tuple[Fraction, ...]:
    return tuple(ONE if q == p else ZERO for q in range(dimension))


def vertex_rows(polytope: CefPolytope) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """The rows a vertex can be tight on, as (coefficients, rhs) in member order.

    Envy-free rows with rhs 0 are implied generators (tight only when each
    of their coordinates is zero) and are skipped. Every member contributes
    its lower bound 0 and, when its value is positive, its cap. Duplicates
    are dropped; the order is otherwise fixed.
    """
    members = polytope.members
    rows = [(coeffs, rhs) for coeffs, rhs in cef_rows(polytope) if rhs != 0]
    for p, member in enumerate(members):
        unit = _unit(p, len(members))
        rows.append((unit, Fraction(0)))
        upper = polytope.instance.values[member]
        if upper != 0:
            rows.append((unit, upper))
    return list(dict.fromkeys(rows))


def in_polytope(polytope: CefPolytope, point: Sequence[Fraction]) -> bool:
    """Whether member bids (in member order) are IR and satisfy every envy-free row."""
    members = polytope.members
    values = polytope.instance.values
    if any(x < 0 or x > values[member] for x, member in zip(point, members)):
        return False
    bids = dict(zip(members, point))
    return all(
        sum((bids[i] for i in c.bidders), Fraction(0)) >= c.rhs
        for c in polytope.constraints
    )


def _eliminate(row: list[Fraction], pivot_row: list[Fraction], pivot: int) -> list[Fraction]:
    """row minus the multiple of pivot_row (which is 1 at pivot) that zeroes row[pivot]."""
    factor = row[pivot]
    if factor == 0:
        return row
    return [entry - factor * p if p else entry for entry, p in zip(row, pivot_row)]


def enumerate_vertices(
    polytope: CefPolytope, combination_budget: int = 500_000
) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope, as member-bid vectors in member order, sorted.

    A vertex is a point of the polytope at which d linearly independent rows
    of `vertex_rows` are tight (d = number of members). The d-subsets of
    those rows are walked depth first, in row order, while the chosen rows
    are kept as a reduced row-echelon basis and every row still to choose
    is kept reduced against it. A row that reduces to zero is linearly
    dependent on the chosen prefix, so every subset holding both is singular
    and the row is dropped for the whole branch. At depth d the basis is the
    identity and its right-hand side is the candidate point, which is kept
    when it is IR and satisfies every envy-free row.

    Raises RuntimeError when there are more than `combination_budget`
    d-subsets, before enumerating any.
    """
    rows = vertex_rows(polytope)
    dimension = len(polytope.members)
    total = math.comb(len(rows), dimension)
    if total > combination_budget:
        raise RuntimeError(
            f"vertex enumeration needs {total} constraint combinations, "
            f"budget is {combination_budget}"
        )

    found: set[tuple[Fraction, ...]] = set()

    def extend(basis: list[tuple[int, list[Fraction]]], candidates: list[list[Fraction]]) -> None:
        # basis: (pivot column, row) pairs, each row 1 at its pivot and 0 at
        # the other pivots; candidates: rows reduced against the basis, none zero.
        if len(basis) == dimension:
            point = [Fraction(0)] * dimension
            for pivot, row in basis:
                point[pivot] = row[dimension]
            vertex = tuple(point)
            if in_polytope(polytope, vertex):
                found.add(vertex)
            return
        for k in range(len(candidates) - (dimension - len(basis)) + 1):
            row = candidates[k]
            pivot = next(col for col in range(dimension) if row[col] != 0)
            if row[pivot] != 1:
                scale = row[pivot]
                row = [entry / scale for entry in row]
            grown = [(p, _eliminate(b, row, pivot)) for p, b in basis]
            grown.append((pivot, row))
            rest = []
            for other in candidates[k + 1 :]:
                reduced = _eliminate(other, row, pivot)
                if any(reduced[:dimension]):
                    rest.append(reduced)
            extend(grown, rest)

    extend([], [list(coeffs) + [rhs] for coeffs, rhs in rows if any(coeffs)])
    return sorted(found)


def revenue_range(polytope: CefPolytope) -> tuple[Fraction, Fraction]:
    """Smallest and largest winner revenue over the equilibrium set.

    The minimum comes from the exact LP with unit weights; the maximum from
    polytope vertices filtered down to equilibria (the equilibrium set is a
    union of faces, so a linear maximum over it sits at a polytope vertex).
    Vertices are visited by descending revenue, so the first equilibrium is
    the maximum, and none at or below the minimum needs checking.
    """
    members = polytope.members
    cheapest = sample_pareto_equilibrium(polytope, [Fraction(1)] * len(members))
    low = sum((cheapest[i] for i in members), Fraction(0))
    vertices = enumerate_vertices(polytope)
    for revenue, vertex in sorted(((sum(v, ZERO), v) for v in vertices), reverse=True):
        if revenue <= low:
            break
        bids = list(polytope.instance.values)
        for p, member in enumerate(members):
            bids[member] = vertex[p]
        if is_equilibrium(polytope, tuple(bids)).ok:
            return low, revenue
    return low, low

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
Every LP here is posed in these rows (`surplus_rows`), all ints in the
instance's units, each member capped at its value: the frontier sample,
whose weights are scaled by the lcm of their denominators, the revenue
minimum, and the revenue maximum, the best of one lexicographic LP per
irredundant cover of the members by tight rows (`revenue_range`).
`enumerate_vertices` lists the vertices by one square solve per subset of
rows; it is the reference the maximum is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .mechanisms import efficient_winner
from .model import (
    AuctionInstance,
    BidProfile,
    InternalError,
    Record,
    check_bids,
    exact_sum,
    format_scalar,
)
from .simplex import ONE, ZERO, solve_min, solve_square_system


class CefConstraint(Record):
    """One rival ad's envy-free row: sum of bids over `bidders` >= rhs."""

    __slots__ = ("ad", "bidders", "rhs")
    ad: int
    bidders: tuple[int, ...]
    rhs: Fraction

    def __init__(self, ad: int, bidders: tuple[int, ...], rhs: Fraction) -> None:
        object.__setattr__(self, "ad", ad)
        object.__setattr__(self, "bidders", bidders)
        object.__setattr__(self, "rhs", rhs)


class CefPolytope(Record):
    """CEF + IR + non-negativity constraints over the winner's member bids."""

    __slots__ = ("instance", "winner", "constraints")
    instance: AuctionInstance
    winner: int
    constraints: tuple[CefConstraint, ...]

    def __init__(
        self, instance: AuctionInstance, winner: int, constraints: tuple[CefConstraint, ...]
    ) -> None:
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "winner", winner)
        object.__setattr__(self, "constraints", constraints)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self.instance.members(self.winner)))


class EquilibriumCertificate(Record):
    """Why nobody lowers: each member is at zero (None) or names a tying
    rival ad it does not belong to."""

    __slots__ = ("witnesses",)
    witnesses: Mapping[int, int | None]

    def __init__(self, witnesses: Mapping[int, int | None]) -> None:
        object.__setattr__(self, "witnesses", witnesses)


class EquilibriumResult(Record):
    __slots__ = ("ok", "certificate", "failure")
    ok: bool
    certificate: EquilibriumCertificate | None
    failure: str | None

    def __init__(
        self, ok: bool, certificate: EquilibriumCertificate | None, failure: str | None
    ) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "failure", failure)

    def __bool__(self) -> bool:
        return self.ok


def build_polytope(instance: AuctionInstance) -> CefPolytope:
    """Collect the envy-free rows for the efficient winner.

    Rival ads containing all of the winner's members yield the vacuous row
    0 >= 0 (efficiency forces their outside value to zero) and are dropped.
    """
    winner = efficient_winner(instance)
    winner_members = instance.members(winner)
    units = instance._units
    constraints = []
    for j in range(instance.m):
        if j == winner:
            continue
        rival = instance.members(j)
        bidders = tuple(sorted(winner_members - rival))
        outside = sum([units[i] for i in rival - winner_members])
        if not bidders:
            if outside != 0:
                raise InternalError("an ad covering the winner cannot out-value it")
            continue
        rhs = Fraction(outside, instance._scale)
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
    _, slacks = _row_slacks(polytope, check_bids(polytope.instance, bids))
    return next((c for c, slack in zip(polytope.constraints, slacks) if slack < 0), None)


def _row_slacks(polytope: CefPolytope, profile: BidProfile) -> tuple[int, list[int]]:
    """The lcm of the instance's scale and the members' bid denominators,
    and each envy-free row's bid sum minus its rhs, an int in those units."""
    members = polytope.members
    scale = math.lcm(polytope.instance._scale, *[profile[k].denominator for k in members])
    units = {k: profile[k].numerator * (scale // profile[k].denominator) for k in members}
    return scale, [
        sum([units[i] for i in c.bidders]) - c.rhs.numerator * (scale // c.rhs.denominator)
        for c in polytope.constraints
    ]


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
    scale, slacks = _row_slacks(polytope, profile)
    for violated, slack in zip(polytope.constraints, slacks):
        if slack < 0:
            uncovered = violated.rhs + Fraction(slack, scale)
            return EquilibriumResult(
                ok=False,
                certificate=None,
                failure=(
                    f"not CEF: against {instance.label(violated.ad)} the uncovered members "
                    f"bid {format_scalar(uncovered)}, below the "
                    f"outside value {format_scalar(violated.rhs)}"
                ),
            )
    tight = [c for c, slack in zip(polytope.constraints, slacks) if slack == 0]
    witnesses: dict[int, int | None] = {}
    for k in polytope.members:
        if profile[k] == 0:
            witnesses[k] = None
            continue
        witness = next((c.ad for c in tight if k in c.bidders), None)
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
    caps = [polytope.instance._units[member] for member in members]
    # Minimizing w . bid is maximizing w . y over the packing rows, y <= value,
    # with w scaled to ints: one positive factor leaves every pivot the same.
    scale = math.lcm(*(w.denominator for w in weights))
    costs = [-w.numerator * (scale // w.denominator) for w in weights]
    _, surplus = solve_min(costs, le=surplus_rows(polytope), upper=caps)
    return _verified_bids(polytope, surplus, "optimizer left the equilibrium set")


def surplus_rows(polytope: CefPolytope) -> list[tuple[tuple[int, ...], int]]:
    """Each envy-free row in surplus coordinates y = value - bid, as (0/1
    coefficients in member order, room): coefficients . y <= room, where the
    room is the value of the row's bidders minus the rival's outside value:
    the winner's total minus the rival's, an int in the instance's units."""
    members = polytope.members
    totals = polytope.instance._totals
    return [
        (tuple(int(k in c.bidders) for k in members), totals[polytope.winner] - totals[c.ad])
        for c in polytope.constraints
    ]


def _verified_bids(polytope: CefPolytope, surplus: Sequence[Fraction], failure: str) -> BidProfile:
    """The bids value - y for LP surpluses y in units, checked by `is_equilibrium`."""
    bids = list(polytope.instance.values)
    for member, y in zip(polytope.members, surplus):
        bids[member] -= y / polytope.instance._scale
    verdict = is_equilibrium(polytope, bids)
    if not verdict.ok:
        raise InternalError(f"{failure}: {verdict.failure}")
    return tuple(bids)


def vertex_rows(polytope: CefPolytope) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """The rows a vertex can be tight on, as (coefficients, rhs) in member order.

    Envy-free rows with rhs 0 are implied generators (tight only when each
    of their coordinates is zero) and are skipped. Every member contributes
    its lower bound 0 and, when its value is positive, its cap. Duplicates
    are dropped; the order is otherwise fixed.
    """
    members = polytope.members
    rows = [
        (tuple(ONE if k in c.bidders else ZERO for k in members), c.rhs)
        for c in polytope.constraints
        if c.rhs != 0
    ]
    for p, member in enumerate(members):
        unit = tuple(ONE if q == p else ZERO for q in range(len(members)))
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
    return all(exact_sum(bids[i] for i in c.bidders) >= c.rhs for c in polytope.constraints)


_COMBINATION_BUDGET = 500_000


def enumerate_vertices(polytope: CefPolytope) -> list[tuple[Fraction, ...]]:
    """All vertices of the polytope, as member-bid vectors in member order, sorted.

    A vertex is a point of the polytope at which d linearly independent rows
    of `vertex_rows` are tight (d = number of members). Every d-subset is
    solved as an exact square system and kept when its solution is IR and
    meets every envy-free row.

    Raises RuntimeError when there are more than `_COMBINATION_BUDGET`
    d-subsets, before solving any.
    """
    rows = vertex_rows(polytope)
    dimension = len(polytope.members)
    total = math.comb(len(rows), dimension)
    if total > _COMBINATION_BUDGET:
        raise RuntimeError(
            f"vertex enumeration needs {total} constraint combinations, "
            f"budget is {_COMBINATION_BUDGET}"
        )
    found: set[tuple[Fraction, ...]] = set()
    for chosen in combinations(rows, dimension):
        solution = solve_square_system([a for a, _ in chosen], [rhs for _, rhs in chosen])
        if solution is not None and in_polytope(polytope, solution):
            found.add(tuple(solution))
    return sorted(found)


# Cover LPs `revenue_range` may solve for one maximum.
_COVER_BUDGET = 100_000


def revenue_range(polytope: CefPolytope) -> tuple[Fraction, Fraction]:
    """Smallest and largest winner revenue over the equilibrium set.

    The minimum comes from the exact LP with unit weights.

    The maximum comes from a cover search. For a set R of envy-free rows
    with rhs > 0, let F_R be the points of the polytope where every row of
    R is tight and every member that is no bidder of R bids 0. The
    equilibrium set is the union of the F_R:

    - In F_R each positive member is a bidder of a tight row of R, whose
      rival excludes it, so it is pinned.
    - An equilibrium lies in F_R for R its tight rows with rhs > 0. A tight
      row with rhs 0 pins nobody, because all of its bidders bid 0.

    If R' is a subset of R with the same bidders, F_R lies in F_R'. So only
    irredundant covers need an LP: each row of R has a bidder that no other
    row of R has. A cover with a redundant row stays redundant when rows
    are added, so the depth-first walk over row subsets prunes there.

    Each cover costs one two-stage LP in surplus coordinates, posed with
    rooms, caps and totals in the instance's integer units. Stage 1
    maximizes g . y, where g sums R's rows and the unit vectors of the
    members outside R. It reaches the sum of R's rooms plus the values
    outside R exactly when F_R is non-empty. Stage 2 minimizes the sum of
    y, the revenue given up, over that optimal face, which is F_R. The
    maximizer is re-verified with `is_equilibrium`.

    Raises RuntimeError when the search needs more than `_COVER_BUDGET`
    cover LPs.
    """
    instance = polytope.instance
    members = polytope.members
    cheapest = sample_pareto_equilibrium(polytope, [Fraction(1)] * len(members))
    low = exact_sum(cheapest[i] for i in members)
    caps = [instance._units[k] for k in members]
    total = instance._totals[polytope.winner]
    rows = surplus_rows(polytope)
    positive = [row for row, c in zip(rows, polytope.constraints) if c.rhs > 0]
    masks = [sum(a << p for p, a in enumerate(coeffs)) for coeffs, _ in positive]
    high, argmax, solved = low * instance._scale, None, 0

    def solve(cover: list[int]) -> None:
        nonlocal high, argmax, solved
        if solved == _COVER_BUDGET:
            raise RuntimeError(
                f"the revenue maximum needs more cover LPs than its budget: "
                f"{solved} solved of {_COVER_BUDGET}"
            )
        solved += 1
        counts = [sum(positive[i][0][p] for i in cover) for p in range(len(members))]
        reach = sum([positive[i][1] for i in cover] + [c for c, n in zip(caps, counts) if not n])
        value, surplus = solve_min(
            [-(count or 1) for count in counts], le=rows, upper=caps, then=[1] * len(members)
        )
        revenue = total - exact_sum(surplus)
        if value == -reach and revenue > high:
            high, argmax = revenue, surplus

    def extend(cover: list[int], union: int, own: list[int], start: int) -> None:
        # own[k]: the members that only row cover[k] covers, none empty.
        for i in range(start, len(positive)):
            grown = [o & ~masks[i] for o in own] + [masks[i] & ~union]
            if all(grown):
                solve(cover + [i])
                extend(cover + [i], union | masks[i], grown, i + 1)

    extend([], 0, [], 0)
    if argmax is not None:
        failure = "the cover search and is_equilibrium disagree at the revenue maximum"
        _verified_bids(polytope, argmax, failure)
    return low, high / instance._scale

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

    sum of y over (T minus S)  <=  total(T) - total(S),

and IR becomes 0 <= y <= value. The room on the right is the winner's value
minus the rival's, restricted to where they differ, so it is non-negative
because T is efficient. Truthful bidding (y = 0) is therefore always
feasible, which lets the LP start from the slack basis in a single phase.
Each `CefConstraint` holds its row once in this form, the room an int in
the instance's units, and the checks, the LPs (`surplus_rows`, each member
capped at its value) and the egalitarian lowering all read it there;
`CefPolytope.rhs` gives the bid form for messages. The LPs are the frontier
sample, the revenue minimum, and the revenue maximum, the best of one
lexicographic LP per irredundant cover of the members by tight rows
(`revenue_range`). Each answers in ints over its determinant, and they stay
ints until a bid or a revenue is returned.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .mechanisms import efficient_winner
from .model import (
    AuctionInstance,
    BidProfile,
    BudgetError,
    FrozenMap,
    InstanceError,
    InternalError,
    Record,
    _common_denominator,
    check_bids,
    exact_scalars,
    format_scalar,
)
from .simplex import solve_min

# benchmarks/spans.py wraps these names in its traced run, so they stay bound,
# to None, until it drops those wraps.
enumerate_vertices = solve_square_system = None


class CefConstraint(Record):
    """One rival ad's envy-free row in surplus coordinates: the sum of
    value - bid over `bidders`, the winning members the rival lacks, is at
    most `room`, an int in the instance's units."""

    __slots__ = ("ad", "bidders", "room")
    ad: int
    bidders: frozenset[int]
    room: int


class _Sorted:
    # A cache, not a field: equality, hashing, repr and pickle never see it.
    __slots__ = ("_members",)


class CefPolytope(Record, _Sorted):
    """CEF + IR + non-negativity constraints over the winner's member bids.

    The rows are those `build_polytope` makes: one per rival ad lacking a
    winning member, with those members as bidders and the winner's total
    minus the rival's as room. The checks, the LPs and the lowering all read
    these rows, so a polytope built by hand is checked and solved alike.
    """

    __slots__ = ("instance", "winner", "constraints")
    instance: AuctionInstance
    winner: int
    constraints: tuple[CefConstraint, ...]

    @property
    def members(self) -> tuple[int, ...]:
        """The winner's members, sorted on the first read and kept in `_Sorted`."""
        if not hasattr(self, "_members"):
            _Sorted._members.__set__(self, tuple(sorted(self.instance.members(self.winner))))
        return self._members

    def rhs(self, row: CefConstraint) -> Fraction:
        """The row in bid form, sum of bids over its bidders >= rhs, for messages:
        their value less the room, the rival's value outside the winner if built."""
        units = self.instance._units
        return Fraction(sum([units[i] for i in row.bidders]) - row.room, self.instance._scale)


class EquilibriumResult(Record):
    """A verdict on a bid profile: `witnesses` for an equilibrium, else the
    `failure`, never both. Each member's witness is None when it bids zero,
    else a tying rival ad it does not belong to; they are a read-only copy."""

    __slots__ = ("witnesses", "failure")
    witnesses: Mapping[int, int | None] | None
    failure: str | None

    def __init__(
        self, witnesses: Mapping[int, int | None] | None = None, failure: str | None = None
    ) -> None:
        if (witnesses is None) == (failure is None):
            raise InternalError("exactly one of witnesses and failure must be set")
        self._set_fields(None if witnesses is None else FrozenMap(witnesses), failure)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __bool__(self) -> bool:
        return self.ok


def build_polytope(instance: AuctionInstance) -> CefPolytope:
    """Collect the envy-free rows for the efficient winner.

    Ads containing all of the winner's members (the winner itself among
    them) yield the vacuous row 0 <= room and are dropped; efficiency forces
    their room to zero.
    """
    winner = efficient_winner(instance)
    winner_members = instance.members(winner)
    totals = instance._totals
    total = totals[winner]
    constraints = []
    for j, ad in enumerate(instance.ads):
        bidders = winner_members - ad.members
        if bidders:
            constraints.append(CefConstraint(j, bidders, total - totals[j]))
        elif totals[j] != total:
            raise InternalError("an ad covering the winner cannot out-value it")
    return CefPolytope(instance=instance, winner=winner, constraints=tuple(constraints))


def canonical_bids(polytope: CefPolytope, bids: Sequence[Fraction]) -> BidProfile:
    """Replace non-winner bids with their values; member bids pass through."""
    instance = polytope.instance
    profile = check_bids(instance, bids)
    canonical = list(instance.values)
    for i in instance.members(polytope.winner):
        canonical[i] = profile[i]
    return tuple(canonical)


def is_ir(instance: AuctionInstance, bids: Sequence[Fraction]) -> bool:
    """Every bid within [0, value]."""
    return all(0 <= bid <= v for bid, v in zip(check_bids(instance, bids), instance.values))


def is_cef(polytope: CefPolytope, bids: Sequence[Fraction]) -> bool:
    """Every envy-free row satisfied (non-winner bids are irrelevant here)."""
    _, _, slacks = _row_slacks(polytope, check_bids(polytope.instance, bids))
    return min(slacks, default=0) >= 0


def _row_slacks(polytope: CefPolytope, profile: BidProfile) -> tuple[int, dict, list[int]]:
    """The lcm of the instance's scale and the members' bid denominators; each
    member's surplus value - bid, an int in those units; and each envy-free
    row's room less its bidders' surplus, an int in them."""
    instance = polytope.instance
    members = instance.members(polytope.winner)
    scale = math.lcm(instance._scale, *[profile[k].denominator for k in members])
    grow = scale // instance._scale
    surplus = {
        k: instance._units[k] * grow - profile[k].numerator * (scale // profile[k].denominator)
        for k in members
    }
    get = surplus.__getitem__
    return scale, surplus, [c.room * grow - sum(map(get, c.bidders)) for c in polytope.constraints]


def is_equilibrium(polytope: CefPolytope, bids: Sequence[Fraction]) -> EquilibriumResult:
    """Check the no-unilateral-lowering condition and produce a certificate.

    Fails fast with a reason when the profile is not IR or not CEF;
    otherwise every member with a positive bid must be pinned by a tying
    rival ad that excludes it. All of it runs over the members' bids only, in
    the units of `_row_slacks`: a non-member bids its value in this analysis,
    so it is IR and pins no one, whatever its bid in `bids`.
    """
    instance = polytope.instance
    members = polytope.members
    profile = check_bids(instance, bids)
    scale, surplus, slacks = _row_slacks(polytope, profile)
    caps = {k: instance._units[k] * (scale // instance._scale) for k in members}
    for k in members:
        if not 0 <= surplus[k] <= caps[k]:
            return EquilibriumResult(
                failure=f"not IR: {instance.names[k]!r} bids {format_scalar(profile[k])}, "
                f"outside [0, {format_scalar(instance.values[k])}]"
            )
    for violated, slack in zip(polytope.constraints, slacks):
        if slack < 0:
            rhs = polytope.rhs(violated)
            return EquilibriumResult(
                failure=f"not CEF: against {instance.label(violated.ad)} the uncovered "
                f"members bid {format_scalar(rhs + Fraction(slack, scale))}, below the "
                f"outside value {format_scalar(rhs)}"
            )
    # Each positive member's witness: the first tight row it is a bidder of.
    unpinned = {k for k in members if surplus[k] != caps[k]}
    witnesses = dict.fromkeys(members)
    for c, slack in zip(polytope.constraints, slacks):
        if not unpinned:
            break
        if slack == 0:
            pinned = unpinned & c.bidders
            for k in pinned:
                witnesses[k] = c.ad
            unpinned -= pinned
    if unpinned:
        k = min(unpinned)
        return EquilibriumResult(
            failure=f"{instance.names[k]!r} bids {format_scalar(profile[k])} but no rival "
            f"ad excluding it ties the winner: lowering would be profitable"
        )
    return EquilibriumResult(witnesses=witnesses)


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
        raise InstanceError(
            f"expected {len(members)} weights (one per winning member), got {len(weights)}"
        )
    weights = exact_scalars(weights, "weights[{}]")
    for k, w in enumerate(weights):
        if w <= 0:
            raise InstanceError(f"weights[{k}]: must be strictly positive")
    caps = [polytope.instance._units[member] for member in members]
    # Minimizing w . bid is maximizing w . y over the packing rows, y <= value,
    # with w scaled to ints by their lcm, held to the values' scale limit: one
    # positive factor leaves every pivot the same.
    scale = _common_denominator(enumerate(w.denominator for w in weights), "weights[{}]", "weights")
    costs = [-w.numerator * (scale // w.denominator) for w in weights]
    det, _, surplus = solve_min(costs, le=surplus_rows(polytope), upper=caps)
    return _verified_bids(polytope, det, surplus, "optimizer left the equilibrium set")


def surplus_rows(polytope: CefPolytope) -> list[tuple[tuple[int, ...], int]]:
    """Each envy-free row as (0/1 coefficients in member order, room): the
    row's bidders and room, read off the polytope's own rows."""
    members = polytope.members
    position = {k: p for p, k in enumerate(members)}
    rows = []
    for c in polytope.constraints:
        coefficients = [0] * len(members)
        for k in c.bidders:
            coefficients[position[k]] = 1
        rows.append((tuple(coefficients), c.room))
    return rows


def _verified_bids(polytope: CefPolytope, det: int, surplus: list[int], failure: str) -> BidProfile:
    """Bids value - y / det, each y / det an LP surplus in units, checked by `is_equilibrium`."""
    instance = polytope.instance
    bids = list(instance.values)
    for member, y in zip(polytope.members, surplus):
        if y:
            bids[member] = Fraction(instance._units[member] * det - y, det * instance._scale)
    verdict = is_equilibrium(polytope, bids)
    if not verdict.ok:
        raise InternalError(f"{failure}: {verdict.failure}")
    return tuple(bids)


# Cover LPs `revenue_range` may solve for one maximum.
_COVER_BUDGET = 100_000


def revenue_range(polytope: CefPolytope) -> tuple[Fraction, Fraction]:
    """Smallest and largest winner revenue over the equilibrium set.

    The minimum comes from the exact LP with unit weights over the rows the
    covers read. Each LP answers in ints over its determinant det, so its
    revenue is (total * det - sum of y) / det and two are compared in ints.

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
    minimizer and the maximizer are re-verified with `is_equilibrium`.

    Raises BudgetError, also a RuntimeError, when the search needs more
    than `_COVER_BUDGET` cover LPs.
    """
    instance = polytope.instance
    members = polytope.members
    units = instance._units
    caps = [units[k] for k in members]
    total = sum(caps)
    rows = surplus_rows(polytope)
    det, _, surplus = solve_min([-1] * len(members), le=rows, upper=caps)
    _verified_bids(polytope, det, surplus, "optimizer left the equilibrium set")
    low, low_det = total * det - sum(surplus), det
    # The rows with rhs > 0, their bidders' value past their room.
    positive = [c for c in polytope.constraints if c.room < sum([units[k] for k in c.bidders])]
    position = {k: p for p, k in enumerate(members)}
    masks = [sum([1 << position[k] for k in c.bidders]) for c in positive]
    high, high_det, argmax, solved = low, low_det, None, 0

    def solve(cover: list[int]) -> None:
        nonlocal high, high_det, argmax, solved
        if solved == _COVER_BUDGET:
            raise BudgetError(
                f"the revenue maximum needs more cover LPs than its budget: "
                f"{solved} solved of {_COVER_BUDGET}"
            )
        solved += 1
        counts = [sum([masks[i] >> p & 1 for i in cover]) for p in range(len(members))]
        reach = sum([positive[i].room for i in cover] + [c for c, n in zip(caps, counts) if not n])
        det, value, surplus = solve_min(
            [-(count or 1) for count in counts], le=rows, upper=caps, then=[1] * len(members)
        )
        revenue = total * det - sum(surplus)
        if value == -reach * det and revenue * high_det > high * det:
            high, high_det, argmax = revenue, det, surplus

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
        _verified_bids(polytope, high_det, argmax, failure)
    return Fraction(low, low_det * instance._scale), Fraction(high, high_det * instance._scale)

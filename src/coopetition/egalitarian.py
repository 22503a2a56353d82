"""Egalitarian equilibrium selection by uniform bid lowering.

Start everyone at truthful bids and lower all not-yet-fixed members of the
winning ad at the same unit rate. A member freezes when its bid hits zero, or
when some rival ad's total catches up with the winner's total, at which point
every member the rival does not contain freezes (lowering any of them further
would hand the rival the slot). Events that coincide are processed in the
same round, so the whole run takes at most one round per member.

The rounds are progressive filling (Bertsekas & Gallager, *Data Networks*,
2nd ed., §6.5.2) over the envy-free rows of `build_polytope`, which are
packing rows in surplus coordinates: the members a rival lacks share its
room. Each row keeps its slack, starting at its room, and the count of its
bidders still unfrozen. A round lowers each slack by the decrement times
that count, a row goes tight when its count is positive and its slack
reaches zero, and the members a round freezes lower each moving row's count
by as many of them as it holds. So ad totals are never re-summed.

The resulting profile maximizes the sorted surplus vector lexicographically
over the equilibrium set: the least-happy member is as happy as possible,
then the next, and so on, as `oracle.verify_egalitarian` checks. The lowering
runs in integer units and builds a member's bid Fraction once, as it freezes.
"""

from __future__ import annotations

import math
from fractions import Fraction

# benchmarks/spans.py counts or wraps these three names here, so they stay
# bound, the last to None, although the lowering calls none of them.
from .mechanisms import efficient_winner  # noqa: F401
from .model import (
    AuctionInstance,
    BidProfile,
    InternalError,
    Outcome,
    Record,
    display_scalar,
    ratio_text,
    settle,
)
from .polytope import build_polytope, is_equilibrium  # noqa: F401

enumerate_equilibria_grid = None


class LoweringRound(Record):
    """One round: its decrement, the members whose bids reached 0 (sorted), the
    rival ads that went tight (in ad order) and the members it froze (sorted).
    It holds no bids: each member not frozen before it moved by the decrement."""

    __slots__ = ("decrement", "zeros", "tight", "fixed")
    decrement: Fraction
    zeros: tuple[int, ...]
    tight: tuple[int, ...]
    fixed: tuple[int, ...]


class LoweringTrace(Record):
    __slots__ = ("winner", "rounds")
    winner: int
    rounds: tuple[LoweringRound, ...]

    def describe(self, instance: AuctionInstance) -> list[str]:
        # The decrements so far are lowered/below; a member still moving bids
        # units/scale less that, and a frozen member keeps its last text.
        lines = [f"winner: {instance.label(self.winner)}"]
        names, units, scale = instance.names, instance._units, instance._scale
        members = sorted(instance.members(self.winner))
        moving, texts = set(members), [""] * instance.n
        lowered, below = 0, 1
        for number, r in enumerate(self.rounds, start=1):
            events = [f"{names[k]} reached 0" for k in r.zeros]
            events += [f"{instance.label(j)} went tight" for j in r.tight]
            fixed = ", ".join(names[i] for i in r.fixed)
            top, bottom = r.decrement.as_integer_ratio()
            lowered, below = lowered * bottom + top * below, below * bottom
            common = math.gcd(lowered, below)
            lowered, below = lowered // common, below // common
            taken, whole = lowered * scale, scale * below
            for i in moving:
                bid = units[i] * below - taken
                common = math.gcd(bid, whole)
                texts[i] = f"{names[i]}={ratio_text(bid // common, whole // common, True)}"
            moving.difference_update(r.fixed)
            member_bids = ", ".join([texts[i] for i in members])
            lines.append(
                f"round {number}: lowered by {display_scalar(r.decrement)}; "
                f"{'; '.join(events)}; fixed {fixed}; bids {member_bids}"
            )
        return lines


def egalitarian_solve(
    instance: AuctionInstance,
) -> tuple[BidProfile, Outcome, LoweringTrace]:
    """Run the lowering rounds; returns (bids, outcome, trace).

    Non-winners stay at their values. The winner never changes: every row's
    slack stays non-negative. The invariants raise InternalError, also under
    `python -O`: a negative slack or decrement, a round that freezes no one,
    or more rounds than members.

    Member bids and slacks are ints over one running denominator, which
    starts at the instance's scale and grows by moving/gcd(slack, moving)
    only when a step slack/moving does not divide. Fractions are built for
    the decrements and, once per member as it freezes, for the bids.
    """
    polytope = build_polytope(instance)
    winner, members = polytope.winner, polytope.members
    denominator = instance._scale
    scaled = {k: instance._units[k] for k in members}
    bids = list(instance.values)
    unfixed = set(members)
    # Per row, as plain lists: its bidders, slack and unfrozen-bidder count.
    rows = polytope.constraints
    lacks = [row.bidders for row in rows]
    slack = [row.room for row in rows]
    moving = [len(bidders) for bidders in lacks]
    # Only a row with an unfrozen bidder moves; `active` keeps ad order.
    active = list(range(len(rows)))
    rounds: list[LoweringRound] = []

    while unfixed:
        # The step, num/den over the running denominator: the lowest unfixed
        # bid, or the first row slack to close at `moving` per unit.
        num, den = min(map(scaled.__getitem__, unfixed)), 1
        for r in active:
            if slack[r] * den < num * moving[r]:
                num, den = slack[r], moving[r]
        if num < 0:
            raise InternalError("a rival ad overtook the winner between rounds")
        grow = den // math.gcd(num, den)
        if grow > 1:
            denominator *= grow
            for k in unfixed:
                scaled[k] *= grow
            for r in active:
                slack[r] *= grow
        step = num * grow // den

        zeros = []
        for k in unfixed:
            scaled[k] -= step
            if not scaled[k]:
                zeros.append(k)
        zeros.sort()
        tight = []
        frozen = set(zeros)
        for r in active:
            slack[r] -= step * moving[r]
            if slack[r] < 0:
                raise InternalError("lowering must preserve the winner")
            if slack[r] == 0:
                tight.append(rows[r].ad)
                frozen.update(unfixed & lacks[r])
        if not frozen:
            raise InternalError("a lowering round must fix at least one member")
        unfixed -= frozen
        for k in frozen:
            bids[k] = Fraction(scaled[k], denominator)
        for r in active:
            moving[r] -= len(frozen & lacks[r])
        active = [r for r in active if moving[r]]
        rounds.append(
            LoweringRound(
                decrement=Fraction(step, denominator),
                zeros=tuple(zeros),
                tight=tuple(tight),
                fixed=tuple(sorted(frozen)),
            )
        )

    if len(rounds) > len(members):
        raise InternalError("one round per member at most")
    profile = tuple(bids)
    outcome = settle(instance, winner, profile)
    trace = LoweringTrace(winner=winner, rounds=tuple(rounds))
    return profile, outcome, trace


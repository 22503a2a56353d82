"""Egalitarian equilibrium selection by uniform bid lowering.

Start everyone at truthful bids and lower all not-yet-fixed members of the
winning ad at the same unit rate. A member freezes when its bid hits zero, or
when some rival ad's total catches up with the winner's total, at which point
every member the rival does not contain freezes (lowering any of them further
would hand the rival the slot). Events that coincide are processed in the
same round, so the whole run takes at most one round per member.

The rounds are progressive filling (Bertsekas & Gallager, *Data Networks*,
2nd ed., §6.5.2) over running totals. Each rival keeps its slack, the
winner's total minus its own, and the count of unfrozen winner members it
lacks. A round lowers each slack by the decrement times that count, a rival
goes tight when its count is positive and its slack reaches zero, and a
member that freezes decrements the count of every rival lacking it. So ad
totals are summed once, at the start.

The resulting profile maximizes the sorted surplus vector lexicographically
over the equilibrium set: the least-happy member is as happy as possible,
then the next, and so on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .mechanisms import efficient_winner
from .model import (
    AuctionInstance,
    BidProfile,
    GridSpec,
    InternalError,
    Outcome,
    Record,
    display_scalar,
    settle,
    total_value,
)
from .oracle import enumerate_equilibria_grid
from .polytope import build_polytope, is_equilibrium


class RoundEvent(Record):
    """What triggered a freeze: a bid reaching zero or a rival ad going tight."""

    __slots__ = ("kind", "bidder", "ad")
    kind: str  # "zero" or "tight"
    bidder: int | None
    ad: int | None

    def __init__(self, kind: str, bidder: int | None = None, ad: int | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "bidder", bidder)
        object.__setattr__(self, "ad", ad)


class LoweringRound(Record):
    __slots__ = ("decrement", "events", "fixed", "bids")
    decrement: Fraction
    events: tuple[RoundEvent, ...]
    fixed: tuple[int, ...]
    bids: BidProfile  # full profile after the round

    def __init__(
        self,
        decrement: Fraction,
        events: tuple[RoundEvent, ...],
        fixed: tuple[int, ...],
        bids: BidProfile,
    ) -> None:
        object.__setattr__(self, "decrement", decrement)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "bids", bids)


class LoweringTrace(Record):
    __slots__ = ("winner", "rounds")
    winner: int
    rounds: tuple[LoweringRound, ...]

    def __init__(self, winner: int, rounds: tuple[LoweringRound, ...]) -> None:
        object.__setattr__(self, "winner", winner)
        object.__setattr__(self, "rounds", rounds)

    def describe(self, instance: AuctionInstance) -> list[str]:
        lines = [f"winner: {instance.label(self.winner)}"]
        for number, r in enumerate(self.rounds, start=1):
            events = []
            for event in r.events:
                if event.kind == "zero":
                    events.append(f"{instance.names[event.bidder]} reached 0")
                else:
                    events.append(f"{instance.label(event.ad)} went tight")
            fixed = ", ".join(instance.names[i] for i in r.fixed)
            member_bids = ", ".join(
                f"{instance.names[i]}={display_scalar(r.bids[i])}"
                for i in sorted(instance.members(self.winner))
            )
            lines.append(
                f"round {number}: lowered by {display_scalar(r.decrement)}; "
                f"{'; '.join(events)}; fixed {fixed}; bids {member_bids}"
            )
        return lines


def egalitarian_solve(
    instance: AuctionInstance,
) -> tuple[BidProfile, Outcome, LoweringTrace]:
    """Run the lowering rounds; returns (bids, outcome, trace).

    Non-winners stay at their values. The winner never changes: every rival's
    slack stays non-negative. The invariants raise InternalError, also under
    `python -O`: a negative slack or decrement, a round that freezes no one,
    or more rounds than members.
    """
    winner = efficient_winner(instance)
    winner_members = instance.members(winner)
    members = sorted(winner_members)
    bids = list(instance.values)
    unfixed = set(members)
    rivals = [j for j in range(instance.m) if j != winner]
    winner_total = total_value(instance, winner)
    slack = {j: winner_total - total_value(instance, j) for j in rivals}
    moving = {j: len(winner_members - instance.members(j)) for j in rivals}
    lacking = {k: [j for j in rivals if k not in instance.members(j)] for k in members}
    rounds: list[LoweringRound] = []

    while unfixed:
        step = min(bids[k] for k in unfixed)
        for j in rivals:
            if moving[j]:
                step = min(step, slack[j] / moving[j])
        if step < 0:
            raise InternalError("a rival ad overtook the winner between rounds")

        for k in unfixed:
            bids[k] -= step
        for j in rivals:
            if moving[j]:
                slack[j] -= step * moving[j]

        events: list[RoundEvent] = []
        frozen: set[int] = set()
        for k in sorted(unfixed):
            if bids[k] == 0:
                events.append(RoundEvent(kind="zero", bidder=k))
                frozen.add(k)
        for j in rivals:
            if moving[j] and slack[j] == 0:
                events.append(RoundEvent(kind="tight", ad=j))
                frozen.update(k for k in unfixed if k not in instance.members(j))
        if not frozen:
            raise InternalError("a lowering round must fix at least one member")
        unfixed -= frozen
        for k in frozen:
            for j in lacking[k]:
                moving[j] -= 1
        rounds.append(
            LoweringRound(
                decrement=step,
                events=tuple(events),
                fixed=tuple(sorted(frozen)),
                bids=tuple(bids),
            )
        )
        if any(s < 0 for s in slack.values()):
            raise InternalError("lowering must preserve the winner")

    if len(rounds) > len(members):
        raise InternalError("one round per member at most")
    profile = tuple(bids)
    outcome = settle(instance, winner, profile)
    trace = LoweringTrace(winner=winner, rounds=tuple(rounds))
    return profile, outcome, trace


def verify_egalitarian(
    instance: AuctionInstance, bids: Sequence[Fraction], grid: GridSpec
) -> bool:
    """Brute-force check that no grid equilibrium is lexicographically happier.

    Surplus vectors are sorted ascending and compared with tolerance
    grid.epsilon: entries within epsilon count as equal. Returns False when
    the bids are not an equilibrium at all.
    """
    polytope = build_polytope(instance)
    if not is_equilibrium(polytope, bids).ok:
        return False
    candidate = settle(instance, polytope.winner, tuple(bids)).surpluses
    candidate_sorted = sorted(candidate)
    for rival_bids in enumerate_equilibria_grid(instance, grid):
        rival = sorted(settle(instance, polytope.winner, rival_bids).surpluses)
        if _lex_greater(rival, candidate_sorted, grid.epsilon):
            return False
    return True


def _lex_greater(a: Sequence[Fraction], b: Sequence[Fraction], eps: Fraction) -> bool:
    for x, y in zip(a, b):
        if x > y + eps:
            return True
        if x < y - eps:
            return False
    return False

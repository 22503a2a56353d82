"""Shared fixtures: canonical instances, seeded instance sources, and
test-only reference implementations."""

from __future__ import annotations

import random
import string
from fractions import Fraction

from coopetition import (
    AuctionInstance,
    BidProfile,
    LoweringRound,
    LoweringTrace,
    Outcome,
    RoundEvent,
    efficient_winner,
    settle,
    total_bid,
)

F = Fraction


def make_instance(values: dict[str, object], ads: list[list[str]]) -> AuctionInstance:
    return AuctionInstance.build(
        {name: F(value) for name, value in values.items()}, ads
    )


# {(A:2,B:2),(E:3)}: two cooperating bidders against a stronger single bidder.
def ab_e() -> AuctionInstance:
    return make_instance({"A": 2, "B": 2, "E": 3}, [["A", "B"], ["E"]])


# {(A:1,B:1,C:1,D:1),(E:2.9)}: four riders whose VCG payments all collapse to 0.
def four_ones() -> AuctionInstance:
    return make_instance(
        {"A": 1, "B": 1, "C": 1, "D": 1, "E": "2.9"},
        [["A", "B", "C", "D"], ["E"]],
    )


# {(A:1,B:1,C:1),(A:1,D:1),(B:1,E:1)}: overlapping rivals, a 1-parameter
# equilibrium family, revenue range (1, 2).
def triangle() -> AuctionInstance:
    return make_instance(
        {"A": 1, "B": 1, "C": 1, "D": 1, "E": 1},
        [["A", "B", "C"], ["A", "D"], ["B", "E"]],
    )


# {(A:100,B:100),(C:99)}: the (x, 99-x) equilibrium segment.
def hundreds() -> AuctionInstance:
    return make_instance({"A": 100, "B": 100, "C": 99}, [["A", "B"], ["C"]])


def single_ad() -> AuctionInstance:
    return make_instance({"A": 5}, [["A"]])


_DENOMINATORS = (1, 1, 2, 3, 4, 5, 8, 10)


def random_value(rng: random.Random, high: int = 40) -> Fraction:
    return Fraction(rng.randint(0, high), rng.choice(_DENOMINATORS))


def random_instance(
    rng: random.Random,
    max_n: int = 8,
    max_m: int = 6,
    value_pool: list[Fraction] | None = None,
) -> AuctionInstance:
    """A valid instance: distinct non-empty ads that jointly cover everyone."""
    for _ in range(1000):
        n = rng.randint(1, max_n)
        names = list(string.ascii_uppercase[:n])
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
        return AuctionInstance.build(values, [sorted(ad) for ad in ads])
    raise AssertionError("random instance generation kept colliding")


def rival_family(
    rng: random.Random, members: int, rivals_per_member: int = 1
) -> AuctionInstance:
    """A winner of `members` advertisers (ad 0) against `rivals_per_member`
    rival ads per member.

    Each rival shares part of the winner and adds an outsider worth less than
    the part it lacks, so the winner stays strictly efficient.
    """
    winner = [f"W{i}" for i in range(members)]
    values = {name: F(rng.randint(1, 40), rng.choice((1, 2, 3, 4))) for name in winner}
    ads = [winner]
    for r in range(rivals_per_member * members):
        shared = rng.sample(winner, rng.randint(0, members - 1))
        lacking = sum((values[name] for name in winner if name not in shared), F(0))
        values[f"R{r}"] = lacking * F(rng.randint(1, 19), 20)
        ads.append(shared + [f"R{r}"])
    return AuctionInstance.build(values, ads)


def egalitarian_by_rounds(
    instance: AuctionInstance,
) -> tuple[BidProfile, Outcome, LoweringTrace]:
    """The uniform lowering as a round loop that re-sums every ad total each
    round: the reference for `egalitarian_solve`, which keeps running slacks
    instead and must return the same bids, outcome and trace."""
    winner = efficient_winner(instance)
    members = sorted(instance.members(winner))
    bids = list(instance.values)
    unfixed = set(members)
    rivals = [j for j in range(instance.m) if j != winner]
    rounds: list[LoweringRound] = []

    while unfixed:
        winner_total = total_bid(instance, bids, winner)
        step = min(bids[k] for k in unfixed)
        for j in rivals:
            moving = [k for k in unfixed if k not in instance.members(j)]
            if not moving:
                continue
            slack = winner_total - total_bid(instance, bids, j)
            step = min(step, slack / len(moving))
        if step < 0:
            raise RuntimeError("a rival ad overtook the winner between rounds")

        for k in unfixed:
            bids[k] -= step

        events: list[RoundEvent] = []
        frozen: set[int] = set()
        for k in sorted(unfixed):
            if bids[k] == 0:
                events.append(RoundEvent(kind="zero", bidder=k))
                frozen.add(k)
        winner_total = total_bid(instance, bids, winner)
        for j in rivals:
            outside = [k for k in unfixed if k not in instance.members(j)]
            if outside and total_bid(instance, bids, j) == winner_total:
                events.append(RoundEvent(kind="tight", ad=j))
                frozen.update(outside)
        if not frozen:
            raise RuntimeError("a lowering round must fix at least one member")
        unfixed -= frozen
        rounds.append(
            LoweringRound(
                decrement=step,
                events=tuple(events),
                fixed=tuple(sorted(frozen)),
                bids=tuple(bids),
            )
        )
        if any(total_bid(instance, bids, j) > winner_total for j in rivals):
            raise RuntimeError("lowering must preserve the winner")

    if len(rounds) > len(members):
        raise RuntimeError("one round per member at most")
    profile = tuple(bids)
    outcome = settle(instance, winner, profile)
    trace = LoweringTrace(winner=winner, rounds=tuple(rounds))
    return profile, outcome, trace


def bottleneck_failure(instance: AuctionInstance, bids: BidProfile) -> str | None:
    """Exact lexmax-surplus certificate (max-min fairness bottleneck), written
    from the definitions, independently of the package.

    The bids must be an equilibrium of the efficient ad (lowest id on ties):
    members within [0, value], every envy-free row met, every positive member
    on a tight row that excludes it, everyone else at their value. Then every
    member bids zero or lies on a tight row on which no member has a larger
    surplus value - bid. Returns None when all of that holds, else a reason.
    """
    totals = [sum((instance.values[i] for i in ad.members), F(0)) for ad in instance.ads]
    winner = instance.ads[totals.index(max(totals))].members
    values = instance.values
    for i in range(instance.n):
        if i in winner and not 0 <= bids[i] <= values[i]:
            return f"not IR at {instance.names[i]}"
        if i not in winner and bids[i] != values[i]:
            return f"non-member {instance.names[i]} moved"
    rows = []
    for ad in instance.ads:
        bidders = [i for i in sorted(winner) if i not in ad.members]
        if bidders:
            rhs = sum((values[i] for i in ad.members if i not in winner), F(0))
            rows.append((bidders, sum((bids[i] for i in bidders), F(0)) - rhs))
    if any(slack < 0 for _, slack in rows):
        return "not CEF"
    tight = [bidders for bidders, slack in rows if slack == 0]
    pinned = {i for bidders in tight for i in bidders}
    bottlenecked = set()
    for bidders in tight:
        top = max(values[i] - bids[i] for i in bidders)
        bottlenecked.update(i for i in bidders if values[i] - bids[i] == top)
    for i in sorted(winner):
        if bids[i] > 0 and i not in pinned:
            return f"{instance.names[i]} is positive and unpinned"
    for i in sorted(winner):
        if bids[i] > 0 and i not in bottlenecked:
            return f"{instance.names[i]} has no bottleneck row"
    return None

"""Shared fixtures: canonical instances, seeded instance sources, and
test-only reference implementations."""

from __future__ import annotations

import itertools
import json
import math
import random
import string
from fractions import Fraction
from operator import index
from typing import Sequence

from coopetition import (
    AuctionInstance,
    BidProfile,
    CefPolytope,
    ContractProfile,
    ContractTerm,
    GridBudgetError,
    GridSpec,
    InstanceError,
    LoweringRound,
    LoweringTrace,
    Outcome,
    OwnedAuction,
    PositionOutcome,
    efficient_winner,
    enumerate_equilibria_grid,
    settle,
    total_bid,
)
from coopetition.model import _MAX_DIGITS, exact_sum, format_scalar

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


def criterion_7_instances():
    """The 200 instances of acceptance criterion 7 (same seed and family)."""
    rng = random.Random(702024)
    quarter_values = [F(k, 4) for k in range(9)]
    for _ in range(200):
        yield random_instance(rng, max_n=5, max_m=4, value_pool=quarter_values)


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


def prime_family(
    rng: random.Random, members: int, rivals: int, base: int = 0, ties: bool = False
) -> AuctionInstance:
    """A winner of `members` advertisers against `rivals` rival ads, each
    rival sharing part of the winner plus one outsider.

    Winner values are `base` plus a fraction over a prime denominator, and an
    outsider is worth its rival's lacking part times r/29, so a lowering step
    slack/moving seldom divides and the running denominator must grow. A
    `base` of 2**70 puts every integer past 64 bits. With `ties`, about a
    third of the rivals tie the winner exactly and the ads are shuffled, so
    ties break by ad id.
    """
    winner = [f"W{i}" for i in range(members)]
    primes = (7, 11, 13, 17, 19, 23)
    values = {name: base + F(rng.randint(1, 60), rng.choice(primes)) for name in winner}
    ads = [winner]
    for r in range(rivals):
        shared = rng.sample(winner, rng.randint(0, members - 1))
        lacking = sum((values[name] for name in winner if name not in shared), F(0))
        share = F(1) if ties and rng.random() < 0.3 else F(rng.randint(1, 28), 29)
        values[f"R{r}"] = lacking * share
        ads.append(shared + [f"R{r}"])
    if ties:
        rng.shuffle(ads)
    return AuctionInstance.build(values, ads)


def egalitarian_by_rounds(
    instance: AuctionInstance,
) -> tuple[BidProfile, Outcome, LoweringTrace, list[BidProfile]]:
    """The uniform lowering as a round loop that re-sums every ad total each
    round: the reference for `egalitarian_solve`, which keeps running slacks
    instead and must return the same bids, outcome and trace. The fourth
    item is the full Fraction profile after each round, which the trace
    itself does not hold (see `round_profiles`)."""
    winner = efficient_winner(instance)
    members = sorted(instance.members(winner))
    bids = list(instance.values)
    unfixed = set(members)
    rivals = [j for j in range(instance.m) if j != winner]
    rounds: list[LoweringRound] = []
    profiles: list[BidProfile] = []

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

        zeros: list[int] = []
        tight: list[int] = []
        frozen: set[int] = set()
        for k in sorted(unfixed):
            if bids[k] == 0:
                zeros.append(k)
                frozen.add(k)
        winner_total = total_bid(instance, bids, winner)
        for j in rivals:
            outside = [k for k in unfixed if k not in instance.members(j)]
            if outside and total_bid(instance, bids, j) == winner_total:
                tight.append(j)
                frozen.update(outside)
        if not frozen:
            raise RuntimeError("a lowering round must fix at least one member")
        unfixed -= frozen
        rounds.append(
            LoweringRound(
                decrement=step,
                zeros=tuple(zeros),
                tight=tuple(tight),
                fixed=tuple(sorted(frozen)),
            )
        )
        profiles.append(tuple(bids))
        if any(total_bid(instance, bids, j) > winner_total for j in rivals):
            raise RuntimeError("lowering must preserve the winner")

    if len(rounds) > len(members):
        raise RuntimeError("one round per member at most")
    profile = tuple(bids)
    outcome = settle(instance, winner, profile)
    trace = LoweringTrace(winner=winner, rounds=tuple(rounds))
    return profile, outcome, trace, profiles


def round_profiles(instance: AuctionInstance, trace: LoweringTrace) -> list[BidProfile]:
    """The full bid profile after each round of a lowering trace, replayed
    from its rounds: every winning member still unfrozen when a round starts
    lowers its bid by the round's decrement, then the round's `fixed`
    members freeze. Everyone else keeps bidding their value."""
    bids = list(instance.values)
    moving = set(instance.members(trace.winner))
    profiles = []
    for r in trace.rounds:
        for k in moving:
            bids[k] -= r.decrement
        moving -= set(r.fixed)
        profiles.append(tuple(bids))
    return profiles


def rows_by_sums(polytope: CefPolytope) -> list[tuple[frozenset[int], Fraction]]:
    """Each envy-free row of the polytope in bid form, as (bidders, rhs):
    sum of bids over bidders >= rhs. Both are rebuilt from the row's rival
    ad, not read off the row: the winning members it lacks and its Fraction
    values outside the winner. The reference for every test that checks
    the rows' own bidders and room."""
    instance = polytope.instance
    winner = instance.members(polytope.winner)
    rows = []
    for c in polytope.constraints:
        rival = instance.ads[c.ad].members
        rows.append((winner - rival, exact_sum(instance.values[i] for i in rival - winner)))
    return rows


def surplus_rows_by_sums(polytope: CefPolytope) -> list[tuple[tuple[int, ...], Fraction]]:
    """Each envy-free row in surplus coordinates y = value - bid, as (0/1
    coefficients in member order, room): coefficients . y <= room, where the
    room is the value of the row's bidders minus the rival's outside value.

    The rows of `rows_by_sums` as Fractions, each room re-summed from the
    member values: the reference for `polytope.surplus_rows`, whose rooms
    are the same numbers in the instance's integer units."""
    members = polytope.members
    values = polytope.instance.values
    return [
        (tuple(int(k in bidders) for k in members), exact_sum(values[i] for i in bidders) - rhs)
        for bidders, rhs in rows_by_sums(polytope)
    ]


class UnboundedError(Exception):
    """The objective is unbounded below on the feasible region."""


def plain_eliminate(
    row: list[int], pivot_row: list[int], pivot: int, det: int, previous: int
) -> list[int]:
    """The fraction-free step of `simplex._eliminate` in its plain form,
    (det * entry - row[pivot] * p) // previous on every entry, with no
    shortcut: the references' own step, so a wrong shortcut in the kernel is
    not shared by what checks it."""
    factor = row[pivot]
    return [(det * entry - factor * p) // previous for entry, p in zip(row, pivot_row)]


def solve_min_by_fractions(
    costs: Sequence[Fraction],
    le: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
    upper: Sequence[Fraction | None] | None = None,
    then: Sequence[Fraction] | None = None,
) -> tuple[Fraction, list[Fraction]]:
    """Minimize costs . x subject to the rows a.x <= rhs and 0 <= x <= upper.

    The general solver that `simplex.solve_min` narrowed: it rescales
    rational rows, rhs, caps and costs to ints and admits uncapped
    variables. The reference for `simplex.solve_min`, which must return the
    same value and x on the int LPs with caps that both accept.

    le is a sequence of (coefficients, rhs) with every rhs >= 0; upper holds
    one bound >= 0 or None (no bound) per variable. Every number may be an
    int or a Fraction and is read as given, not copied. When `then` is given,
    then . x is minimized next over the optimal face of costs . x, as in the
    lexicographic simplex (Isermann 1982): after the first optimum only a
    column whose reduced cost in costs is zero may enter, so costs . x keeps
    its optimal value. Returns (optimal value of costs . x, optimal x).
    Raises ValueError on a negative rhs or bound and UnboundedError when an
    objective has no minimum.
    """
    n, m = len(costs), len(le)
    bounds = [None] * n if upper is None else upper
    if len(bounds) != n:
        raise ValueError(f"expected {n} upper bounds, got {len(bounds)}")
    objectives = [costs] if then is None else [costs, then]
    if len(objectives[-1]) != n:
        raise ValueError(f"expected {n} costs in then, got {len(objectives[-1])}")
    for r, (_, rhs) in enumerate(le):
        if rhs < 0:
            raise ValueError(f"le[{r}]: negative right-hand side {rhs}; x = 0 must be feasible")
    for j, u in enumerate(bounds):
        if u is not None and u < 0:
            raise ValueError(f"upper[{j}]: negative bound {u}; x = 0 must be feasible")
    # Integer tableau: variables scaled by `scale` (bounds and rhs become
    # integers), each row by the lcm of its coefficient denominators, each
    # objective by the lcm of its cost denominators. Row r reads basic[r] =
    # (rhs - sum of entry * column variable) / det; rows m.. are the
    # objectives in stage order, and the last column is the rhs.
    scale = math.lcm(*(r.denominator for _, r in le), *(u.denominator for u in bounds if u))
    tableau = []
    for coeffs, rhs in le:
        multiplier = math.lcm(*(a.denominator for a in coeffs))
        tableau.append([a.numerator * multiplier // a.denominator for a in coeffs])
        tableau[-1].append((rhs * scale * multiplier).numerator)
    cost_scales = []
    for objective in objectives:
        cost_scales.append(math.lcm(*(c.denominator for c in objective)))
        tableau.append([-c.numerator * cost_scales[-1] // c.denominator for c in objective])
        tableau[-1].append(0)
    # Labels 0..n-1 are the variables, n.. the slacks; caps are scaled bounds.
    caps = [None if u is None else (u * scale).numerator for u in bounds] + [None] * m
    complemented = [False] * (n + m)
    basic, nonbasic = list(range(n, n + m)), list(range(n))
    det, stage = 1, m
    while True:
        # Bland: the lowest label that lowers the objective; a cap of 0 fixes
        # it, and in the second stage so does a nonzero first reduced cost.
        objective = tableau[stage]
        entering = [
            j
            for j, label in enumerate(nonbasic)
            if objective[j] > 0 and caps[label] != 0 and (stage == m or tableau[m][j] == 0)
        ]
        if not entering:
            if stage + 1 == len(tableau):
                break
            stage += 1
            continue
        e = min(entering, key=nonbasic.__getitem__)
        # Ratio test, ties to the lowest label: a basic variable falling to
        # zero or rising to its cap, against the entering variable's own cap.
        leaving, best = None, (0, 1)
        for r in range(m):
            coeff, rhs, cap = tableau[r][e], tableau[r][n], caps[basic[r]]
            if coeff > 0:
                ratio = (rhs, coeff)
            elif coeff < 0 and cap is not None:
                ratio = (cap * det - rhs, -coeff)
            else:
                continue
            order = ratio[0] * best[1] - best[0] * ratio[1]
            if leaving is None or order < 0 or (order == 0 and basic[r] < basic[leaving]):
                leaving, best = r, ratio
        cap = caps[nonbasic[e]]
        if cap is not None and (leaving is None or cap * best[1] <= best[0]):
            # Bound flip: the entering variable is complemented, no pivot.
            for row in tableau:
                row[n] -= row[e] * cap
                row[e] = -row[e]
            complemented[nonbasic[e]] ^= True
            continue
        if leaving is None:
            raise UnboundedError("objective decreases without bound")
        if tableau[leaving][e] < 0:
            # A basic variable rising to its cap leaves complemented.
            row = tableau[leaving]
            tableau[leaving] = [-a for a in row[:n]] + [caps[basic[leaving]] * det - row[n]]
            complemented[basic[leaving]] ^= True
        pivot_row = tableau[leaving]
        pivot = pivot_row[e]
        for r, row in enumerate(tableau):
            if r != leaving:
                factor = row[e]
                tableau[r] = plain_eliminate(row, pivot_row, e, pivot, det)
                tableau[r][e] = -factor
        pivot_row[e] = det
        basic[leaving], nonbasic[e] = nonbasic[e], basic[leaving]
        det = pivot

    row_of = {label: r for r, label in enumerate(basic)}
    solution = []
    for j in range(n):
        x = tableau[row_of[j]][n] if j in row_of else 0
        if complemented[j]:
            x = caps[j] * det - x
        solution.append(Fraction(x, det * scale))
    return Fraction(tableau[m][n], det * cost_scales[0] * scale), solution


def solve_min_by_every_row(
    costs: Sequence[int],
    le: Sequence[tuple[Sequence[int], int]],
    upper: Sequence[int],
    then: Sequence[int] | None = None,
) -> tuple[int, int, list[int]]:
    """`simplex.solve_min` as it rewrote every row at every pivot: Bland's
    entering column by `min` over a list, the ratio test on tuples, and
    `plain_eliminate` called on each row, a row with 0 in the entering
    column included. The reference for `solve_min`, which must return the same
    (det, value, x) by the same pivots."""
    n, m = len(costs), len(le)
    if len(upper) != n:
        raise ValueError(f"expected {n} upper bounds, got {len(upper)}")
    objectives = [costs] if then is None else [costs, then]
    if len(objectives[-1]) != n:
        raise ValueError(f"expected {n} costs in then, got {len(objectives[-1])}")
    for r, (_, rhs) in enumerate(le):
        if rhs < 0:
            raise ValueError(f"le[{r}]: negative right-hand side {rhs}; x = 0 must be feasible")
    for j, u in enumerate(upper):
        if u < 0:
            raise ValueError(f"upper[{j}]: negative bound {u}; x = 0 must be feasible")
    # Row r reads basic[r] = (rhs - sum of entry * column variable) / det;
    # rows m.. are the objectives in stage order, and the last column is the
    # rhs. `index` admits ints only: `plain_eliminate` divides with //.
    tableau = [[*map(index, coeffs), index(rhs)] for coeffs, rhs in le]
    tableau += [[-index(c) for c in objective] + [0] for objective in objectives]
    # Labels 0..n-1 are the variables, n.. the slacks, which have no cap.
    caps = [*map(index, upper)] + [None] * m
    complemented = [False] * (n + m)
    basic, nonbasic = list(range(n, n + m)), list(range(n))
    det, stage = 1, m
    while True:
        # Bland: the lowest label that lowers the objective; a cap of 0 fixes
        # it, and in the second stage so does a nonzero first reduced cost.
        objective = tableau[stage]
        entering = [
            j
            for j, label in enumerate(nonbasic)
            if objective[j] > 0 and caps[label] != 0 and (stage == m or tableau[m][j] == 0)
        ]
        if not entering:
            if stage + 1 == len(tableau):
                break
            stage += 1
            continue
        e = min(entering, key=nonbasic.__getitem__)
        # Ratio test, ties to the lowest label: a basic variable falling to
        # zero or rising to its cap, against the entering variable's own cap.
        leaving, best = None, (0, 1)
        for r in range(m):
            coeff, rhs, cap = tableau[r][e], tableau[r][n], caps[basic[r]]
            if coeff > 0:
                ratio = (rhs, coeff)
            elif coeff < 0 and cap is not None:
                ratio = (cap * det - rhs, -coeff)
            else:
                continue
            order = ratio[0] * best[1] - best[0] * ratio[1]
            if leaving is None or order < 0 or (order == 0 and basic[r] < basic[leaving]):
                leaving, best = r, ratio
        cap = caps[nonbasic[e]]
        if cap is not None and (leaving is None or cap * best[1] <= best[0]):
            # Bound flip: the entering variable is complemented, no pivot.
            for row in tableau:
                row[n] -= row[e] * cap
                row[e] = -row[e]
            complemented[nonbasic[e]] ^= True
            continue
        # leaving is None only for an entering variable, whose cap the flip
        # above takes: every variable is capped, and a slack is a function of
        # them, so an entering slack always meets a limiting basic row.
        if tableau[leaving][e] < 0:
            # A basic variable rising to its cap leaves complemented.
            row = tableau[leaving]
            tableau[leaving] = [-a for a in row[:n]] + [caps[basic[leaving]] * det - row[n]]
            complemented[basic[leaving]] ^= True
        pivot_row = tableau[leaving]
        pivot = pivot_row[e]
        for r, row in enumerate(tableau):
            if r != leaving:
                factor = row[e]
                tableau[r] = plain_eliminate(row, pivot_row, e, pivot, det)
                tableau[r][e] = -factor
        pivot_row[e] = det
        basic[leaving], nonbasic[e] = nonbasic[e], basic[leaving]
        det = pivot

    row_of = {label: r for r, label in enumerate(basic)}
    solution = []
    for j in range(n):
        x = tableau[row_of[j]][n] if j in row_of else 0
        solution.append(caps[j] * det - x if complemented[j] else x)
    return det, tableau[m][n], solution


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


_CHUNK = 1 << 15


def _scaled_int64(instance: AuctionInstance, grid: GridSpec):
    denominator = grid.epsilon.denominator
    for value in instance.values:
        denominator = math.lcm(denominator, value.denominator)
    values = [int(v * denominator) for v in instance.values]
    eps = int(grid.epsilon * denominator)
    if sum(values) + eps >= 1 << 62:
        raise RuntimeError("scaled magnitudes too large for exact int64 sweeping")
    return denominator, values, eps


def enumerate_equilibria_grid_numpy(instance: AuctionInstance, grid: GridSpec) -> list[BidProfile]:
    """Every lattice point swept in chunked numpy int64 arithmetic: the
    reference for `enumerate_equilibria_grid`, which walks the lattice depth
    first with running gaps instead and must return the same list."""
    import numpy as np

    winner = efficient_winner(instance)
    members = sorted(instance.members(winner))
    denominator, values, eps = _scaled_int64(instance, grid)

    counts = [values[i] // eps + 1 for i in members]
    points = math.prod(counts)
    if points > grid.budget:
        raise GridBudgetError(points, grid.budget)

    member_position = {i: p for p, i in enumerate(members)}
    rivals = []
    for j in range(instance.m):
        if j == winner:
            continue
        rival = instance.members(j)
        constant = sum(values[i] for i in rival if i not in instance.members(winner))
        overlap = [member_position[i] for i in rival if i in instance.members(winner)]
        outside = [p for i, p in member_position.items() if i not in rival]
        rivals.append((constant, overlap, outside))

    strides = []
    stride = 1
    for count in reversed(counts):
        strides.append(stride)
        stride *= count
    strides.reverse()

    dimension = len(members)
    accepted: list[tuple[int, ...]] = []
    for start in range(0, points, _CHUNK):
        stop = min(start + _CHUNK, points)
        index = np.arange(start, stop, dtype=np.int64)
        bids = np.empty((stop - start, dimension), dtype=np.int64)
        for p in range(dimension):
            bids[:, p] = (index // strides[p]) % counts[p]
        bids *= eps
        winner_total = bids.sum(axis=1)
        ok = np.ones(stop - start, dtype=bool)
        pinned = bids == 0
        for constant, overlap, outside in rivals:
            rival_total = np.full(stop - start, constant, dtype=np.int64)
            for p in overlap:
                rival_total += bids[:, p]
            gap = winner_total - rival_total
            ok &= gap >= 0
            tight = gap < eps
            for p in outside:
                pinned[:, p] |= tight
        ok &= pinned.all(axis=1)
        for row in bids[ok]:
            accepted.append(tuple(int(b) for b in row))

    accepted.sort()
    profiles = []
    for row in accepted:
        bids_exact = list(instance.values)
        for p, i in enumerate(members):
            bids_exact[i] = Fraction(row[p], denominator)
        profiles.append(tuple(bids_exact))
    return profiles


# `lexmax_surplus_grid` as it was before it compared sorted surpluses
# directly, with a per-profile membership scan. Body kept as it was; it must
# agree with the package.


def _winner(instance: AuctionInstance) -> tuple[int, list[Fraction]]:
    totals = [
        sum((instance.values[i] for i in instance.members(j)), Fraction(0))
        for j in range(instance.m)
    ]
    return totals.index(max(totals)), totals


def lexmax_surplus_grid_by_scan(instance: AuctionInstance, grid: GridSpec) -> BidProfile:
    """The grid equilibrium whose ascending surplus vector is lex-maximal.

    Ties break toward the lexicographically smallest bid vector. Raises when
    the lattice holds no equilibrium at all (refine epsilon in that case).
    """
    winner, _ = _winner(instance)
    members = sorted(instance.members(winner))
    best: tuple | None = None
    for profile in enumerate_equilibria_grid(instance, grid):
        surpluses = tuple(
            instance.values[i] - profile[i] if i in instance.members(winner) else Fraction(0)
            for i in range(instance.n)
        )
        key = (
            tuple(sorted(surpluses)),
            tuple(-profile[i] for i in range(instance.n)),
        )
        if best is None or key > best[0]:
            best = (key, profile)
    if best is None:
        raise RuntimeError(
            f"no equilibrium on the grid at resolution {grid.epsilon}; refine epsilon"
        )
    return best[1]


def _json_scalar(node: object) -> str:
    if isinstance(node, Fraction):
        return format_scalar(node)
    raise TypeError(f"unrenderable report node: {node!r}")


def render_json_by_dumps(report: dict) -> str:
    """The JSON report as `json.dumps` indents it, with Fractions as exact
    strings: the reference for `cli.render_json`, which writes the same
    bytes by hand."""
    return json.dumps(report, indent=2, default=_json_scalar)


def _check_literal_size_by_counting(text: str, where: str) -> None:
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


def parse_scalar_by_fraction(value: object, where: str = "value") -> Fraction:
    """Every value read by `Fraction(text)` after the literal-size checks: the
    reference for `model.parse_scalar`, which reads short plain literals
    ("123", "p/q", "12.5") with int()."""
    if isinstance(value, bool):
        raise InstanceError(f"{where}: expected a number, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        _check_literal_size_by_counting(text, where)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InstanceError(f"{where}: not an exact number: {value!r}") from None
    if isinstance(value, float):
        raise InstanceError(
            f"{where}: floats are inexact, write the number as a string"
        )
    raise InstanceError(f"{where}: expected a string-encoded number, got {type(value).__name__}")


def vcg_by_member_scan(instance: AuctionInstance) -> Outcome:
    """VCG by scanning every ad for each winning member: the reference for
    `mechanisms.vcg`, which walks the ads once by descending total."""
    totals = instance._totals
    units = instance._units
    winner = totals.index(max(totals))
    welfare = totals[winner]
    payments = [Fraction(0)] * instance.n
    for i in instance.members(winner):
        value = units[i]
        best_without = max(
            total - value if i in ad.members else total
            for ad, total in zip(instance.ads, totals)
        )
        shortfall = best_without - (welfare - value)
        if shortfall > 0:
            payments[i] = Fraction(shortfall, instance._scale)
    return settle(instance, winner, payments)


def _terminating_decimal_by_loops(x: Fraction) -> str | None:
    """Exact decimal string for x, or None when the decimal does not terminate."""
    if x.denominator == 1:
        return str(x.numerator)
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
    scaled = abs(x.numerator) * 10**digits // x.denominator
    text = str(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    sign = "-" if x.numerator < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def format_scalar_by_loops(x: Fraction) -> str:
    """`model.format_scalar` dividing out the 2s and 5s of every denominator
    afresh: the reference for the one that reads a memo per denominator."""
    try:
        decimal = _terminating_decimal_by_loops(x)
        return decimal if decimal is not None else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise InstanceError(f"a number to print has more than {_MAX_DIGITS} digits") from None


def position_vcg_by_fractions(owned: OwnedAuction, effective_bids: Sequence[Fraction]) -> PositionOutcome:
    """Position VCG in Fractions, price by price: the reference for
    `contracts.position_vcg`, which clears in integer units."""
    instance = owned.instance
    bids = [Fraction(bid) for bid in effective_bids]
    order = sorted(range(instance.m), key=lambda j: (-bids[j], j))
    slot_count = len(owned.slots)
    assignment: dict[int, int] = {}
    prices: dict[int, Fraction] = {}
    utilities = [Fraction(0)] * instance.n
    for rank, ad in enumerate(order[:slot_count]):
        rate = owned.slots[rank]
        displaced = Fraction(0)
        for lower in range(rank + 1, min(len(order) - 1, slot_count) + 1):
            above = owned.slots[lower - 1]
            below = owned.slots[lower] if lower < slot_count else Fraction(0)
            displaced += bids[order[lower]] * (above - below)
        price = displaced / rate
        assignment[ad] = rank
        prices[ad] = price
        for i in instance.members(ad):
            utilities[i] += rate * instance.values[i]
        utilities[owned.owners[ad]] -= rate * price
    return PositionOutcome(assignment=assignment, prices=prices, utilities=tuple(utilities))


def evaluate_contracts_by_fractions(
    owned: OwnedAuction, contracts: Sequence[ContractTerm]
) -> PositionOutcome:
    """`contracts.evaluate_contracts` (valid terms only) over the Fraction
    reference: owners bid value plus subsidies, then each term on a shown ad
    moves rate * min(fraction * price, cap) from its supporter to the owner."""
    instance = owned.instance
    effective = [instance.values[owned.owners[j]] for j in range(instance.m)]
    for term in contracts:
        effective[term.ad] += term.subsidy
    outcome = position_vcg_by_fractions(owned, effective)
    utilities = list(outcome.utilities)
    for term in contracts:
        if term.ad not in outcome.assignment:
            continue
        rate = owned.slots[outcome.assignment[term.ad]]
        transfer = min(term.fraction * outcome.prices[term.ad], term.cap)
        utilities[term.supporter] -= rate * transfer
        utilities[owned.owners[term.ad]] += rate * transfer
    return PositionOutcome(outcome.assignment, outcome.prices, tuple(utilities))


def best_response_by_evaluation(
    owned: OwnedAuction,
    responder: int,
    others: Sequence[ContractTerm],
    grid: GridSpec,
    max_subsidy: Fraction | None = None,
) -> tuple[ContractProfile, int]:
    """The grid search as a loop that builds every subsidy vector's committed
    terms and evaluates the whole auction: the reference for
    `contracts.best_response_contract`, for valid `others`. Also returns how
    many vectors tie at the best utility."""
    instance = owned.instance
    supported = [
        j
        for j in range(instance.m)
        if responder in instance.members(j) and owned.owners[j] != responder
    ]
    if not supported:
        return (), 0
    if max_subsidy is None:
        max_subsidy = sum(instance.values, Fraction(0))
    steps = int(max_subsidy / grid.epsilon) + 1
    if steps ** len(supported) > grid.budget:
        raise GridBudgetError(steps ** len(supported), grid.budget)
    levels = [grid.epsilon * k for k in range(steps)]
    best_utility: Fraction | None = None
    best_terms: ContractProfile = ()
    tied = 0
    for combo in itertools.product(levels, repeat=len(supported)):
        terms = tuple(
            ContractTerm.committed(responder, ad, amount)
            for ad, amount in zip(supported, combo)
            if amount > 0
        )
        outcome = evaluate_contracts_by_fractions(owned, tuple(others) + terms)
        utility = outcome.utilities[responder]
        if best_utility is None or utility > best_utility:
            best_utility, best_terms, tied = utility, terms, 1
        elif utility == best_utility:
            tied += 1
    return best_terms, tied


_RATES = (F(1), F(5, 6), F(3, 4), F(2, 3), F(1, 2), F(2, 5), F(1, 3), F(1, 4), F(1, 6))


def owned_family(rng: random.Random):
    """A best-response problem `(owned, responder, others, grid, max_subsidy)`:
    2-5 advertisers in 2-4 ads, 1-3 slots (fewer than the ads) whose rates
    mix denominators, and a responder that shares an ad with another member.
    It owns one ad in five that it is in. `others` holds share-and-cap terms,
    more often on the responder's own ads. The grid is small, but one
    problem in ten has a budget of 10, which most such grids exceed."""
    while True:
        instance = random_instance(rng, max_n=5, max_m=4)
        # Any member but the first of an ad: there is another to own it.
        riders = [i for j in range(instance.m) for i in sorted(instance.members(j))[1:]]
        if instance.n >= 2 and instance.m >= 2 and riders:
            break
    # A rider worth more than most makes a pledge worth its price often.
    responder = rng.choice(riders)
    values = dict(zip(instance.names, instance.values))
    values[instance.names[responder]] += rng.randint(0, 12)
    ads = [list(instance.member_names(j)) for j in range(instance.m)]
    instance = AuctionInstance.build(values, ads)
    owners = tuple(
        rng.choice(sorted(instance.members(j) - {responder}) or [responder])
        if rng.random() < 0.7
        else rng.choice(sorted(instance.members(j)))
        for j in range(instance.m)
    )
    slots = tuple(sorted(rng.sample(_RATES, rng.randint(1, min(3, instance.m - 1))), reverse=True))
    owned = OwnedAuction(instance=instance, owners=owners, slots=slots)
    others = []
    for j in range(instance.m):
        for i in sorted(instance.members(j) - {owners[j], responder}):
            if rng.random() < (0.8 if owners[j] == responder else 0.4):
                others.append(
                    ContractTerm(
                        supporter=i,
                        ad=j,
                        fraction=rng.choice((F(0), F(1, 3), F(1, 2), F(3, 4), F(1))),
                        cap=random_value(rng, 12),
                        subsidy=rng.choice((F(0), random_value(rng, 6))),
                    )
                )
    epsilon = rng.choice((F(1), F(1, 2), F(2, 3), F(5, 4)))
    max_subsidy = Fraction(rng.randint(0, 12), rng.choice((1, 2)))
    budget = 10 if rng.random() < 0.1 else 400
    return owned, responder, tuple(others), GridSpec(epsilon, budget), max_subsidy

"""Shared fixtures: canonical instances, seeded instance sources, and
test-only reference implementations."""

from __future__ import annotations

import json
import math
import random
import string
from fractions import Fraction
from typing import Sequence

from coopetition import (
    AuctionInstance,
    BidProfile,
    CefPolytope,
    GridBudgetError,
    GridSpec,
    InstanceError,
    LoweringRound,
    LoweringTrace,
    Outcome,
    RoundEvent,
    build_polytope,
    efficient_winner,
    enumerate_equilibria_grid,
    is_equilibrium,
    settle,
    total_bid,
)
from coopetition.model import _MAX_DIGITS, exact_sum, format_scalar
from coopetition.simplex import _eliminate

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


def surplus_rows_by_sums(polytope: CefPolytope) -> list[tuple[tuple[int, ...], Fraction]]:
    """Each envy-free row in surplus coordinates y = value - bid, as (0/1
    coefficients in member order, room): coefficients . y <= room, where the
    room is the value of the row's bidders minus the rival's outside value.

    The rows as Fractions, each room re-summed from the member values: the
    reference for `polytope.surplus_rows`, whose rooms are the same numbers
    in the instance's integer units."""
    members = polytope.members
    values = polytope.instance.values
    return [
        (
            tuple(int(k in c.bidders) for k in members),
            exact_sum(values[i] for i in c.bidders) - c.rhs,
        )
        for c in polytope.constraints
    ]


class UnboundedError(Exception):
    """The objective is unbounded below on the feasible region."""


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
                tableau[r] = _eliminate(row, pivot_row, e, pivot, det)
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


# The two grid comparisons as they were before they compared sorted
# surpluses directly: `lexmax_surplus_grid` with a per-profile membership
# scan, and `verify_egalitarian` with one `settle` Outcome per grid point.
# Bodies kept as they were; both must agree with the package.


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


def verify_egalitarian_by_outcomes(
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
    reference for the document readers, which read short plain literals
    ("123", "p/q", "12.5") with int() and hand every other value to
    `model.parse_scalar`."""
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

"""Brute-force cross-checks for the analytic machinery.

Everything here re-derives results from first principles so it can sit on
the other side of a disagreement: grid enumeration finds every bid vector on
an epsilon lattice where the winner stays ahead and every positive bidder is
within epsilon of being undercut; the truthful-payment check searches each
member's breakpoint value directly instead of using the closed form; the
egalitarian verdict checks the max-min certificate, not the lowering.

Grids are evaluated exactly, in plain Python integers. Bids, values and
epsilon are rescaled by a common denominator to integers, so tolerance
comparisons are integer comparisons at any magnitude. The lattice is walked
depth first, one winner member per level in member order, with one running
gap per rival: the bids of the members it lacks minus the value of its own
outsiders. Every gap rises with every bid, which makes both cuts exact. A
member's bids start at the smallest lattice bid from which the remaining
members, bidding their values, still lift every gap to zero; they stop at
the first bid that leaves it, or any positive member before it, with no
lacking rival whose gap is below epsilon. The rivals below epsilon are one
bit mask per level: a bid that leaves the mask as the level found it can
cost only the bidder its own pin, and any other bid re-tests every positive
member placed so far.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

# GridSpec and GridBudgetError live in model, so that contracts can use them
# without loading this module; they stay importable from here.
from .model import (
    AuctionInstance, BidProfile, BudgetError, GridBudgetError, GridSpec, InternalError,
    Outcome, check_bids, settle,
)
from .polytope import _row_slacks, build_polytope, is_equilibrium


def _winner(instance: AuctionInstance) -> tuple[int, list[Fraction]]:
    totals = [
        sum((instance.values[i] for i in instance.members(j)), Fraction(0))
        for j in range(instance.m)
    ]
    return totals.index(max(totals)), totals


def _scaled(instance: AuctionInstance, grid: GridSpec) -> tuple[int, list[int], int]:
    denominator = grid.epsilon.denominator
    for value in instance.values:
        denominator = math.lcm(denominator, value.denominator)
    values = [v.numerator * (denominator // v.denominator) for v in instance.values]
    eps = grid.epsilon
    return denominator, values, eps.numerator * (denominator // eps.denominator)


def enumerate_equilibria_grid(instance: AuctionInstance, grid: GridSpec) -> list[BidProfile]:
    """Every equilibrium on the epsilon lattice, sorted, losers at values.

    A lattice point (member bids are multiples of epsilon within [0, value],
    non-members bid their values) qualifies when the winning ad's total
    weakly beats every rival total and every member with a positive bid has
    a rival ad excluding it whose total trails the winner's by less than
    epsilon.
    """
    denominator, values, eps = _scaled(instance, grid)
    # Scaling by one positive denominator keeps the order of the totals.
    totals = [sum(values[i] for i in instance.members(j)) for j in range(instance.m)]
    winner = totals.index(max(totals))
    winning = instance.members(winner)
    members = sorted(winning)

    tops = [values[i] - values[i] % eps for i in members]
    points = math.prod(top // eps + 1 for top in tops)
    if points > grid.budget:
        raise GridBudgetError(points, grid.budget)

    # gaps[r]: winner total minus rival r's total, with the members not yet
    # visited bidding 0. A rival that lacks no member holds the whole winner,
    # so its outsiders are worth 0 (the winner is efficient) and its gap
    # stays 0. lacks[k]: the rivals that lack member k, and the same set as
    # a bit mask.
    rivals = [instance.members(j) for j in range(instance.m) if j != winner]
    gaps = [-sum(values[i] for i in rival - winning) for rival in rivals]
    lacks: list[tuple[list[int], int]] = []
    for i in members:
        excluding = [r for r, rival in enumerate(rivals) if i not in rival]
        lacks.append((excluding, sum(1 << r for r in excluding)))

    # floors[k]: (rival, top bids of the later members it lacks) for each
    # rival lacking k, so that k's bid must reach -(gap + later) for it.
    later = [0] * len(gaps)
    floors: list[list[tuple[int, int]]] = [[] for _ in members]
    for k in reversed(range(len(members))):
        floors[k] = [(r, later[r]) for r in lacks[k][0]]
        for r in lacks[k][0]:
            later[r] += tops[k]

    # near[k]: the rivals whose gap is below epsilon on entering level k
    # (every gap starts at or below 0); near[k + 1] holds the same after k's
    # current bid. A positive member is pinned while its mask and the near
    # set share a bit. Gaps only rise with bids, so a bid that leaves the
    # near set as it entered the level can only cost k its own pin;
    # otherwise every positive member placed so far is re-tested.
    near = [0] * (len(members) + 1)
    near[0] = (1 << len(gaps)) - 1

    # An explicit stack (bids holds the path) rather than recursion: a winner
    # can have more members than Python's recursion limit. Bids rise within
    # a level and levels follow member order, so points come out sorted.
    last = len(members) - 1
    bids = [0] * len(members)
    accepted: list[tuple[int, ...]] = []
    k, bid = 0, None
    while True:
        if bid is None:
            need = 0
            for r, reach in floors[k]:
                need = max(need, -(gaps[r] + reach))
            bid = -(-need // eps) * eps
            near[k + 1] = near[k]
        if bid <= tops[k]:
            if bid:
                step, bids[k] = bid - bids[k], bid
                for r in lacks[k][0]:
                    gaps[r] += step
                    if gaps[r] >= eps:
                        near[k + 1] &= ~(1 << r)
            now = near[k + 1]
            if not bid or now & lacks[k][1] and (
                now == near[k] or all(not bids[p] or now & lacks[p][1] for p in range(k))
            ):
                if k == last:
                    accepted.append(tuple(bids))
                    bid += eps
                else:
                    k, bid = k + 1, None
                continue
        # Level k is done: its bid passed its top, or failed the pin test,
        # which every higher bid fails too because the gaps only rise.
        for r in lacks[k][0]:
            gaps[r] -= bids[k]
        bids[k] = 0
        if k == 0:
            break
        k -= 1
        bid = bids[k] + eps

    # Lattice bids repeat across points; build each exact bid once.
    exact: dict[int, Fraction] = {}
    profiles = []
    for row in accepted:
        bids_exact = list(instance.values)
        for b, i in zip(row, members):
            if b not in exact:
                exact[b] = Fraction(b, denominator)
            bids_exact[i] = exact[b]
        profiles.append(tuple(bids_exact))
    return profiles


def lexmax_surplus_grid(instance: AuctionInstance, grid: GridSpec) -> BidProfile:
    """The grid equilibrium whose ascending surplus vector is lex-maximal.

    Ties break toward the lexicographically smallest bid vector. Losers bid
    their values, so their surplus is 0. Raises BudgetError when the lattice
    holds no equilibrium at all (refine epsilon in that case).
    """
    return _lexmax(instance, grid, enumerate_equilibria_grid(instance, grid))


def _lexmax(instance: AuctionInstance, grid: GridSpec, equilibria: list[BidProfile]) -> BidProfile:
    """`lexmax_surplus_grid` on the equilibria one sweep of `grid` found."""
    if not equilibria:
        raise BudgetError(
            f"no equilibrium on the grid at resolution {grid.epsilon}; refine epsilon"
        )
    values = instance.values
    return max(equilibria, key=lambda p: (sorted(v - b for v, b in zip(values, p)), [-b for b in p]))


def verify_egalitarian(instance: AuctionInstance, bids: Sequence[Fraction]) -> bool:
    """Exact check that `bids` is the egalitarian equilibrium: an equilibrium in
    which each positive member has a bottleneck, a tight envy-free row where no
    bidder's surplus value - bid is larger. Then no grid equilibrium, exact or
    not, has a larger sorted surplus. Proof: in surplus coordinates y, IR and
    CEF are the capped packing polytope P, which holds every grid point, and a
    member bidding 0 is bottlenecked by its cap; so y is max-min fair on P
    (Bertsekas & Gallager, §6.5.2), hence its leximin point. A z in P other
    than y lowers some member: if z raises k, k's tight bottleneck row has a
    bidder j that z lowers, with y_j <= y_k. With a the least y_j over those z
    lowers, z raises nobody below a, so it keeps y's entries below a and adds
    one: its sorted surplus is smaller. Non-members add zeros to both."""
    polytope = build_polytope(instance)
    profile = check_bids(instance, bids)
    if not is_equilibrium(polytope, profile).ok:
        return False
    _, surplus, slacks = _row_slacks(polytope, profile)
    bottlenecked = set()
    for c, slack in zip(polytope.constraints, slacks):
        if slack == 0:
            top = max([surplus[k] for k in c.bidders])
            bottlenecked.update([k for k in c.bidders if surplus[k] == top])
    return all(not profile[k] or k in bottlenecked for k in polytope.members)


def vcg_bruteforce(instance: AuctionInstance) -> Outcome:
    """Re-derive truthful payments by searching each member's breakpoint.

    A winning member's payment is the smallest value it could report and
    still belong to some welfare-maximizing ad. Candidate breakpoints are the
    rational values at which an ad containing the member ties one that does
    not; a binary search over them finds the threshold exactly.
    """
    winner, totals = _winner(instance)
    payments = [Fraction(0)] * instance.n
    for i in instance.members(winner):
        value = instance.values[i]
        candidates = {Fraction(0)}
        for j_out in range(instance.m):
            if i in instance.members(j_out):
                continue
            for j_in in range(instance.m):
                if i not in instance.members(j_in):
                    continue
                breakpoint_value = totals[j_out] - (totals[j_in] - value)
                if breakpoint_value > 0:
                    candidates.add(breakpoint_value)
        ladder = sorted(candidates)

        def still_wins(report: Fraction) -> bool:
            trial = [
                totals[j] + (report - value if i in instance.members(j) else Fraction(0))
                for j in range(instance.m)
            ]
            top = max(trial)
            return any(
                trial[j] == top and i in instance.members(j) for j in range(instance.m)
            )

        if not still_wins(ladder[-1]):
            raise InternalError("truthful membership must hold at the top")
        lo, hi = 0, len(ladder) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if still_wins(ladder[mid]):
                hi = mid
            else:
                lo = mid + 1
        payments[i] = ladder[lo]
    return settle(instance, winner, payments)

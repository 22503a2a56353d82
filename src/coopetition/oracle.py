"""Brute-force cross-checks for the analytic machinery.

Everything here re-derives results from first principles so it can sit on
the other side of a disagreement: grid enumeration walks every bid vector on
an epsilon lattice and keeps the ones where the winner stays ahead and every
positive bidder is within epsilon of being undercut; the truthful-payment
check searches each member's breakpoint value directly instead of using the
closed form.

Grids are evaluated exactly. Bids, values and epsilon are rescaled by a
common denominator to small integers, and the lattice is swept in chunked
numpy int64 arithmetic, so tolerance comparisons are integer comparisons.
numpy is imported by the grid sweep itself, so importing this module does
not load numpy; only a command that sweeps a grid (``oracle``) does.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .mechanisms import VcgResult
# GridSpec and GridBudgetError live in model, so that contracts can use them
# without loading this module; they stay importable from here.
from .model import AuctionInstance, BidProfile, GridBudgetError, GridSpec, InternalError

_CHUNK = 1 << 15


def _winner(instance: AuctionInstance) -> tuple[int, list[Fraction]]:
    totals = [
        sum((instance.values[i] for i in instance.members(j)), Fraction(0))
        for j in range(instance.m)
    ]
    return totals.index(max(totals)), totals


def _scaled(instance: AuctionInstance, grid: GridSpec):
    denominator = grid.epsilon.denominator
    for value in instance.values:
        denominator = math.lcm(denominator, value.denominator)
    values = [int(v * denominator) for v in instance.values]
    eps = int(grid.epsilon * denominator)
    if sum(values) + eps >= 1 << 62:
        raise RuntimeError("scaled magnitudes too large for exact int64 sweeping")
    return denominator, values, eps


def enumerate_equilibria_grid(instance: AuctionInstance, grid: GridSpec) -> list[BidProfile]:
    """Every equilibrium on the epsilon lattice, sorted, losers at values.

    A lattice point (member bids are multiples of epsilon within [0, value],
    non-members bid their values) qualifies when the winning ad's total
    weakly beats every rival total and every member with a positive bid has
    a rival ad excluding it whose total trails the winner's by less than
    epsilon.
    """
    import numpy as np

    winner, _ = _winner(instance)
    members = sorted(instance.members(winner))
    denominator, values, eps = _scaled(instance, grid)

    counts = [values[i] // eps + 1 for i in members]
    points = math.prod(counts)
    if points > grid.budget:
        raise GridBudgetError(
            f"grid needs {points} points, budget is {grid.budget}"
        )

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


def lexmax_surplus_grid(instance: AuctionInstance, grid: GridSpec) -> BidProfile:
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


def vcg_bruteforce(instance: AuctionInstance) -> VcgResult:
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
    payments_t = tuple(payments)
    return VcgResult(
        winner=winner, payments=payments_t, revenue=sum(payments_t, Fraction(0))
    )

"""Exact linear programming over integers.

A single-phase bounded-variable simplex with Bland's anti-cycling rule. Its
input is all ints: `<=` rows with rhs >= 0 and a cap on every variable, so
x = 0 is feasible, the region is bounded and the slack basis starts the only
phase. The tableau is condensed (Tucker: one row per basic variable, one
column per nonbasic one); a variable at its cap is complemented, x -> u - x,
so the caps need no rows (Dantzig 1955); and the entries are integers over
one common denominator, each pivot dividing exactly by the previous one
(`_eliminate`; Edmonds 1967, Bareiss 1968), and so is the optimum it
returns. Every comparison is exact.
"""

from __future__ import annotations

from operator import add, index, sub
from typing import Sequence

Row = tuple[Sequence[int], int]


def _eliminate(
    row: list[int], pivot_row: list[int], pivot: int, det: int, previous: int
) -> list[int]:
    """One fraction-free Gauss-Jordan step: (det * row - row[pivot] * pivot_row) / previous.

    `pivot_row` holds det at `pivot`, and every row entering the step is the
    previous determinant times its reduced form, so each entry of the result
    is a minor of the integer rows and the division is exact (Sylvester's
    identity; Bareiss 1968). When det and previous are both 1, as in most
    steps over 0/1 packing rows, this is row - factor * pivot_row.
    """
    factor = row[pivot]
    if det == 1 == previous:
        if factor == 1:
            return list(map(sub, row, pivot_row))
        if factor == -1:
            return list(map(add, row, pivot_row))
        return [entry - factor * p for entry, p in zip(row, pivot_row)]
    if previous == 1:
        return [det * entry - factor * p for entry, p in zip(row, pivot_row)]
    return [(det * entry - factor * p) // previous for entry, p in zip(row, pivot_row)]


def solve_min(
    costs: Sequence[int],
    le: Sequence[Row],
    upper: Sequence[int],
    then: Sequence[int] | None = None,
) -> tuple[int, int, list[int]]:
    """Minimize costs . x subject to the rows a.x <= rhs and 0 <= x <= upper.

    le is a sequence of (coefficients, rhs) with every rhs >= 0; upper holds
    one cap >= 0 per variable. Every number is an int; anything else, a
    Fraction included, raises TypeError. When `then` is given, then . x is
    minimized next over the optimal face of costs . x, as in the
    lexicographic simplex (Isermann 1982): after the first optimum only a
    column whose reduced cost in costs is zero may enter, so costs . x keeps
    its optimal value. Bland's rule picks the entering column and breaks
    ratio-test ties; a pivot that keeps det rewrites (`_eliminate`) only the
    rows with a nonzero entry in that column. Returns ints over the final
    determinant det >= 1: (det, value, x) with costs . x == value, for the
    optimum x / det of value / det. Raises ValueError on a negative rhs or cap.
    """
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
    # rhs. `index` admits ints only: `_eliminate` divides with //.
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
        objective, first = tableau[stage], tableau[m]
        e, label = -1, n + m
        for j, candidate in enumerate(nonbasic):
            if objective[j] > 0 and candidate < label and caps[candidate] != 0:
                if stage == m or first[j] == 0:
                    e, label = j, candidate
        if e < 0:
            if stage + 1 == len(tableau):
                break
            stage += 1
            continue
        # Ratio test, ties to the lowest label: a basic variable falling to
        # zero or rising to its cap, against the entering variable's own cap.
        # The best ratio so far is num / den.
        leaving, num, den = None, 0, 1
        for r in range(m):
            row = tableau[r]
            coeff = row[e]
            if coeff > 0:
                top, bottom = row[n], coeff
            elif coeff < 0 and caps[basic[r]] is not None:
                top, bottom = caps[basic[r]] * det - row[n], -coeff
            else:
                continue
            order = top * den - num * bottom
            if leaving is None or order < 0 or (order == 0 and basic[r] < basic[leaving]):
                leaving, num, den = r, top, bottom
        cap = caps[label]
        if cap is not None and (leaving is None or cap * den <= num):
            # Bound flip: the entering variable is complemented, no pivot.
            for row in tableau:
                row[n] -= row[e] * cap
                row[e] = -row[e]
            complemented[label] ^= True
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
            factor = row[e]
            if (factor or pivot != det) and r != leaving:
                row = tableau[r] = _eliminate(row, pivot_row, e, pivot, det)
                row[e] = -factor
        pivot_row[e] = det
        basic[leaving], nonbasic[e] = label, basic[leaving]
        det = pivot

    row_of = {label: r for r, label in enumerate(basic)}
    solution = []
    for j in range(n):
        x = tableau[row_of[j]][n] if j in row_of else 0
        solution.append(caps[j] * det - x if complemented[j] else x)
    return det, tableau[m][n], solution

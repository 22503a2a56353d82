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

from fractions import Fraction
from operator import index
from typing import Sequence

Row = tuple[Sequence[int], int]


def _eliminate(
    row: list[int], pivot_row: list[int], pivot: int, det: int, previous: int
) -> list[int]:
    """One fraction-free Gauss-Jordan step: (det * row - row[pivot] * pivot_row) / previous.

    `pivot_row` holds det at `pivot`, and every row entering the step is the
    previous determinant times its reduced form, so each entry of the result
    is a minor of the integer rows and the division is exact (Sylvester's
    identity; Bareiss 1968).
    """
    factor = row[pivot]
    if factor == 0:
        return row if det == previous else [det * entry // previous for entry in row]
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
    its optimal value. Returns ints over the final determinant det >= 1:
    (det, value, x) with costs . x == value, for the optimum x / det of
    value / det. Raises ValueError on a negative rhs or cap.
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
                tableau[r] = _eliminate(row, pivot_row, e, pivot, det)
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


def solve_square_system(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve a square exact linear system; None when singular."""
    size = len(rhs)
    work = [list(row) + [rhs[r]] for r, row in enumerate(matrix)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            return None
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        if pivot != 1:
            work[col] = [entry / pivot for entry in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [
                    entry - factor * p if p else entry
                    for entry, p in zip(work[r], work[col])
                ]
    return [work[r][size] for r in range(size)]

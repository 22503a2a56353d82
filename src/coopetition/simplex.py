"""Exact linear programming over rationals.

A dense single-phase simplex with Bland's anti-cycling rule, for `<=` rows
with non-negative right-hand sides: the slack basis is then a feasible
start, so no phase 1 is needed. Problem sizes in this package are tiny (a
dozen variables), so the implementation favours exactness and auditability
over speed: every tableau entry is a Fraction and every comparison is exact,
which is what makes the equilibrium geometry downstream trustworthy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = tuple[Sequence[Fraction], Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedError(Exception):
    """The objective is unbounded below on the feasible region."""


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [entry / pivot for entry in tableau[row]]
    for r, other in enumerate(tableau):
        if r != row and other[col] != 0:
            factor = other[col]
            tableau[r] = [entry - factor * p for entry, p in zip(other, tableau[row])]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    """Pivot the tableau (last row = reduced costs) to optimality, Bland's rule."""
    rows = len(tableau) - 1
    while True:
        objective = tableau[-1]
        entering = next((j for j in range(ncols) if objective[j] < 0), None)
        if entering is None:
            return
        leaving = None
        best_ratio: Fraction | None = None
        for r in range(rows):
            coeff = tableau[r][entering]
            if coeff > 0:
                ratio = tableau[r][-1] / coeff
                if (
                    leaving is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    leaving, best_ratio = r, ratio
        if leaving is None:
            raise UnboundedError("objective decreases without bound")
        _pivot(tableau, basis, leaving, entering)


def solve_min(
    costs: Sequence[Fraction], le: Sequence[Row] = ()
) -> tuple[Fraction, list[Fraction]]:
    """Minimize costs . x subject to x >= 0 and the rows a.x <= rhs.

    le is a sequence of (coefficients, rhs) with every rhs >= 0, so x = 0 is
    feasible and the slack basis starts the single phase. Returns (optimal
    value, optimal x). Raises ValueError on a negative rhs and UnboundedError
    when the objective has no minimum.
    """
    n = len(costs)
    tableau: list[list[Fraction]] = []
    for r, (coeffs, rhs) in enumerate(le):
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError(f"le[{r}]: negative right-hand side {rhs}; x = 0 must be feasible")
        row = [Fraction(c) for c in coeffs] + [ZERO] * len(le) + [rhs]
        row[n + r] = ONE
        tableau.append(row)
    tableau.append([Fraction(c) for c in costs] + [ZERO] * (len(le) + 1))
    basis = list(range(n, n + len(le)))
    _optimize(tableau, basis, n + len(le))

    solution = [ZERO] * n
    for r, col in enumerate(basis):
        if col < n:
            solution[col] = tableau[r][-1]
    return -tableau[-1][-1], solution


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

"""Exact linear programming over rationals.

A dense two-phase simplex with Bland's anti-cycling rule. Problem sizes in
this package are tiny (a dozen variables), so the implementation favours
exactness and auditability over speed: every tableau entry is a Fraction and
every comparison is exact, which is what makes the equilibrium geometry
downstream trustworthy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = tuple[Sequence[Fraction], Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


class InfeasibleError(Exception):
    """The constraint system has no feasible point."""


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
    costs: Sequence[Fraction],
    ge: Sequence[Row] = (),
    le: Sequence[Row] = (),
    eq: Sequence[Row] = (),
) -> tuple[Fraction, list[Fraction]]:
    """Minimize costs . x subject to x >= 0 and the given constraint rows.

    ge, le and eq are sequences of (coefficients, rhs) meaning a.x >= rhs,
    a.x <= rhs and a.x == rhs. Returns (optimal value, optimal x). Raises
    InfeasibleError or UnboundedError accordingly.
    """
    n = len(costs)
    ge, le, eq = list(ge), list(le), list(eq)
    slack_count = len(ge) + len(le)
    base_cols = n + slack_count

    rows: list[list[Fraction]] = []
    rhs_column: list[Fraction] = []
    for k, (coeffs, rhs) in enumerate(ge + le):
        row = [Fraction(c) for c in coeffs] + [ZERO] * slack_count
        row[n + k] = -ONE if k < len(ge) else ONE
        rows.append(row)
        rhs_column.append(Fraction(rhs))
    for coeffs, rhs in eq:
        rows.append([Fraction(c) for c in coeffs] + [ZERO] * slack_count)
        rhs_column.append(Fraction(rhs))
    for r, rhs in enumerate(rhs_column):
        if rhs < 0:
            rows[r] = [-entry for entry in rows[r]]
            rhs_column[r] = -rhs

    # Initial basis: the row's own slack column when its sign survived as +1,
    # otherwise a fresh artificial column.
    basis: list[int] = []
    artificial_cols: list[int] = []
    next_col = base_cols
    for r, row in enumerate(rows):
        own_slack = n + r if r < slack_count else None
        if own_slack is not None and row[own_slack] == 1:
            basis.append(own_slack)
        else:
            artificial_cols.append(next_col)
            basis.append(next_col)
            next_col += 1
    ncols = next_col

    tableau = []
    for r, row in enumerate(rows):
        extended = row + [ZERO] * (ncols - base_cols) + [rhs_column[r]]
        if basis[r] >= base_cols:
            extended[basis[r]] = ONE
        tableau.append(extended)

    if artificial_cols:
        # Phase 1: drive the artificial variables to zero.
        objective = [ZERO] * (ncols + 1)
        for r in range(len(rows)):
            if basis[r] in artificial_cols:
                objective = [o - t for o, t in zip(objective, tableau[r])]
        for col in artificial_cols:
            objective[col] += ONE
        tableau.append(objective)
        _optimize(tableau, basis, ncols)
        if tableau[-1][-1] != 0:
            raise InfeasibleError("constraints admit no solution")
        tableau.pop()
        # Remove artificials from the basis, dropping rows that turned out
        # redundant, then excise the artificial columns entirely.
        for r in range(len(tableau)):
            if basis[r] in artificial_cols:
                replacement = next(
                    (j for j in range(base_cols) if tableau[r][j] != 0), None
                )
                if replacement is not None:
                    _pivot(tableau, basis, r, replacement)
        keep = [r for r in range(len(tableau)) if basis[r] < base_cols]
        tableau = [tableau[r][:base_cols] + [tableau[r][-1]] for r in keep]
        basis = [basis[r] for r in keep]
        ncols = base_cols

    # Phase 2 over the original objective.
    full_costs = [Fraction(c) for c in costs] + [ZERO] * (ncols - n)
    objective = [full_costs[j] for j in range(ncols)] + [ZERO]
    value = ZERO
    for r in range(len(tableau)):
        cost = full_costs[basis[r]]
        if cost != 0:
            objective = [o - cost * t for o, t in zip(objective, tableau[r])]
            value += cost * tableau[r][-1]
    objective[-1] = -value
    tableau.append(objective)
    _optimize(tableau, basis, ncols)

    solution = [ZERO] * n
    for r in range(len(tableau) - 1):
        if basis[r] < n:
            solution[basis[r]] = tableau[r][-1]
    optimum = -tableau[-1][-1]
    return optimum, solution


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

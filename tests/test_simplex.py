"""Exact LP solver: known optima, degeneracy, cross-check against scipy."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coopetition.simplex import UnboundedError, solve_min, solve_square_system

F = Fraction


def test_simple_minimum():
    # min -x - y  s.t.  x + y <= 3, x <= 2, y <= 2, x - 2y <= 0; the last row
    # is tight at the start, a degenerate vertex.
    value, x = solve_min(
        [F(-1), F(-1)],
        le=[
            ([F(1), F(1)], F(3)),
            ([F(1), F(0)], F(2)),
            ([F(0), F(1)], F(2)),
            ([F(1), F(-2)], F(0)),
        ],
    )
    assert value == F(-3)
    assert sum(x) == F(3)
    assert all(F(0) <= xi <= F(2) for xi in x)
    assert x[0] <= 2 * x[1]


def test_weighted_objective_picks_the_cheap_coordinate():
    # min -x - 3y  s.t.  x + y <= 1, x <= 1, y <= 1: all of the budget goes to y.
    value, x = solve_min(
        [F(-1), F(-3)],
        le=[([F(1), F(1)], F(1)), ([F(1), F(0)], F(1)), ([F(0), F(1)], F(1))],
    )
    assert value == F(-3)
    assert x == [F(0), F(1)]


def test_beale_cycling_example_terminates():
    # Classic degenerate LP that cycles under the naive pivot choice; Bland's
    # rule must reach z = -1/20 at (1/25, 0, 1, 0).
    costs = [F(-3, 4), F(150), F(-1, 50), F(6)]
    le = [
        ([F(1, 4), F(-60), F(-1, 25), F(9)], F(0)),
        ([F(1, 2), F(-90), F(-1, 50), F(3)], F(0)),
        ([F(0), F(0), F(1), F(0)], F(1)),
    ]
    value, x = solve_min(costs, le=le)
    assert value == F(-1, 20)
    assert x == [F(1, 25), F(0), F(1), F(0)]


def test_unbounded():
    with pytest.raises(UnboundedError):
        solve_min([F(-1)], le=[([F(-1)], F(0))])


def test_negative_rhs_is_rejected():
    # x = 0 is infeasible, so the slack basis cannot start the single phase.
    with pytest.raises(ValueError, match=r"le\[1\]: negative right-hand side"):
        solve_min([F(1)], le=[([F(1)], F(2)), ([F(-1)], F(-1))])


def test_cross_check_against_scipy():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(20240817)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        costs = [F(rng.randint(-5, 5)) for _ in range(nvars)]
        le = [
            ([F(rng.randint(-2, 4)) for _ in range(nvars)], F(rng.choice((0, rng.randint(1, 6)))))
            for _ in range(nrows)
        ]
        le += [([F(1) if k == j else F(0) for k in range(nvars)], F(rng.randint(0, 8)))
               for j in range(nvars)]
        result = scipy_optimize.linprog(
            c=[float(c) for c in costs],
            A_ub=[[float(a) for a in row] for row, _ in le],
            b_ub=[float(b) for _, b in le],
            bounds=[(0, None)] * nvars,
            method="highs",
        )
        assert result.success
        value, x = solve_min(costs, le=le)
        assert abs(float(value) - result.fun) <= 1e-8 * (1 + abs(result.fun))
        assert all(xi >= 0 for xi in x)
        assert all(sum(a * xi for a, xi in zip(row, x)) <= b for row, b in le)
        assert sum(c * xi for c, xi in zip(costs, x)) == value


def test_square_system_solution():
    matrix = [[F(2), F(1)], [F(1), F(-1)]]
    assert solve_square_system(matrix, [F(4), F(-1)]) == [F(1), F(2)]


def test_square_system_singular():
    matrix = [[F(1), F(1)], [F(2), F(2)]]
    assert solve_square_system(matrix, [F(1), F(3)]) is None

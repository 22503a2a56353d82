"""Exact LP solver: known optima, degeneracy, upper bounds, cross-check against scipy."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coopetition import simplex
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


def test_bound_flip_without_a_pivot(monkeypatch):
    # min -x - y  s.t.  x + y <= 10, x <= 2, y <= 3: each variable reaches
    # its own bound before the row binds, so the optimum takes two bound
    # flips and no pivot.
    pivots = []
    eliminate = simplex._eliminate

    def recording(*args):
        pivots.append(args)
        return eliminate(*args)

    monkeypatch.setattr(simplex, "_eliminate", recording)
    value, x = solve_min([F(-1), F(-1)], le=[([F(1), F(1)], F(10))], upper=[F(2), F(3)])
    assert value == F(-5)
    assert x == [F(2), F(3)]
    assert pivots == []


def test_basic_variable_leaves_at_its_bound():
    # min -2x - y  s.t.  x - y <= 1, x + y <= 10, x <= 3. Bland enters x,
    # which becomes basic on the first row (x = 1 + y); y enters next and
    # lifts x to its bound at y = 2, so x leaves the basis at its cap. The
    # optimum is (3, 7); without the cap it would be (11/2, 9/2).
    le = [([F(1), F(-1)], F(1)), ([F(1), F(1)], F(10))]
    assert solve_min([F(-2), F(-1)], le=le, upper=[F(3), None]) == (F(-13), [F(3), F(7)])
    assert solve_min([F(-2), F(-1)], le=le) == (F(-31, 2), [F(11, 2), F(9, 2)])


def test_zero_bound_fixes_the_variable():
    value, x = solve_min([F(-1), F(-1)], le=[([F(1), F(1)], F(4))], upper=[F(0), None])
    assert (value, x) == (F(-4), [F(0), F(4)])


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError, match=r"upper\[1\]: negative bound"):
        solve_min([F(1), F(1)], le=[], upper=[F(1), F(-1, 2)])
    with pytest.raises(ValueError, match="expected 2 upper bounds"):
        solve_min([F(1), F(1)], le=[], upper=[F(1)])


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


def bounded_shapes():
    """The seeded problem shapes of test_cross_check_against_scipy with
    rational coefficients, rhs and caps of mixed denominators, as
    (costs, le, upper)."""
    rng = random.Random(20240817)

    def rational(low, high):
        return F(rng.randint(low, high), rng.choice((1, 2, 3, 5, 7)))

    for _ in range(60):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        costs = [rational(-5, 5) for _ in range(nvars)]
        le = [
            ([rational(-2, 4) for _ in range(nvars)], rng.choice((F(0), rational(1, 6))))
            for _ in range(nrows)
        ]
        upper = [rng.choice((None, F(0), rational(1, 8), rational(1, 8))) for _ in range(nvars)]
        yield costs, le, upper


def test_bounds_match_cap_rows_and_scipy():
    # The caps as implicit bounds, as explicit unit rows and as scipy bounds
    # must agree.
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for costs, le, upper in bounded_shapes():
        nvars = len(costs)
        cap_rows = [
            ([F(1) if k == j else F(0) for k in range(nvars)], u)
            for j, u in enumerate(upper)
            if u is not None
        ]
        result = scipy_optimize.linprog(
            c=[float(c) for c in costs],
            A_ub=[[float(a) for a in row] for row, _ in le],
            b_ub=[float(b) for _, b in le],
            bounds=[(0, None if u is None else float(u)) for u in upper],
            method="highs",
        )
        try:
            value, x = solve_min(costs, le=le, upper=upper)
        except UnboundedError:
            # x = 0 is feasible, so HiGHS reports unbounded or, from its
            # presolve, "infeasible or unbounded".
            assert result.status in (2, 3)
            with pytest.raises(UnboundedError):
                solve_min(costs, le=le + cap_rows)
            continue
        assert result.success
        assert abs(float(value) - result.fun) <= 1e-8 * (1 + abs(result.fun))
        assert all(F(0) <= xi and (u is None or xi <= u) for xi, u in zip(x, upper))
        assert all(sum(a * xi for a, xi in zip(row, x)) <= b for row, b in le)
        assert sum(c * xi for c, xi in zip(costs, x)) == value
        assert solve_min(costs, le=le + cap_rows)[0] == value


def test_second_objective_picks_an_endpoint_of_the_optimal_edge():
    # min -x - y  s.t.  x + y <= 1, x, y <= 1: the optimum is the edge from
    # (1, 0) to (0, 1), and Bland's rule alone stops at (1, 0). The second
    # objective picks the endpoint where it is smaller, and the slack, whose
    # reduced cost in the first objective is nonzero, never enters.
    le = [([F(1), F(1)], F(1))]
    assert solve_min([F(-1), F(-1)], le=le, upper=[F(1), F(1)]) == (F(-1), [F(1), F(0)])
    for then, endpoint in (([F(2), F(1)], [F(0), F(1)]), ([F(1), F(2)], [F(1), F(0)])):
        assert solve_min([F(-1), F(-1)], le=le, upper=[F(1), F(1)], then=then) == (
            F(-1),
            endpoint,
        )
    with pytest.raises(ValueError, match="expected 2 costs in then"):
        solve_min([F(-1), F(-1)], le=le, then=[F(1)])


def test_second_objective_matches_two_stage_scipy():
    # The shapes of test_bounds_match_cap_rows_and_scipy with about half of
    # the first costs zeroed, so that the first optimum is often a face, not
    # a vertex, and a second objective. scipy solves the two stages apart:
    # the first as it is, the second with the first objective held at its
    # optimum by one more row.
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(7)
    second_stages = moved = 0
    for costs, le, upper in bounded_shapes():
        costs = [c if rng.random() < 0.5 else F(0) for c in costs]
        then = [F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in costs]
        a_ub = [[float(a) for a in row] for row, _ in le]
        b_ub = [float(b) for _, b in le]
        bounds = [(0, None if u is None else float(u)) for u in upper]
        first = scipy_optimize.linprog(
            c=[float(c) for c in costs], A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
        )
        if not first.success:
            with pytest.raises(UnboundedError):
                solve_min(costs, le=le, upper=upper, then=then)
            continue
        second = scipy_optimize.linprog(
            c=[float(c) for c in then],
            A_ub=a_ub + [[float(c) for c in costs]],
            b_ub=b_ub + [first.fun + 1e-9 * (1 + abs(first.fun))],
            bounds=bounds,
            method="highs",
        )
        try:
            value, x = solve_min(costs, le=le, upper=upper, then=then)
        except UnboundedError:
            assert second.status in (2, 3)
            continue
        assert second.success
        second_stages += 1
        first_only = solve_min(costs, le=le, upper=upper)
        assert value == first_only[0]
        moved += sum(c * a for c, a in zip(then, first_only[1])) != sum(
            c * xi for c, xi in zip(then, x)
        )
        assert sum(c * xi for c, xi in zip(costs, x)) == value
        assert all(F(0) <= xi and (u is None or xi <= u) for xi, u in zip(x, upper))
        assert all(sum(a * xi for a, xi in zip(row, x)) <= b for row, b in le)
        assert abs(float(sum(c * xi for c, xi in zip(then, x))) - second.fun) <= 1e-7 * (
            1 + abs(second.fun)
        )
    # The second stage changed the answer on some shapes, so it was tested.
    assert second_stages >= 40 and moved >= 5

"""Exact LP solver: known optima, degeneracy, caps, int-only input, and
cross-checks against scipy, the general rational solver it narrowed and the
kernel that rewrote every row at every pivot."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import helpers
from coopetition import build_polytope, simplex
from coopetition.polytope import surplus_rows
from coopetition.simplex import solve_min
from helpers import prime_family, rival_family, solve_min_by_every_row, solve_min_by_fractions

F = Fraction


def solved(costs, le, upper, then=None):
    """solve_min's answer as (value, x) in Fractions, after `in_fractions`
    checks its integer contract."""
    return in_fractions(costs, upper, solve_min(costs, le=le, upper=upper, then=then))


def in_fractions(costs, upper, answer):
    """(det, value, x) as (value / det, x / det), after checking that all are
    ints, that det >= 1, that each x numerator lies within [0, cap * det] and
    that the value numerator is exactly costs . x."""
    det, value, x = answer
    assert all(type(number) is int for number in (det, value, *x))
    assert det >= 1
    assert all(0 <= xi <= cap * det for xi, cap in zip(x, upper))
    assert value == sum(c * xi for c, xi in zip(costs, x))
    return F(value, det), [F(xi, det) for xi in x]


def test_simple_minimum():
    # min -x - y  s.t.  x + y <= 3, x <= 2, y <= 2, x - 2y <= 0; the last row
    # is tight at the start, a degenerate vertex. The caps never bind.
    value, x = solved(
        [-1, -1],
        le=[([1, 1], 3), ([1, 0], 2), ([0, 1], 2), ([1, -2], 0)],
        upper=[10, 10],
    )
    assert value == -3
    assert sum(x) == 3
    assert all(0 <= xi <= 2 for xi in x)
    assert x[0] <= 2 * x[1]


def test_weighted_objective_picks_the_cheap_coordinate():
    # min -x - 3y  s.t.  x + y <= 1, x <= 1, y <= 1: all of the budget goes to
    # y. The caps never bind.
    value, x = solved(
        [-1, -3], le=[([1, 1], 1), ([1, 0], 1), ([0, 1], 1)], upper=[5, 5]
    )
    assert value == -3
    assert x == [0, 1]


def test_beale_cycling_example_terminates():
    # Classic degenerate LP that cycles under the naive pivot choice (Beale
    # 1955), in ints: the first row times 100, the second times 50, the costs
    # times 100. Bland's rule must reach z = -5 at (1/25, 0, 1, 0). The caps
    # never bind.
    costs = [-75, 15000, -2, 600]
    le = [
        ([25, -6000, -4, 900], 0),
        ([25, -4500, -1, 150], 0),
        ([0, 0, 1, 0], 1),
    ]
    value, x = solved(costs, le=le, upper=[10] * 4)
    assert value == -5
    assert x == [F(1, 25), 0, 1, 0]


def test_ratio_test_ties_go_to_the_lowest_label(monkeypatch):
    # Beale's LP starts degenerate: x1 enters, and both of the first two
    # rows hold it at 0, so the ratio test ties. Bland's rule sends out the
    # lower label, the first row's slack; ties to the higher label would
    # reach the same optimum by another path (x1 enters on the second row,
    # then x3). Each pivot is recorded once as (entering column, pivot row).
    pivots = []
    eliminate = simplex._eliminate

    def recording(row, pivot_row, column, det, previous):
        pivot = (column, tuple(pivot_row))
        if not pivots or pivots[-1] != pivot:
            pivots.append(pivot)
        return eliminate(row, pivot_row, column, det, previous)

    monkeypatch.setattr(simplex, "_eliminate", recording)
    costs = [-75, 15000, -2, 600]
    le = [
        ([25, -6000, -4, 900], 0),
        ([25, -4500, -1, 150], 0),
        ([0, 0, 1, 0], 1),
    ]
    assert solved(costs, le=le, upper=[10] * 4) == (-5, [F(1, 25), 0, 1, 0])
    assert pivots == [
        (0, (25, -6000, -4, 900, 0)),
        (1, (-25, 37500, 75, -18750, 0)),
        (2, (-4500, 6000, 12000, -3150000, 0)),
        (3, (1, -4, -75, 300, 0)),
        (2, (-150, 900, 18750, -3150000, 300)),
        (0, (25, -25, 75, -37500, 75)),
    ]


def test_eliminate_is_the_plain_step():
    # Seeded rows through one step, for det and previous in {1, 2, 3} and
    # factors -2..2, against (det * entry - factor * p) // previous: the
    # unit step (det = previous = 1) and its factors of 1 and -1 included.
    # Entries off the pivot column are multiples of previous, so the
    # division is exact, as in the kernel.
    rng = random.Random(31)
    for det in (1, 2, 3):
        for previous in (1, 2, 3):
            for factor in range(-2, 3):
                for _ in range(20):
                    pivot = rng.randrange(6)
                    row = [previous * rng.randint(-9, 9) for _ in range(6)]
                    pivot_row = [previous * rng.randint(-9, 9) for _ in range(6)]
                    row[pivot], pivot_row[pivot] = factor, det
                    expected = [(det * a - factor * p) // previous for a, p in zip(row, pivot_row)]
                    assert simplex._eliminate(row, pivot_row, pivot, det, previous) == expected
                    assert expected[pivot] == 0


def test_negative_rhs_is_rejected():
    # x = 0 is infeasible, so the slack basis cannot start the single phase.
    with pytest.raises(ValueError, match=r"le\[1\]: negative right-hand side"):
        solve_min([1], le=[([1], 2), ([-1], -1)], upper=[5])


def test_bound_flip_without_a_pivot(monkeypatch):
    # min -x - y  s.t.  x + y <= 10, x <= 2, y <= 3: each variable reaches
    # its own cap before the row binds, so the optimum takes two bound
    # flips and no pivot.
    pivots = []
    eliminate = simplex._eliminate

    def recording(*args):
        pivots.append(args)
        return eliminate(*args)

    monkeypatch.setattr(simplex, "_eliminate", recording)
    value, x = solved([-1, -1], le=[([1, 1], 10)], upper=[2, 3])
    assert value == -5
    assert x == [2, 3]
    assert pivots == []


def test_basic_variable_leaves_at_its_bound():
    # min -2x - y  s.t.  x - y <= 1, x + y <= 10, x <= 3. Bland enters x,
    # which becomes basic on the first row (x = 1 + y); y enters next and
    # lifts x to its cap at y = 2, so x leaves the basis at its cap. The
    # optimum is (3, 7); with caps that never bind it is (11/2, 9/2).
    le = [([1, -1], 1), ([1, 1], 10)]
    assert solved([-2, -1], le=le, upper=[3, 10]) == (-13, [3, 7])
    assert solved([-2, -1], le=le, upper=[10, 10]) == (F(-31, 2), [F(11, 2), F(9, 2)])


def test_zero_bound_fixes_the_variable():
    value, x = solved([-1, -1], le=[([1, 1], 4)], upper=[0, 10])
    assert (value, x) == (-4, [0, 4])


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError, match=r"upper\[1\]: negative bound"):
        solve_min([1, 1], le=[], upper=[1, -1])
    with pytest.raises(ValueError, match="expected 2 upper bounds"):
        solve_min([1, 1], le=[], upper=[1])


@pytest.mark.parametrize("position", ["costs", "then", "coefficient", "rhs", "cap"])
def test_a_fraction_anywhere_is_a_type_error(position):
    # Ints only: a Fraction, even an integral one, never reaches the exact
    # // of `_eliminate`, which would floor it.
    problem = {"costs": [-1, -1], "then": [1, 1], "coefficient": 1, "rhs": 3, "cap": 2}
    problem[position] = (
        [F(-1), -1] if position == "costs" else [1, F(1, 2)] if position == "then" else F(1, 2)
    )
    with pytest.raises(TypeError):
        solve_min(
            problem["costs"],
            le=[([problem["coefficient"], 1], problem["rhs"])],
            upper=[problem["cap"], 2],
            then=problem["then"],
        )


def test_cross_check_against_scipy():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(20240817)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        costs = [rng.randint(-5, 5) for _ in range(nvars)]
        le = [
            ([rng.randint(-2, 4) for _ in range(nvars)], rng.choice((0, rng.randint(1, 6))))
            for _ in range(nrows)
        ]
        le += [([int(k == j) for k in range(nvars)], rng.randint(0, 8)) for j in range(nvars)]
        result = scipy_optimize.linprog(
            c=costs,
            A_ub=[row for row, _ in le],
            b_ub=[b for _, b in le],
            bounds=[(0, None)] * nvars,
            method="highs",
        )
        assert result.success
        # The unit rows hold every variable at 8 or less, so the caps never bind.
        value, x = solved(costs, le=le, upper=[9] * nvars)
        assert abs(float(value) - result.fun) <= 1e-8 * (1 + abs(result.fun))
        assert all(xi >= 0 for xi in x)
        assert all(sum(a * xi for a, xi in zip(row, x)) <= b for row, b in le)
        assert sum(c * xi for c, xi in zip(costs, x)) == value


def int_shapes(seed=20240817, count=60):
    """Seeded int LPs with a cap on every variable, as (costs, le, upper):
    mixed-sign rows, rhs and caps that are often 0, so vertices are often
    degenerate."""
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 4)
        nrows = rng.randint(1, 3)
        costs = [rng.randint(-5, 5) for _ in range(nvars)]
        le = [
            ([rng.randint(-2, 4) for _ in range(nvars)], rng.choice((0, rng.randint(1, 6))))
            for _ in range(nrows)
        ]
        upper = [rng.choice((0, rng.randint(1, 8), rng.randint(1, 8))) for _ in range(nvars)]
        yield costs, le, upper


def test_bounds_match_cap_rows_and_scipy():
    # The caps as implicit bounds, as explicit unit rows (under caps that
    # never bind) and as scipy bounds must agree.
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for costs, le, upper in int_shapes():
        nvars = len(costs)
        cap_rows = [([int(k == j) for k in range(nvars)], u) for j, u in enumerate(upper)]
        result = scipy_optimize.linprog(
            c=costs,
            A_ub=[row for row, _ in le],
            b_ub=[b for _, b in le],
            bounds=[(0, u) for u in upper],
            method="highs",
        )
        assert result.success
        value, x = solved(costs, le=le, upper=upper)
        assert abs(float(value) - result.fun) <= 1e-8 * (1 + abs(result.fun))
        assert all(0 <= xi <= u for xi, u in zip(x, upper))
        assert all(sum(a * xi for a, xi in zip(row, x)) <= b for row, b in le)
        assert sum(c * xi for c, xi in zip(costs, x)) == value
        assert solved(costs, le=le + cap_rows, upper=[9] * nvars)[0] == value


def test_integer_contract_beyond_unit_determinants():
    # The seeded shapes, with and without a second objective, end at
    # determinants other than 1, where a numerator read as a value would be
    # off by that factor.
    rng = random.Random(12)
    determinants = set()
    for costs, le, upper in int_shapes():
        for then in (None, [rng.randint(-5, 5) for _ in costs]):
            answer = solve_min(costs, le=le, upper=upper, then=then)
            in_fractions(costs, upper, answer)
            determinants.add(answer[0])
    assert max(determinants) > 1


def test_second_objective_picks_an_endpoint_of_the_optimal_edge():
    # min -x - y  s.t.  x + y <= 1, x, y <= 1: the optimum is the edge from
    # (1, 0) to (0, 1), and Bland's rule alone stops at (1, 0). The second
    # objective picks the endpoint where it is smaller, and the slack, whose
    # reduced cost in the first objective is nonzero, never enters.
    le = [([1, 1], 1)]
    assert solved([-1, -1], le=le, upper=[1, 1]) == (-1, [1, 0])
    for then, endpoint in (([2, 1], [0, 1]), ([1, 2], [1, 0])):
        assert solved([-1, -1], le=le, upper=[1, 1], then=then) == (-1, endpoint)
    with pytest.raises(ValueError, match="expected 2 costs in then"):
        solve_min([-1, -1], le=le, upper=[1, 1], then=[1])


def test_second_objective_matches_two_stage_scipy():
    # The shapes of test_bounds_match_cap_rows_and_scipy with about half of
    # the first costs zeroed, so that the first optimum is often a face, not
    # a vertex, and a second objective. scipy solves the two stages apart:
    # the first as it is, the second with the first objective held at its
    # optimum by one more row.
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(7)
    moved = 0
    for costs, le, upper in int_shapes():
        costs = [c if rng.random() < 0.5 else 0 for c in costs]
        then = [rng.randint(-5, 5) for _ in costs]
        a_ub = [row for row, _ in le]
        b_ub = [b for _, b in le]
        bounds = [(0, u) for u in upper]
        first = scipy_optimize.linprog(c=costs, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert first.success
        second = scipy_optimize.linprog(
            c=then,
            A_ub=a_ub + [costs],
            b_ub=b_ub + [first.fun + 1e-9 * (1 + abs(first.fun))],
            bounds=bounds,
            method="highs",
        )
        assert second.success
        value, x = solved(costs, le=le, upper=upper, then=then)
        first_only = solved(costs, le=le, upper=upper)
        assert value == first_only[0]
        moved += sum(c * a for c, a in zip(then, first_only[1])) != sum(
            c * xi for c, xi in zip(then, x)
        )
        assert sum(c * xi for c, xi in zip(costs, x)) == value
        assert all(0 <= xi <= u for xi, u in zip(x, upper))
        assert all(sum(a * xi for a, xi in zip(row, x)) <= b for row, b in le)
        assert abs(float(sum(c * xi for c, xi in zip(then, x))) - second.fun) <= 1e-7 * (
            1 + abs(second.fun)
        )
    # The second stage changed the answer on some shapes, so it was tested.
    assert moved >= 5


def test_matches_the_rational_solver_it_narrowed():
    # On seeded int LPs with caps, with and without a second objective, the
    # int solver returns exactly the value and x of the general rational
    # one. Half of the LPs have 0/1 packing rows, as the CEF LPs do.
    rng = random.Random(11)
    for _ in range(300):
        nvars, nrows = rng.randint(1, 7), rng.randint(0, 6)
        packing = rng.random() < 0.5
        costs = [rng.randint(-6, 6) for _ in range(nvars)]
        le = [
            (
                [rng.randint(0, 1) if packing else rng.randint(-3, 5) for _ in range(nvars)],
                rng.choice((0, rng.randint(1, 20))),
            )
            for _ in range(nrows)
        ]
        upper = [rng.choice((0, rng.randint(1, 12), rng.randint(1, 12))) for _ in range(nvars)]
        for then in (None, [rng.randint(-6, 6) for _ in range(nvars)]):
            assert solved(costs, le=le, upper=upper, then=then) == solve_min_by_fractions(
                costs, le=le, upper=upper, then=then
            )


def test_same_pivots_as_the_kernel_that_rewrote_every_row(monkeypatch):
    # Beyond the acceptance sizes: LPs over the CEF rows of winners of 16 to
    # 24 members with 1 or 2 rivals each (up to 48 rows), with unit and
    # random weights, alone and with a second objective. `solve_min`, which
    # leaves a row with 0 in the entering column as it is, returns the
    # (det, value, x) of the kernel that rewrote every row, by the same
    # pivots: each recorded once through `_eliminate`, as (entering column,
    # pivot row, new det, previous det). `rival_family` rooms are positive
    # and seldom equal, so its ratio tests do not tie; in `prime_family` with
    # ties, about a third of the rivals tie the winner (one of which may win
    # the tie and so have the smaller winner), and their rows of room 0 tie
    # at ratio 0, where Bland's rule picks the lowest label. The reference
    # steps with its own `plain_eliminate`, so it shares no shortcut of
    # `simplex._eliminate`.
    pivots = {"new": [], "old": []}
    calls = dict.fromkeys(pivots, 0)

    def recorder(kernel, eliminate):
        def recording(row, pivot_row, column, det, previous):
            pivot = (column, tuple(pivot_row), det, previous)
            if not pivots[kernel] or pivots[kernel][-1] != pivot:
                pivots[kernel].append(pivot)
            calls[kernel] += 1
            return eliminate(row, pivot_row, column, det, previous)

        return recording

    monkeypatch.setattr(simplex, "_eliminate", recorder("new", simplex._eliminate))
    monkeypatch.setattr(helpers, "plain_eliminate", recorder("old", helpers.plain_eliminate))
    rng = random.Random(26)
    pivoted = 0
    for members, rivals in [(16, 1), (20, 1), (24, 1), (16, 2), (20, 2), (24, 2)]:
        for instance in (
            rival_family(rng, members, rivals_per_member=rivals),
            rival_family(rng, members, rivals_per_member=rivals),
            prime_family(rng, members, members * rivals, ties=True),
        ):
            polytope = build_polytope(instance)
            rows = surplus_rows(polytope)
            caps = [instance._units[k] for k in polytope.members]
            n = len(caps)
            for costs in ([-1] * n, [-rng.randint(1, 9) for _ in range(n)]):
                for then in (None, [1] * n, [rng.randint(-3, 3) for _ in range(n)]):
                    pivots["new"].clear()
                    pivots["old"].clear()
                    answer = solve_min(costs, le=rows, upper=caps, then=then)
                    assert answer == solve_min_by_every_row(costs, le=rows, upper=caps, then=then)
                    assert pivots["new"] == pivots["old"]
                    pivoted += bool(pivots["new"])
    # Nearly all of the 108 LPs pivot, and rows with 0 in the entering
    # column were left alone.
    assert pivoted >= 100
    assert calls["new"] < calls["old"]

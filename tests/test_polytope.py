"""Envy-free polytope, equilibrium certificates, frontier sampling, revenue range."""

from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import string
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coopetition
from coopetition import (
    AuctionInstance,
    build_polytope,
    canonical_bids,
    is_cef,
    is_equilibrium,
    is_ir,
    revenue_lower_bound,
    revenue_range,
    sample_pareto_equilibrium,
    vcg,
)
from coopetition import polytope as polytope_module
from coopetition.model import InstanceError, exact_sum
from coopetition.polytope import (
    CefConstraint,
    CefPolytope,
    EquilibriumResult,
    surplus_rows,
)
from helpers import (
    F,
    ab_e,
    four_ones,
    hundreds,
    make_instance,
    prime_family,
    random_instance,
    rival_family,
    rows_by_sums,
    single_ad,
    solve_min_by_fractions,
    surplus_rows_by_sums,
    triangle,
)


@st.composite
def instances(draw, max_n: int) -> AuctionInstance:
    """Instances with at most 6 ads (plus one covering anyone left out) that
    shrink toward fewer advertisers, fewer ads and small, often tied values
    (where vertices are degenerate)."""
    n = draw(st.integers(1, max_n))
    names = string.ascii_uppercase[:n]
    values = draw(
        st.lists(
            st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3))),
            min_size=n,
            max_size=n,
        )
    )
    everyone = (1 << n) - 1
    masks = draw(st.lists(st.integers(1, everyone), min_size=1, max_size=6, unique=True))
    uncovered = everyone
    for mask in masks:
        uncovered &= ~mask
    if uncovered:
        masks.append(uncovered)
    ads = [[names[i] for i in range(n) if mask >> i & 1] for mask in masks]
    return AuctionInstance.build(dict(zip(names, values)), ads)


def combinations_to_solve(polytope) -> int:
    """The d-subsets of the distinct rows a vertex can be tight on, d the
    number of members: the envy-free rows with rhs other than 0 (a row with
    rhs 0 is tight only where all its bidders bid 0) and each member's
    bounds, 0 and its value."""
    members, values = polytope.members, polytope.instance.values
    rows = {(c.bidders, rhs) for c in polytope.constraints if (rhs := polytope.rhs(c)) != 0}
    rows |= {(frozenset([k]), bound) for k in members for bound in (F(0), values[k])}
    return math.comb(len(rows), len(members))


def small_polytopes(seed: int, count: int, make=random_instance):
    """The first `count` polytopes of make(rng), rng seeded with `seed`, that
    need at most 5000 vertex combinations; by default the acceptance family
    (n <= 8, m <= 6)."""
    rng = random.Random(seed)
    checked = 0
    while checked < count:
        polytope = build_polytope(make(rng))
        if combinations_to_solve(polytope) > 5000:
            continue
        yield polytope
        checked += 1


def _integer_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    work = [list(row) for row in matrix]
    size, sign, previous = len(work), 1, 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        for r in range(col + 1, size):
            work[r] = [
                (work[col][col] * work[r][k] - work[r][col] * work[col][k]) // previous
                for k in range(size)
            ]
        previous = work[col][col]
    return sign * work[-1][-1]


def bruteforce_vertices(polytope, determinants: set[int] | None = None):
    """Polytope vertices by Cramer's rule on every d-subset of the rows that
    define the polytope, kept when `is_ir` and `is_cef` accept them.

    Independent of the LPs: every envy-free row is a candidate (rhs 0 too),
    the rows are rebuilt from the rival ads (`rows_by_sums`) with the bounds
    added here, the square systems are solved by integer determinants, and
    membership is the IR and CEF tests. The magnitude of each non-singular
    system's determinant is added to `determinants` when it is given.
    """
    members = polytope.members
    values = polytope.instance.values
    d = len(members)
    rows = {
        (tuple(int(k in bidders) for k in members), rhs) for bidders, rhs in rows_by_sums(polytope)
    }
    for p, member in enumerate(members):
        unit = tuple(int(q == p) for q in range(d))
        rows |= {(unit, F(0)), (unit, values[member])}
    found = set()
    for chosen in itertools.combinations(sorted(rows), d):
        matrix = [list(a) for a, _ in chosen]
        det = _integer_det(matrix)
        if det == 0:
            continue
        if determinants is not None:
            determinants.add(abs(det))
        scale = math.lcm(*(rhs.denominator for _, rhs in chosen))
        rhs = [int(b * scale) for _, b in chosen]
        point = tuple(
            F(_integer_det([row[:j] + [b] + row[j + 1 :] for row, b in zip(matrix, rhs)]), det * scale)
            for j in range(d)
        )
        bids = list(values)
        for member, bid in zip(members, point):
            bids[member] = bid
        if is_ir(polytope.instance, bids) and is_cef(polytope, bids):
            found.add(point)
    return sorted(found)


def pairwise_rows() -> AuctionInstance:
    """Three winning members worth 4 against three rivals worth 6, each
    lacking two of them: the envy-free rows A+B, B+C, A+C >= 6."""
    return make_instance(
        {"A": 4, "B": 4, "C": 4, "X": 6, "Y": 6, "Z": 6},
        [["A", "B", "C"], ["C", "X"], ["A", "Y"], ["B", "Z"]],
    )


def recorded_lps(monkeypatch, polytope):
    """Record each LP `polytope_module` solves for `polytope` as (staged, det,
    revenue): whether it had a second objective, its final determinant and
    the winner revenue its surpluses give."""
    instance, members = polytope.instance, polytope.members
    total = sum(instance._units[k] for k in members)
    calls = []
    solve = polytope_module.solve_min

    def recorded(costs, le, upper, then=None):
        det, value, surplus = solve(costs, le=le, upper=upper, then=then)
        revenue = F(total * det - sum(surplus), det * instance._scale)
        calls.append((then is not None, det, revenue))
        return det, value, surplus

    monkeypatch.setattr(polytope_module, "solve_min", recorded)
    return calls


def bruteforce_max_revenue(polytope, determinants: set[int] | None = None):
    """Largest member-bid total over the vertices of `bruteforce_vertices`
    (Cramer's rule on each subset of rows) that pass `is_equilibrium`;
    `determinants` is passed through."""
    members = polytope.members
    revenues = []
    for vertex in bruteforce_vertices(polytope, determinants):
        bids = list(polytope.instance.values)
        for member, bid in zip(members, vertex):
            bids[member] = bid
        if is_equilibrium(polytope, tuple(bids)).ok:
            revenues.append(sum(vertex, F(0)))
    return max(revenues)


# Values over the primes 7-19, so that the exact LPs scale every rhs by a
# large lcm (up to 7*11*13*17*19 and beyond).
PRIME_DENOMINATOR_VALUES = [F(k, p) for p in (7, 11, 13, 17, 19) for k in range(1, 80)]


def prime_rival_family(rng: random.Random) -> AuctionInstance:
    """A winner of 3-5 advertisers (ad 0) against two more rival ads than it
    has members, each sharing 1 to all but one of its members plus an
    outsider worth less than the part it lacks. Values have prime
    denominators, and the overlapping rival rows give square subsystems with
    determinants other than +-1."""
    members = rng.randint(3, 5)
    winner = [f"W{i}" for i in range(members)]
    values = {name: rng.choice(PRIME_DENOMINATOR_VALUES) for name in winner}
    ads = [winner]
    for r in range(members + 2):
        shared = rng.sample(winner, rng.randint(1, members - 1))
        lacking = sum((values[name] for name in winner if name not in shared), F(0))
        values[f"R{r}"] = lacking * rng.choice(PRIME_DENOMINATOR_VALUES) / 80
        ads.append(shared + [f"R{r}"])
    return AuctionInstance.build(values, ads)


# (low, high) on the 20 instances of random_instance(random.Random(0),
# max_n=16, max_m=12), from the depth-first vertex walk that the cover search
# replaced, run with its combination budget lifted; None where it ran past
# 600 s. The walk refused 11 of them at its budget.
CLIFF_RANGES = [
    (F("133/40"), F("11/2")), (F("0"), F("0")), (F("5"), F("5")), (F("0"), F("0")),
    (F("41/4"), F("83/8")), (F("28/5"), F("28/5")), (F("0"), F("0")), (F("4"), F("37/5")), None,
    (F("0"), F("0")), (F("0"), F("0")), (F("0"), F("0")), (F("0"), F("0")), (F("0"), F("0")),
    (F("34"), F("139/4")), (F("0"), F("0")), (F("0"), F("0")), (F("0"), F("0")),
    (F("12/5"), F("18/5")), (F("5/2"), F("5/2")),
]


def milp_max_revenue(polytope) -> float:
    """The revenue maximum as a scipy MILP in bid coordinates, independent of
    the cover search: binary t_r marks a tight row with rhs > 0 (its slack is
    at most room_r * (1 - t_r)), and a member bids at most its value times
    the number of marked rows it is a bidder of. The rows are rebuilt from
    the rival ads (`rows_by_sums`)."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    members = polytope.members
    values = [float(polytope.instance.values[k]) for k in members]
    envy_free = rows_by_sums(polytope)
    positive = [(bidders, rhs) for bidders, rhs in envy_free if rhs > 0]
    d, width = len(members), len(members) + len(positive)
    rows, low, high = [], [], []
    for bidders, rhs in envy_free:
        rows.append([float(k in bidders) for k in members] + [0.0] * len(positive))
        low.append(float(rhs))
        high.append(float("inf"))
    for r, (bidders, rhs) in enumerate(positive):
        room = sum(values[p] for p, k in enumerate(members) if k in bidders) - float(rhs)
        rows.append([float(k in bidders) for k in members] + [0.0] * len(positive))
        rows[-1][d + r] = room
        low.append(-float("inf"))
        high.append(float(rhs) + room)
    for p, k in enumerate(members):
        rows.append([0.0] * width)
        rows[-1][p] = 1.0
        for r, (bidders, _) in enumerate(positive):
            rows[-1][d + r] = -values[p] if k in bidders else 0.0
        low.append(-float("inf"))
        high.append(0.0)
    result = scipy_optimize.milp(
        c=[-1.0] * d + [0.0] * len(positive),
        constraints=scipy_optimize.LinearConstraint(rows, low, high),
        integrality=[0] * d + [1] * len(positive),
        bounds=scipy_optimize.Bounds([0.0] * width, values + [1.0] * len(positive)),
    )
    assert result.success
    return -result.fun


def tri_bids(a, b, c):
    # Losers D and E stay at their values.
    return (F(a), F(b), F(c), F(1), F(1))


class TestBuildPolytope:
    def test_triangle_rows(self):
        polytope = build_polytope(triangle())
        rows = [(c.ad, c.bidders, c.room, polytope.rhs(c)) for c in polytope.constraints]
        assert rows == [(1, {1, 2}, 1, F(1)), (2, {0, 2}, 1, F(1))]
        assert polytope.members == (0, 1, 2)

    def test_members_are_sorted_once_and_stay_out_of_the_record(self):
        # The sorted members are kept from the first read; the record's
        # equality, hash, repr and pickle see only its three fields, read or
        # not, and a polytope built by hand sorts its members alike.
        built = build_polytope(rival_family(random.Random(4), 12))
        by_hand = CefPolytope(built.instance, built.winner, built.constraints)
        unread = (repr(by_hand), hash(by_hand), pickle.dumps(by_hand))
        assert built.members is built.members
        assert built.members == tuple(sorted(built.instance.members(built.winner)))
        assert by_hand.members == built.members and by_hand == built
        assert (repr(by_hand), hash(by_hand), pickle.dumps(by_hand)) == unread
        clone = pickle.loads(pickle.dumps(built))
        assert clone == built and clone.members == built.members

    def test_two_ad_row(self):
        polytope = build_polytope(ab_e())
        rows = [(c.ad, c.bidders, c.room, polytope.rhs(c)) for c in polytope.constraints]
        assert rows == [(1, {0, 1}, 1, F(3))]

    def test_single_ad_has_no_rows(self):
        assert build_polytope(single_ad()).constraints == ()

    def test_covering_rival_contributes_nothing(self):
        # {A, B} strictly contains the winner {A}; with v_B = 0 the row is
        # vacuous and dropped.
        instance = make_instance({"A": 2, "B": 0}, [["A"], ["A", "B"]])
        assert build_polytope(instance).constraints == ()

    def test_covering_rival_of_a_wrong_winner_raises_under_optimization(self):
        # The invariant is checked by an explicit raise, so `python -O`,
        # which strips asserts, still reports it.
        probe = (
            "from coopetition import AuctionInstance, polytope\n"
            "instance = AuctionInstance.build({'A': 1, 'B': 1}, [['A'], ['A', 'B']])\n"
            "polytope.efficient_winner = lambda instance: 0\n"
            "try:\n"
            "    polytope.build_polytope(instance)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(coopetition.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "an ad covering the winner cannot out-value it"


class TestCanonicalBids:
    def test_losers_reset_to_values(self):
        polytope = build_polytope(triangle())
        bids = (F(1), F(1), F(0), F(0), F("0.25"))
        assert canonical_bids(polytope, bids) == tri_bids(1, 1, 0)


class TestIrAndCef:
    def test_ir_bounds(self):
        instance = triangle()
        assert is_ir(instance, tri_bids(1, 1, 0))
        assert not is_ir(instance, tri_bids("1.5", 0, 0))
        assert not is_ir(instance, tri_bids(0, -1, 0))

    def test_cef_triangle(self):
        polytope = build_polytope(triangle())
        assert is_cef(polytope, tri_bids("0.6", "0.6", "0.6"))
        # A + C = 0 is below rival ad 2's outside value 1.
        assert not is_cef(polytope, tri_bids(0, 1, 0))

    def test_cef_ignores_loser_bids(self):
        polytope = build_polytope(ab_e())
        assert is_cef(polytope, (F(2), F(1), F(0)))
        assert not is_cef(polytope, (F(1), F(1), F(3)))


class TestIsEquilibrium:
    def test_certificate_names_tying_rivals(self):
        polytope = build_polytope(triangle())
        verdict = is_equilibrium(polytope, tri_bids(1, 1, 0))
        assert verdict.ok
        assert verdict.witnesses == {0: 2, 1: 1, 2: None}

    def test_certificate_hashes_and_keeps_its_own_witnesses(self):
        verdict = is_equilibrium(build_polytope(triangle()), tri_bids(1, 1, 0))
        assert hash(verdict) == hash(is_equilibrium(build_polytope(triangle()), tri_bids(1, 1, 0)))
        source = {0: 2, 1: 1, 2: None}
        built = EquilibriumResult(witnesses=source)
        assert hash(built) == hash(verdict) and built == verdict
        source[0] = 1
        del source[2]
        assert built.witnesses == {0: 2, 1: 1, 2: None}
        with pytest.raises(TypeError, match="read-only"):
            built.witnesses[0] = 1
        with pytest.raises(TypeError, match="read-only"):
            built.witnesses.update({0: 1})
        assert built.witnesses == {0: 2, 1: 1, 2: None}

    def test_witnesses_are_the_first_tight_rows_lacking_each_member(self):
        # The member-set lookups against the tuple scan over tight rows, on
        # egalitarian profiles and on profiles with one member bid raised
        # (unpinning it or breaking IR) or lowered (breaking CEF).
        rng = random.Random(4411)
        kinds = set()
        for case in range(90):
            members = 4 + case % 13
            if case % 2:
                instance = prime_family(rng, members, 2 * members)
            else:
                instance = rival_family(rng, members, rivals_per_member=2)
            polytope = build_polytope(instance)
            bids = list(coopetition.egalitarian_solve(instance)[0])
            k = rng.choice(polytope.members)
            bids[k] += rng.choice((F(0), F(1, 7), F(-1, 3), instance.values[k]))
            verdict = is_equilibrium(polytope, bids)
            if not is_ir(instance, bids) or not is_cef(polytope, bids):
                assert not verdict.ok and verdict.failure.startswith("not ")
                kinds.add("not IR or not CEF")
                continue
            tight = [
                (c.ad, bidders)
                for c, (bidders, rhs) in zip(polytope.constraints, rows_by_sums(polytope))
                if exact_sum(bids[i] for i in bidders) == rhs
            ]
            expected = {
                k: None if bids[k] == 0 else next((ad for ad, b in tight if k in b), None)
                for k in polytope.members
            }
            unpinned = [k for k, ad in expected.items() if ad is None and bids[k] != 0]
            if unpinned:
                assert not verdict.ok
                assert verdict.failure.startswith(f"{instance.names[unpinned[0]]!r} bids ")
                kinds.add("unpinned")
            else:
                assert verdict.ok and verdict.witnesses == expected
                kinds.add("equilibrium")
        assert kinds == {"not IR or not CEF", "unpinned", "equilibrium"}

    def test_family_midpoint(self):
        polytope = build_polytope(triangle())
        assert is_equilibrium(polytope, tri_bids("0.5", "0.5", "0.5")).ok

    def test_cef_point_with_an_unpinned_bidder_is_rejected(self):
        polytope = build_polytope(triangle())
        verdict = is_equilibrium(polytope, tri_bids(1, 0, 1))
        assert not verdict.ok
        assert "'A'" in verdict.failure and "lowering" in verdict.failure

    def test_interior_point_is_rejected(self):
        polytope = build_polytope(triangle())
        verdict = is_equilibrium(polytope, tri_bids("0.6", "0.6", "0.6"))
        assert not verdict.ok

    def test_ir_failure_names_the_violator(self):
        polytope = build_polytope(triangle())
        verdict = is_equilibrium(polytope, tri_bids(2, 0, 1))
        assert not verdict.ok
        assert verdict.failure.startswith("not IR: 'A'")

    def test_cef_failure_names_the_rival(self):
        polytope = build_polytope(triangle())
        verdict = is_equilibrium(polytope, tri_bids(0, 1, 0))
        assert not verdict.ok
        assert verdict.failure.startswith("not CEF")

    def test_hundreds_segment(self):
        polytope = build_polytope(hundreds())
        for x in (F(0), F(10), F("49.5"), F(99)):
            assert is_equilibrium(polytope, (x, 99 - x, F(99))).ok
        assert not is_equilibrium(polytope, (F(50), F(50), F(99))).ok

    def test_non_member_bids_are_canonicalized_before_checking(self):
        polytope = build_polytope(triangle())
        # Loser bids in the input are irrelevant; they are reset to values.
        assert is_equilibrium(polytope, (F(1), F(1), F(0), F(0), F(0))).ok

    def test_cef_failure_text_is_exact(self):
        polytope = build_polytope(make_instance({"A": "1/3", "B": 1, "E": 1}, [["A", "B"], ["E"]]))
        verdict = is_equilibrium(polytope, (F(1, 7), F(2, 3), F(1)))
        assert verdict.failure == (
            "not CEF: against ad 1 {E} the uncovered members bid 17/21, below the outside value 1"
        )

    @staticmethod
    def hand_built(room):
        """The one row of {A: 1/3, B: 1, E: 1} with ads [[A, B], [E]] (room
        1, bid-form rhs 1), rebuilt by hand with another room."""
        instance = make_instance({"A": "1/3", "B": 1, "E": 1}, [["A", "B"], ["E"]])
        built = build_polytope(instance)
        (row,) = built.constraints
        return CefPolytope(instance, built.winner, (CefConstraint(row.ad, row.bidders, room),))

    def test_rows_are_read_from_the_polytope_record(self):
        # A polytope built by hand is checked against the rows it holds, and
        # the failure quotes the bid-form rhs its room gives: the bidders'
        # value 4/3 less room 2 is 2/3, less room 0 is 4/3.
        lower, higher = self.hand_built(2), self.hand_built(0)
        built = build_polytope(lower.instance)
        assert [p.rhs(row) for p in (lower, higher) for row in p.constraints] == [F(2, 3), F(4, 3)]
        bids = (F(1, 7), F(2, 3), F(1))
        assert not is_cef(built, bids)
        assert is_cef(lower, bids)
        assert is_equilibrium(higher, (F(1, 3), F(5, 6), F(1))).failure == (
            "not CEF: against ad 1 {E} the uncovered members bid 7/6, below the outside value 4/3"
        )

    @pytest.mark.parametrize(
        "room, bids, revenue",
        [(2, (F(0), F(2, 3), F(1)), F(2, 3)), (0, (F(1, 3), F(1), F(1)), F(4, 3))],
    )
    def test_lps_read_the_rows_the_checks_read(self, room, bids, revenue):
        # The LPs pose the hand-built row too, so their optima pass the
        # checks that read it.
        polytope = self.hand_built(room)
        assert sample_pareto_equilibrium(polytope, [F(1), F(1)]) == bids
        assert is_equilibrium(polytope, bids).ok
        assert revenue_range(polytope) == (revenue, revenue)

    def test_row_slacks_in_units_are_the_fraction_slacks(self):
        # Member bids over denominators the instance's scale lacks, some
        # past 64 bits, some negative or above the value.
        rng = random.Random(1819)
        for case in range(80):
            members = 3 + case % 8
            if case % 2:
                instance = prime_family(rng, members, 2 * members)
            else:
                instance = rival_family(rng, members, rivals_per_member=2)
            polytope = build_polytope(instance)
            bids = list(instance.values)
            for k in polytope.members:
                bids[k] *= F(rng.randint(-1, 12), rng.choice((1, 3, 7, 10, 10**20 + 1)))
            scale, _, slacks = polytope_module._row_slacks(polytope, tuple(bids))
            assert scale % instance._scale == 0
            expected = [
                exact_sum(bids[i] for i in bidders) - rhs for bidders, rhs in rows_by_sums(polytope)
            ]
            assert [F(slack, scale) for slack in slacks] == expected
            assert is_cef(polytope, bids) == all(x >= 0 for x in expected)


class TestSamplePareto:
    def test_weights_steer_the_frontier(self):
        polytope = build_polytope(triangle())
        assert sample_pareto_equilibrium(polytope, (F(1), F(1), F(3))) == tri_bids(1, 1, 0)
        assert sample_pareto_equilibrium(polytope, (F(3), F(3), F(1))) == tri_bids(0, 0, 1)

    def test_unit_weights_reach_the_revenue_floor(self):
        polytope = build_polytope(ab_e())
        bids = sample_pareto_equilibrium(polytope, (F(1), F(1)))
        assert bids[0] + bids[1] == F(3)
        assert is_equilibrium(polytope, bids).ok

    def test_weight_validation(self):
        polytope = build_polytope(ab_e())
        with pytest.raises(ValueError, match="expected 2 weights"):
            sample_pareto_equilibrium(polytope, (F(1),))
        with pytest.raises(ValueError, match="strictly positive"):
            sample_pareto_equilibrium(polytope, (F(1), F(0)))

    def test_weights_past_the_scale_limit_name_the_weight_that_crossed_it(self):
        # 120 weights over distinct 4001-digit denominators against a
        # 120-member winner: the weights are held to the values' and the
        # bids' limit, so their lcm stops at the eleventh. Unchecked, the
        # lcm and the costs over it took seconds.
        names = [f"A{i}" for i in range(120)]
        polytope = build_polytope(make_instance(dict.fromkeys(names + ["R"], 1), [names, ["R"]]))
        weights = [F(1, 10**4000 + 2 * i + 1) for i in range(120)]
        start = time.perf_counter()
        with pytest.raises(InstanceError, match=r"^weights\[10\]: the weights' .* 43000 digits$"):
            sample_pareto_equilibrium(polytope, weights)
        assert time.perf_counter() - start < 1
        assert sample_pareto_equilibrium(polytope, weights[:10] + [F(1)] * 110)[0] == 0

    def test_weighted_optimum_matches_scipy_on_the_bid_form(self):
        # Winners of 12-20 members, then a slice of 24-48, beyond the
        # acceptance suite's n <= 8. The LP runs in surplus coordinates;
        # scipy solves the bid-form rows sum(bids) >= rhs directly, so this
        # also checks the change of coordinates.
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(4)
        sizes = [12 + case % 9 for case in range(40)] + list(range(24, 49, 3))
        for size in sizes:
            polytope = build_polytope(rival_family(rng, size))
            members = polytope.members
            rows = rows_by_sums(polytope)
            caps = [(0.0, float(polytope.instance.values[k])) for k in members]
            random_weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in members]
            for weights in ([F(1)] * len(members), random_weights):
                bids = sample_pareto_equilibrium(polytope, weights)
                exact = float(sum(w * bids[k] for w, k in zip(weights, members)))
                result = scipy_optimize.linprog(
                    c=[float(w) for w in weights],
                    A_ub=[[-1.0 if k in bidders else 0.0 for k in members] for bidders, _ in rows],
                    b_ub=[-float(rhs) for _, rhs in rows],
                    bounds=caps,
                    method="highs",
                )
                assert result.success
                assert abs(exact - result.fun) <= 1e-9 * max(1.0, abs(result.fun))


class TestVertices:
    def test_vertex_behind_a_non_unit_pivot(self):
        # The envy-free rows A+B, B+C, A+C >= 6 meet only at (3, 3, 3), where
        # their square system has determinant 2 and each bid is more than
        # half of its value 4.
        polytope = build_polytope(pairwise_rows())
        assert (F(3), F(3), F(3)) in bruteforce_vertices(polytope)
        assert revenue_range(polytope)[1] == bruteforce_max_revenue(polytope)


class TestRevenueRange:
    @pytest.mark.parametrize(
        "instance, expected",
        [
            (triangle(), (F(1), F(2))),
            (ab_e(), (F(3), F(3))),
            (four_ones(), (F("2.9"), F("2.9"))),
            (single_ad(), (F(0), F(0))),
        ],
    )
    def test_exact_ranges(self, instance, expected):
        assert revenue_range(build_polytope(instance)) == expected

    def test_maximum_matches_bruteforce_on_the_acceptance_family(self):
        for polytope in small_polytopes(0, 100):
            assert revenue_range(polytope)[1] == bruteforce_max_revenue(polytope)

    def test_maximum_matches_bruteforce_with_prime_denominators(self):
        # Record the determinants of the square systems and the lcm of the
        # rows' denominators, so that the test shows it met determinants
        # other than +-1 and large scales.
        determinants: set[int] = set()
        large_scales = 0
        for polytope in itertools.chain(
            small_polytopes(1, 40, partial(random_instance, value_pool=PRIME_DENOMINATOR_VALUES)),
            small_polytopes(2, 40, prime_rival_family),
        ):
            assert revenue_range(polytope)[1] == bruteforce_max_revenue(polytope, determinants)
            values = polytope.instance.values
            scale = math.lcm(
                *(polytope.rhs(c).denominator for c in polytope.constraints),
                *(values[k].denominator for k in polytope.members),
            )
            large_scales += scale >= 7 * 11 * 13
        assert large_scales >= 20
        assert max(determinants) > 1

    @given(instances(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_maximum_matches_bruteforce(self, instance):
        polytope = build_polytope(instance)
        assume(combinations_to_solve(polytope) <= 5000)
        assert revenue_range(polytope)[1] == bruteforce_max_revenue(polytope)

    def test_range_behind_a_non_unit_determinant(self, monkeypatch):
        # The minimum (3, 3, 3) is where the three rows meet, so its LP ends
        # at determinant 2: a revenue read off the numerators alone, or a
        # numerator set against a determinant of 1, would be off by a factor.
        polytope = build_polytope(pairwise_rows())
        calls = recorded_lps(monkeypatch, polytope)
        assert revenue_range(polytope) == (F(9), F(10))
        assert calls[0] == (False, 2, F(9))

    def test_maximum_behind_a_non_unit_determinant(self, monkeypatch):
        # Draw 1167 of `rival_family(random.Random(5), randint(3, 8),
        # rivals_per_member=2)`: the one cover LP that reaches the maximum
        # ends at determinant 2, so a stage-1 test that leaves the
        # determinant out of the reach drops the maximizing cover.
        values = {
            "W0": "21/2", "W1": 11, "W2": 7, "W3": "17/4", "W4": 11, "W5": "26/3",
            "R0": "2629/240", "R1": "3479/240", "R2": "322/15", "R3": "42/5",
            "R4": "247/20", "R5": "131/40", "R6": "175/16", "R7": "629/15",
            "R8": "8177/240", "R9": "927/40", "R10": "131/20", "R11": "171/8",
        }
        ads = [
            ["W0", "W1", "W2", "W3", "W4", "W5"], ["R0", "W0", "W1", "W4"], ["R1", "W1"],
            ["R2", "W0", "W2", "W3"], ["R3", "W1", "W2", "W3", "W4", "W5"], ["R4", "W2", "W3"],
            ["R5", "W4", "W5"], ["R6", "W5"], ["R7"], ["R8"], ["R9", "W1", "W2", "W5"],
            ["R10", "W1", "W5"], ["R11", "W1", "W3", "W5"],
        ]
        polytope = build_polytope(make_instance(values, ads))
        calls = recorded_lps(monkeypatch, polytope)
        high = F(20183, 480)
        assert revenue_range(polytope) == (F(629, 15), high)
        assert {det for staged, det, revenue in calls if staged and revenue == high} == {2}
        assert abs(float(high) - milp_max_revenue(polytope)) <= 1e-6 * float(high)

    def test_maximizer_is_reverified(self, monkeypatch):
        # The triangle's maximum (2) lies above its LP minimum (1), so the
        # maximizing leaf is re-checked with is_equilibrium.
        polytope = build_polytope(triangle())
        check = polytope_module.is_equilibrium

        def reject_the_maximum(polytope, bids):
            if sum(bids[k] for k in polytope.members) == 2:
                return EquilibriumResult(failure="rejected")
            return check(polytope, bids)

        monkeypatch.setattr(polytope_module, "is_equilibrium", reject_the_maximum)
        with pytest.raises(RuntimeError, match="disagree.*rejected"):
            revenue_range(polytope)

    def test_matches_the_vertex_walk_beyond_eight_advertisers(self):
        # Where the walk finished, the range is identical; everywhere, the
        # maximum agrees with an independent MILP. HiGHS holds integrality
        # and feasibility to about 1e-6, which the big-M rooms magnify, so
        # the MILP is trusted to 1e-6 relative (it was off by 5e-8 on an
        # instance where the exact brute force agrees with the cover search).
        rng = random.Random(0)
        for expected in CLIFF_RANGES:
            polytope = build_polytope(random_instance(rng, max_n=16, max_m=12))
            low, high = revenue_range(polytope)
            assert expected is None or (low, high) == expected
            milp = milp_max_revenue(polytope)
            assert abs(float(high) - milp) <= 1e-6 * max(1.0, milp)

    def test_cover_budget_counts_lps(self, monkeypatch):
        # The triangle's positive rows cover {B, C} and {A, C}; the covers
        # are each row alone and both together, three LPs.
        polytope = build_polytope(triangle())
        monkeypatch.setattr(polytope_module, "_COVER_BUDGET", 3)
        assert revenue_range(polytope) == (F(1), F(2))
        monkeypatch.setattr(polytope_module, "_COVER_BUDGET", 2)
        with pytest.raises(RuntimeError, match="2 solved of 2"):
            revenue_range(polytope)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_range_brackets_the_lower_bound(self, seed):
        instance = random_instance(random.Random(seed), max_n=5, max_m=4)
        polytope = build_polytope(instance)
        low, high = revenue_range(polytope)
        assert revenue_lower_bound(instance) <= low <= high
        payments = vcg(instance).payments
        assert sum(payments, F(0)) <= low


def unit_row_polytopes():
    """The acceptance family, the prime-denominator families (`prime_family`
    also at base 2**70) and 200 frontier-style winners of 8-12 members
    facing two rivals each."""
    yield from small_polytopes(0, 100)
    yield from small_polytopes(1, 40, partial(random_instance, value_pool=PRIME_DENOMINATOR_VALUES))
    yield from small_polytopes(2, 40, prime_rival_family)
    rng = random.Random(3)
    for base in (0, 2**70):
        for _ in range(20):
            yield build_polytope(prime_family(rng, rng.randint(3, 8), rng.randint(2, 10), base))
    rng = random.Random(4)
    for _ in range(200):
        yield build_polytope(rival_family(rng, rng.randint(8, 12), rivals_per_member=2))


def test_minimum_is_the_unit_weight_sample():
    # revenue_range and sample_pareto_equilibrium pose the same unit-weight
    # LP, each through its own entry point.
    for polytope in unit_row_polytopes():
        bids = sample_pareto_equilibrium(polytope, [F(1)] * len(polytope.members))
        assert revenue_range(polytope)[0] == sum(bids[k] for k in polytope.members)


class TestRowsInUnits:
    """`surplus_rows` gives each room as an int in the instance's units, and
    the LPs over those rows return the bids of the LPs over Fraction rows."""

    def assert_same_rows_and_bids(self, polytope, rng):
        instance = polytope.instance
        rows, reference = surplus_rows(polytope), surplus_rows_by_sums(polytope)
        assert [coeffs for coeffs, _ in rows] == [coeffs for coeffs, _ in reference]
        assert all(type(room) is int for _, room in rows)
        assert [room for _, room in rows] == [room * instance._scale for _, room in reference]
        members = polytope.members
        values = [instance.values[k] for k in members]
        for weights in (
            [F(1)] * len(members),
            [F(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in members],
        ):
            _, surplus = solve_min_by_fractions([-w for w in weights], le=reference, upper=values)
            bids = list(instance.values)
            for member, y in zip(members, surplus):
                bids[member] -= y
            assert sample_pareto_equilibrium(polytope, weights) == tuple(bids)

    def test_rooms_are_the_fraction_rooms_times_the_scale(self):
        rng = random.Random(5)
        for polytope in unit_row_polytopes():
            self.assert_same_rows_and_bids(polytope, rng)

    @given(instances(max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_rooms_match_on_generated_instances(self, instance, rng):
        self.assert_same_rows_and_bids(build_polytope(instance), rng)

    def test_every_lp_reads_ints(self, monkeypatch):
        # Rows, rhs and caps reach the simplex as ints, in the frontier
        # sample and in both stages of every cover LP.
        calls = []
        solve = polytope_module.solve_min

        def recorded(costs, le=(), upper=None, then=None):
            calls.append((le, upper, then is not None))
            return solve(costs, le=le, upper=upper, then=then)

        monkeypatch.setattr(polytope_module, "solve_min", recorded)
        rng = random.Random(6)
        for polytope in itertools.chain([build_polytope(triangle())], small_polytopes(0, 30)):
            weights = [F(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in polytope.members]
            sample_pareto_equilibrium(polytope, weights)
            revenue_range(polytope)
        assert {staged for _, _, staged in calls} == {False, True}
        for le, upper, _ in calls:
            assert all(type(x) is int for coeffs, rhs in le for x in (*coeffs, rhs))
            assert all(type(cap) is int for cap in upper)

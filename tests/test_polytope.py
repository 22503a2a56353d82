"""Envy-free polytope, equilibrium certificates, frontier sampling, revenue range."""

from __future__ import annotations

import math
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coopetition
from coopetition import (
    AuctionInstance,
    build_polytope,
    canonical_bids,
    enumerate_vertices,
    enumerate_vertices_bruteforce,
    first_cef_violation,
    first_ir_violation,
    is_cef,
    is_equilibrium,
    is_ir,
    revenue_lower_bound,
    revenue_range,
    sample_pareto_equilibrium,
    vcg,
)
from coopetition.polytope import vertex_rows
from helpers import (
    F,
    ab_e,
    four_ones,
    hundreds,
    make_instance,
    random_instance,
    single_ad,
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


def rival_family(rng: random.Random, members: int) -> AuctionInstance:
    """A winner of `members` advertisers (ad 0) against one rival ad per member.

    Each rival shares part of the winner and adds an outsider worth less than
    the part it lacks, so the winner stays strictly efficient.
    """
    winner = [f"W{i}" for i in range(members)]
    values = {name: F(rng.randint(1, 40), rng.choice((1, 2, 3, 4))) for name in winner}
    ads = [winner]
    for r in range(members):
        shared = rng.sample(winner, rng.randint(0, members - 1))
        lacking = sum((values[name] for name in winner if name not in shared), F(0))
        values[f"R{r}"] = lacking * F(rng.randint(1, 19), 20)
        ads.append(shared + [f"R{r}"])
    return AuctionInstance.build(values, ads)


def combinations_to_solve(polytope) -> int:
    return math.comb(len(vertex_rows(polytope)), len(polytope.members))


def tri_bids(a, b, c):
    # Losers D and E stay at their values.
    return (F(a), F(b), F(c), F(1), F(1))


class TestBuildPolytope:
    def test_triangle_rows(self):
        polytope = build_polytope(triangle())
        rows = [(c.ad, c.bidders, c.rhs) for c in polytope.constraints]
        assert rows == [(1, (1, 2), F(1)), (2, (0, 2), F(1))]
        assert polytope.members == (0, 1, 2)

    def test_two_ad_row(self):
        polytope = build_polytope(ab_e())
        rows = [(c.ad, c.bidders, c.rhs) for c in polytope.constraints]
        assert rows == [(1, (0, 1), F(3))]

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
        assert first_ir_violation(instance, tri_bids("1.5", 0, 0)) == 0
        assert first_ir_violation(instance, tri_bids(0, -1, 0)) == 1

    def test_cef_triangle(self):
        polytope = build_polytope(triangle())
        assert is_cef(polytope, tri_bids("0.6", "0.6", "0.6"))
        violated = first_cef_violation(polytope, tri_bids(0, 1, 0))
        assert violated is not None and violated.ad == 2

    def test_cef_ignores_loser_bids(self):
        polytope = build_polytope(ab_e())
        assert is_cef(polytope, (F(2), F(1), F(0)))
        assert not is_cef(polytope, (F(1), F(1), F(3)))


class TestIsEquilibrium:
    def test_certificate_names_tying_rivals(self):
        polytope = build_polytope(triangle())
        verdict = is_equilibrium(polytope, tri_bids(1, 1, 0))
        assert verdict.ok
        assert verdict.certificate.witnesses == {0: 2, 1: 1, 2: None}

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

    def test_weighted_optimum_matches_scipy_on_the_bid_form(self):
        # Winners of 12-20 members, beyond the acceptance suite's n <= 8. The
        # LP runs in surplus coordinates; scipy solves the bid-form rows
        # sum(bids) >= rhs directly, so this also checks the change of
        # coordinates.
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(4)
        for case in range(40):
            polytope = build_polytope(rival_family(rng, 12 + case % 9))
            members = polytope.members
            caps = [(0.0, float(polytope.instance.values[k])) for k in members]
            random_weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in members]
            for weights in ([F(1)] * len(members), random_weights):
                bids = sample_pareto_equilibrium(polytope, weights)
                exact = float(sum(w * bids[k] for w, k in zip(weights, members)))
                result = scipy_optimize.linprog(
                    c=[float(w) for w in weights],
                    A_ub=[
                        [-1.0 if k in c.bidders else 0.0 for k in members]
                        for c in polytope.constraints
                    ],
                    b_ub=[-float(c.rhs) for c in polytope.constraints],
                    bounds=caps,
                    method="highs",
                )
                assert result.success
                assert abs(exact - result.fun) <= 1e-9 * max(1.0, abs(result.fun))


class TestVertices:
    def test_triangle_vertices(self):
        polytope = build_polytope(triangle())
        assert enumerate_vertices(polytope) == [
            (F(0), F(0), F(1)),
            (F(0), F(1), F(1)),
            (F(1), F(0), F(1)),
            (F(1), F(1), F(0)),
            (F(1), F(1), F(1)),
        ]

    def test_budget_guard(self):
        polytope = build_polytope(triangle())
        with pytest.raises(RuntimeError, match="budget"):
            enumerate_vertices(polytope, combination_budget=1)

    def test_matches_bruteforce_on_the_acceptance_family(self):
        rng = random.Random(0)
        checked = 0
        while checked < 100:
            polytope = build_polytope(random_instance(rng, max_n=8, max_m=6))
            if combinations_to_solve(polytope) > 5000:
                continue
            assert enumerate_vertices(polytope) == enumerate_vertices_bruteforce(polytope)
            checked += 1

    @given(instances(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, instance):
        polytope = build_polytope(instance)
        assume(combinations_to_solve(polytope) <= 5000)
        assert enumerate_vertices(polytope) == enumerate_vertices_bruteforce(polytope)


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

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_range_brackets_the_lower_bound(self, seed):
        instance = random_instance(random.Random(seed), max_n=5, max_m=4)
        polytope = build_polytope(instance)
        low, high = revenue_range(polytope)
        assert revenue_lower_bound(instance) <= low <= high
        payments = vcg(instance).payments
        assert sum(payments, F(0)) <= low

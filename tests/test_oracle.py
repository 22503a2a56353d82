"""Brute-force grid oracles: enumeration, lexmax selection, the egalitarian
verdict, VCG breakpoints."""

from __future__ import annotations

import random
import re
from itertools import product

import pytest

from coopetition import (
    AuctionInstance,
    GridBudgetError,
    GridSpec,
    build_polytope,
    egalitarian_solve,
    enumerate_equilibria_grid,
    is_equilibrium,
    lexmax_surplus_grid,
    sample_pareto_equilibrium,
    vcg,
    vcg_bruteforce,
    verify_egalitarian,
)
from helpers import (
    F,
    ab_e,
    bottleneck_failure,
    criterion_7_instances,
    enumerate_equilibria_grid_numpy,
    four_ones,
    hundreds,
    lexmax_surplus_grid_by_scan,
    make_instance,
    random_instance,
    rival_family,
    triangle,
)


def member_bids(instance, profiles, members):
    return sorted(tuple(p[i] for i in members) for p in profiles)


def naive_recount(instance, eps):
    """Every lattice point tested against the definition one at a time, in
    exact Fractions: no rescaling, no running gaps, no cuts."""
    totals = [sum((instance.values[i] for i in ad.members), F(0)) for ad in instance.ads]
    winner = totals.index(max(totals))
    members = sorted(instance.members(winner))
    points = []
    for steps in product(*(range(int(instance.values[i] / eps) + 1) for i in members)):
        bids = list(instance.values)
        for i, step in zip(members, steps):
            bids[i] = step * eps
        gaps = {
            j: sum(bids[i] for i in members) - sum(bids[i] for i in instance.members(j))
            for j in range(instance.m)
            if j != winner
        }
        if all(gap >= 0 for gap in gaps.values()) and all(
            bids[i] == 0 or any(gaps[j] < eps for j in gaps if i not in instance.members(j))
            for i in members
        ):
            points.append(tuple(bids))
    return points


class TestEnumerate:
    def test_unit_grid_on_the_pair_instance(self):
        # At resolution 1 only (1,2) and (2,1) are tight enough to pin both
        # bidders; (2,2) leaves a full-step gap and is excluded.
        profiles = enumerate_equilibria_grid(ab_e(), GridSpec(epsilon=F(1)))
        assert member_bids(ab_e(), profiles, (0, 1)) == [(F(1), F(2)), (F(2), F(1))]

    def test_unit_grid_on_the_triangle(self):
        profiles = enumerate_equilibria_grid(triangle(), GridSpec(epsilon=F(1)))
        assert member_bids(triangle(), profiles, (0, 1, 2)) == [
            (F(0), F(0), F(1)),
            (F(1), F(1), F(0)),
        ]

    def test_profiles_carry_loser_values(self):
        profiles = enumerate_equilibria_grid(ab_e(), GridSpec(epsilon=F(1)))
        assert all(p[2] == F(3) for p in profiles)

    def test_half_grid_matches_a_naive_recount(self):
        instance = ab_e()
        points = naive_recount(instance, F(1, 2))
        polytope = build_polytope(instance)
        assert points and all(is_equilibrium(polytope, bids).ok for bids in points)
        assert enumerate_equilibria_grid(instance, GridSpec(epsilon=F(1, 2))) == points

    def test_magnitudes_beyond_int64_sweep_exactly(self):
        # Scaled sums past 2**62, which a fixed-width int64 sweep could not
        # hold; values off the lattice, so the tops round down.
        instance = make_instance(
            {"A": 2**70 + 1, "B": 2**70, "C": 2**69, "E": 2**70 - 3},
            [["A", "B", "C"], ["A", "E"], ["B", "C", "E"]],
        )
        eps = F(2**68)
        points = naive_recount(instance, eps)
        assert points
        assert enumerate_equilibria_grid(instance, GridSpec(epsilon=eps)) == points

    def test_every_enumerated_point_is_an_equilibrium(self):
        rng = random.Random(7)
        for _ in range(25):
            instance = random_instance(
                rng, max_n=4, max_m=3, value_pool=[F(k, 2) for k in range(7)]
            )
            polytope = build_polytope(instance)
            for bids in enumerate_equilibria_grid(instance, GridSpec(epsilon=F(1, 2))):
                assert is_equilibrium(polytope, bids).ok

    def test_budget_guard(self):
        with pytest.raises(GridBudgetError, match="budget"):
            enumerate_equilibria_grid(hundreds(), GridSpec(epsilon=F(1, 100)))

    def test_a_count_too_long_to_print_is_bounded_in_the_message(self):
        # 10^4300 + 1 lattice points: a count the interpreter will not print.
        instance = make_instance({"A": "1e4300", "B": 0}, [["A"], ["B"]])
        with pytest.raises(GridBudgetError, match=r"^grid needs at least 10\^4300 points, budget is 9$"):
            enumerate_equilibria_grid(instance, GridSpec(epsilon=F(1), budget=9))

    def test_raising_the_budget_lifts_the_guard(self):
        fine = GridSpec(epsilon=F(1, 40))
        with pytest.raises(GridBudgetError):
            enumerate_equilibria_grid(hundreds(), fine)
        roomy = GridSpec(epsilon=F(1, 40), budget=10**8)
        profiles = enumerate_equilibria_grid(hundreds(), roomy)
        assert (F("49.5"), F("49.5"), F(99)) in profiles


def nine_level_winner(rng: random.Random, members: int = 7) -> AuctionInstance:
    """A winner of `members` advertisers (ad 0), each worth 8 to 8.75, so
    the unit lattice has 9 levels per member, against one rival per member
    that shares part of the winner and adds an outsider worth less than the
    part it lacks."""
    winner = [f"W{i}" for i in range(members)]
    values = {name: 8 + F(rng.randint(0, 3), 4) for name in winner}
    ads = [winner]
    for r in range(members):
        shared = rng.sample(winner, rng.randint(0, members - 1))
        lacking = sum((values[name] for name in winner if name not in shared), F(0))
        values[f"R{r}"] = lacking * F(rng.randint(1, 19), 20)
        ads.append(shared + [f"R{r}"])
    return AuctionInstance.build(values, ads)


# Values over the primes 7, 11 and 13, so that a lattice's common denominator
# runs up to 7 * 11 * 13 times epsilon's.
PRIME_DENOMINATOR_VALUES = [F(k, p) for p in (7, 11, 13) for k in range(1, 60)]


class TestAgainstTheNumpySweep:
    """The walk against `helpers.enumerate_equilibria_grid_numpy`, the chunked
    int64 sweep over every lattice point that it replaced."""

    @staticmethod
    def agree(instance, grid) -> bool:
        """Same list, or the same budget error; True when a grid was swept."""
        pytest.importorskip("numpy")
        try:
            expected = enumerate_equilibria_grid_numpy(instance, grid)
        except GridBudgetError as error:
            with pytest.raises(GridBudgetError, match=f"^{re.escape(str(error))}$"):
                enumerate_equilibria_grid(instance, grid)
            return False
        assert enumerate_equilibria_grid(instance, grid) == expected
        return True

    def test_random_family(self):
        # The budget keeps the reference inside the suite's time; larger
        # grids are the cases below.
        rng = random.Random(0)
        swept = 0
        for _ in range(600):
            instance = random_instance(rng, max_n=6, max_m=5)
            for eps in (F(1), F(1, 2), F(1, 3), F(1, 4)):
                swept += self.agree(instance, GridSpec(epsilon=eps, budget=10**5))
        assert swept >= 1500

    def test_prime_denominators(self):
        rng = random.Random(1)
        swept = 0
        for _ in range(300):
            instance = random_instance(rng, max_n=5, max_m=5, value_pool=PRIME_DENOMINATOR_VALUES)
            for eps in (F(1), F(2, 3), F(3, 7)):
                swept += self.agree(instance, GridSpec(epsilon=eps, budget=10**5))
        assert swept >= 850

    def test_hundreds_at_a_fortieth(self):
        # 4001 x 4001 lattice points, 3961 equilibria.
        assert self.agree(hundreds(), GridSpec(epsilon=F(1, 40), budget=10**8))

    @pytest.mark.parametrize("seed", range(3))
    def test_seven_members_at_nine_levels(self, seed):
        # 9**7 = 4,782,969 lattice points each.
        assert self.agree(nine_level_winner(random.Random(seed)), GridSpec(epsilon=F(1)))

    def test_zero_valued_winner_deeper_than_the_recursion_limit(self):
        names = [f"W{i}" for i in range(1500)]
        instance = make_instance(
            dict.fromkeys([*names, "R0", "R1"], 0),
            [names, names[:700] + ["R0"], names[700:] + ["R1"]],
        )
        assert self.agree(instance, GridSpec(epsilon=F(1)))
        assert enumerate_equilibria_grid(instance, GridSpec(epsilon=F(1))) == [(F(0),) * 1502]

    def test_positive_bids_deeper_than_the_recursion_limit(self):
        # 2**1500 lattice points and one equilibrium: the rival is beaten only
        # when every member bids its value, and then trails by 1/2 < epsilon,
        # which pins them all.
        names = [f"W{i}" for i in range(1500)]
        instance = make_instance({**dict.fromkeys(names, 1), "R": F(2999, 2)}, [names, ["R"]])
        grid = GridSpec(epsilon=F(1), budget=2**1500)
        assert enumerate_equilibria_grid(instance, grid) == [(F(1),) * 1500 + (F(2999, 2),)]


class TestLexmax:
    def test_splits_the_pair_instance_evenly(self):
        profile = lexmax_surplus_grid(hundreds(), GridSpec(epsilon=F(1, 2)))
        assert profile == (F("49.5"), F("49.5"), F(99))

    def test_coarse_grid_ties_break_to_the_smallest_bids(self):
        # (1,2) and (2,1) have the same sorted surpluses; the smaller bid
        # vector is the canonical representative.
        profile = lexmax_surplus_grid(ab_e(), GridSpec(epsilon=F(1)))
        assert profile == (F(1), F(2), F(3))

    def test_empty_grid_asks_for_refinement(self):
        instance = make_instance({"A": "2.5", "E": "2.3"}, [["A"], ["E"]])
        with pytest.raises(RuntimeError, match="refine epsilon"):
            lexmax_surplus_grid(instance, GridSpec(epsilon=F(1)))
        fine = lexmax_surplus_grid(instance, GridSpec(epsilon=F(1, 10)))
        assert fine == (F("2.3"), F("2.3"))


class TestLexmaxAgainstTheScan:
    """`lexmax_surplus_grid` against `helpers.lexmax_surplus_grid_by_scan`,
    which keys each profile on a per-member membership scan."""

    @staticmethod
    def lexmax(function, instance, grid):
        try:
            return function(instance, grid)
        except RuntimeError as error:
            return str(error)

    def test_criterion_7_family_and_hundreds(self):
        empty = 0
        for instance in (*criterion_7_instances(), hundreds()):
            for eps in (F(1, 8), F(1, 2), F(1)):
                grid = GridSpec(epsilon=eps)
                expected = self.lexmax(lexmax_surplus_grid_by_scan, instance, grid)
                assert self.lexmax(lexmax_surplus_grid, instance, grid) == expected
                empty += isinstance(expected, str)
        assert 0 < empty < 100


def sorted_surplus(instance, bids):
    return sorted(v - b for v, b in zip(instance.values, bids))


def happier_exact_grid_equilibrium(instance, bids, grid) -> bool:
    """Whether the best sorted surplus over the grid points that are exact
    equilibria beats the candidate's, compared as lists."""
    polytope = build_polytope(instance)
    exact = [p for p in enumerate_equilibria_grid(instance, grid) if is_equilibrium(polytope, p).ok]
    best = max((sorted_surplus(instance, p) for p in exact), default=None)
    return best is not None and best > sorted_surplus(instance, bids)


def unit_minimum(instance):
    polytope = build_polytope(instance)
    return sample_pareto_equilibrium(polytope, [F(1)] * len(polytope.members))


class TestEgalitarianVerdict:
    """`verify_egalitarian` is exact: it reads true on the egalitarian
    equilibrium and false on any other profile."""

    def test_against_the_bottleneck_certificate_and_an_exact_grid_scan(self):
        # Candidates: the egalitarian bids, the unit-weight LP minimum and the
        # first and last grid equilibria, most of which are not the lexmax.
        verdicts = []
        for instance in (*criterion_7_instances(), hundreds()):
            bids, _, _ = egalitarian_solve(instance)
            for eps in (F(1, 8), F(1, 2), F(1)):
                grid = GridSpec(epsilon=eps)
                equilibria = enumerate_equilibria_grid(instance, grid)
                for candidate in (bids, unit_minimum(instance), *equilibria[:1], *equilibria[-1:]):
                    expected = bottleneck_failure(instance, candidate) is None
                    expected = expected and not happier_exact_grid_equilibrium(
                        instance, candidate, grid
                    )
                    verdict = verify_egalitarian(instance, candidate)
                    assert verdict == expected
                    verdicts.append(verdict)
                assert verify_egalitarian(instance, bids)
        assert verdicts.count(True) >= 2000 and verdicts.count(False) >= 200

    def test_no_false_alarm_and_every_wrong_candidate_rejected(self):
        # The unit-weight LP minimum is a wrong candidate where its sorted
        # surplus differs from the egalitarian one.
        rng = random.Random(702024)
        wrong = 0
        for _ in range(300):
            instance = random_instance(rng, max_n=6, max_m=5)
            bids, _, _ = egalitarian_solve(instance)
            assert verify_egalitarian(instance, bids)
            minimum = unit_minimum(instance)
            if sorted_surplus(instance, minimum) != sorted_surplus(instance, bids):
                wrong += 1
                assert not verify_egalitarian(instance, minimum)
        assert wrong == 36

    def test_no_exact_grid_equilibrium_beats_the_egalitarian_bids(self):
        # The same instances, on the pairs whose grid fits the budget. On 10
        # of them a grid point ties the egalitarian sorted surplus within
        # epsilon on an early entry while lying below it, then passes it by
        # more later.
        rng = random.Random(702024)
        pairs = wrong = 0
        for _ in range(300):
            instance = random_instance(rng, max_n=6, max_m=5)
            bids, _, _ = egalitarian_solve(instance)
            minimum = unit_minimum(instance)
            differs = sorted_surplus(instance, minimum) != sorted_surplus(instance, bids)
            for eps in (F(1, 4), F(1, 8)):
                grid = GridSpec(epsilon=eps, budget=200_000)
                try:
                    assert not happier_exact_grid_equilibrium(instance, bids, grid)
                except GridBudgetError:
                    continue
                pairs += 1
                wrong += differs
        assert (pairs, wrong) == (289, 35)

    @pytest.mark.parametrize("members", [32, 48])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_winners_are_verified_without_a_grid(self, members, seed):
        # Lattices of 10^28 points and more: no sweep could decide these.
        instance = rival_family(random.Random(seed), members, rivals_per_member=2)
        bids, _, _ = egalitarian_solve(instance)
        minimum = unit_minimum(instance)
        assert bottleneck_failure(instance, bids) is None
        assert bottleneck_failure(instance, minimum) is not None
        assert verify_egalitarian(instance, bids)
        assert not verify_egalitarian(instance, minimum)


class TestVcgBruteforce:
    @pytest.mark.parametrize("factory", [ab_e, four_ones, triangle, hundreds])
    def test_matches_the_closed_form(self, factory):
        instance = factory()
        assert vcg_bruteforce(instance) == vcg(instance)

    def test_random_agreement(self):
        rng = random.Random(11)
        for _ in range(200):
            instance = random_instance(rng, max_n=6, max_m=5)
            assert vcg_bruteforce(instance) == vcg(instance)

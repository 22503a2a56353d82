"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen. Scalar checks are exact rational comparisons; the single tolerance
in play is the grid resolution of criterion 7, and the two property suites
carry explicit wall-clock budgets (60 s and 300 s).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest

from coopetition import (
    AuctionInstance,
    BidProfile,
    ContractTerm,
    GridSpec,
    LoweringTrace,
    Outcome,
    best_response_contract,
    build_polytope,
    efficient_winner,
    egalitarian_solve,
    evaluate_contracts,
    format_scalar,
    is_cef,
    is_equilibrium,
    is_ir,
    lexmax_surplus_grid,
    revenue_lower_bound,
    revenue_range,
    sample_pareto_equilibrium,
    total_bid,
    vcg,
    vcg_bruteforce,
)
from helpers import F, ab_e, four_ones, hundreds, random_instance, round_profiles, triangle

PROPERTY_SEED = 602024
ORACLE_SEED = 702024
FRONTIER_SEED = 802024


def report(num: int, ok: bool, summary: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {summary}")


@dataclass(frozen=True)
class PropertyRun:
    instance: AuctionInstance
    bids: BidProfile
    outcome: Outcome
    trace: LoweringTrace


@pytest.fixture(scope="module")
def property_runs() -> tuple[list[PropertyRun], float]:
    rng = random.Random(PROPERTY_SEED)
    started = time.monotonic()
    runs = []
    for _ in range(1000):
        instance = random_instance(rng, max_n=8, max_m=6)
        bids, outcome, trace = egalitarian_solve(instance)
        runs.append(PropertyRun(instance, bids, outcome, trace))
    return runs, time.monotonic() - started


def test_criterion_01_vcg_zero_revenue():
    result = vcg(four_ones())
    ok = result.winner == 0 and result.payments == (F(0),) * 5 and result.revenue == F(0)
    payments = ", ".join(format_scalar(p) for p in result.payments)
    report(1, ok, f"cooperating quartet pays ({payments}), revenue {result.revenue}")
    assert ok


def test_criterion_02_vcg_payments():
    result = vcg(ab_e())
    ok = result.payments == (F(1), F(1), F(0)) and result.revenue == F(2)
    report(2, ok, f"pair instance pays (1, 1), revenue {result.revenue}")
    assert ok


def test_criterion_03_egalitarian_revenue():
    _, outcome, _ = egalitarian_solve(ab_e())
    ok = outcome.revenue == F(3)
    report(3, ok, f"first-price egalitarian revenue {outcome.revenue}")
    assert ok


def test_criterion_04_revenue_range_and_equilibria():
    polytope = build_polytope(triangle())
    rng = revenue_range(polytope)
    extreme_low = (F(0), F(0), F(1), F(1), F(1))
    extreme_high = (F(1), F(1), F(0), F(1), F(1))
    midpoint = tuple((a + b) / 2 for a, b in zip(extreme_low, extreme_high))
    ok = (
        rng == (F(1), F(2))
        and is_equilibrium(polytope, extreme_high).ok
        and is_equilibrium(polytope, extreme_low).ok
        and is_cef(polytope, midpoint)
        and is_ir(polytope.instance, midpoint)
    )
    report(
        4,
        ok,
        f"revenue range ({rng[0]}, {rng[1]}); both extreme equilibria and the "
        f"midpoint's CEF/IR hold",
    )
    assert ok


def test_criterion_05_equilibrium_segment():
    instance = hundreds()
    polytope = build_polytope(instance)
    segment_ok = all(
        is_equilibrium(polytope, (x, 99 - x, F(99))).ok
        for x in (F(0), F(10), F("49.5"), F(99))
    )
    bids, _, _ = egalitarian_solve(instance)
    split_ok = bids[:2] == (F("49.5"), F("49.5"))
    ok = segment_ok and split_ok
    report(
        5,
        ok,
        f"(x, 99-x) equilibria verified at four points; egalitarian split "
        f"({format_scalar(bids[0])}, {format_scalar(bids[1])})",
    )
    assert ok


def test_criterion_06_property_suite(property_runs):
    runs, solve_seconds = property_runs
    started = time.monotonic()
    failures = []
    for run in runs:
        polytope = build_polytope(run.instance)
        payments = vcg(run.instance).payments
        verdict = is_equilibrium(polytope, run.bids)
        if not (
            is_ir(run.instance, run.bids)
            and is_cef(polytope, run.bids)
            and verdict.ok
            and run.outcome.winner == efficient_winner(run.instance)
            and run.outcome.revenue >= revenue_lower_bound(run.instance)
            and all(
                run.bids[i] >= payments[i]
                for i in run.instance.members(run.outcome.winner)
            )
        ):
            failures.append(run.instance)
    elapsed = solve_seconds + (time.monotonic() - started)
    ok = not failures and elapsed < 60.0
    report(
        6,
        ok,
        f"1000 instances: equilibrium, winner, revenue floor, and VCG dominance "
        f"hold; {elapsed:.1f}s",
    )
    assert ok, f"{len(failures)} failing instances; {elapsed:.1f}s"


def test_criterion_07_oracle_equivalence():
    rng = random.Random(ORACLE_SEED)
    grid = GridSpec(epsilon=F(1, 8))
    quarter_values = [F(k, 4) for k in range(9)]
    started = time.monotonic()
    worst_gap = F(0)
    failures = []
    for _ in range(200):
        instance = random_instance(rng, max_n=5, max_m=4, value_pool=quarter_values)
        bids, _, _ = egalitarian_solve(instance)
        reference = lexmax_surplus_grid(instance, grid)
        gaps = [abs(a - b) for a, b in zip(bids, reference)]
        worst_gap = max(worst_gap, max(gaps))
        if any(gap > grid.epsilon for gap in gaps):
            failures.append((instance, bids, reference))
        if vcg_bruteforce(instance) != vcg(instance):
            failures.append((instance, "vcg mismatch", None))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 300.0
    report(
        7,
        ok,
        f"200 instances: egalitarian within 1/8 of the grid lexmax per "
        f"coordinate (worst gap {worst_gap}), breakpoint VCG agrees exactly; "
        f"{elapsed:.1f}s",
    )
    assert ok, f"{len(failures)} mismatches; worst gap {worst_gap}"


def test_criterion_08_lp_frontier():
    rng = random.Random(FRONTIER_SEED)
    failures = []
    for _ in range(50):
        instance = random_instance(rng, max_n=6, max_m=5)
        polytope = build_polytope(instance)
        payments = vcg(instance).payments
        members = sorted(instance.members(polytope.winner))
        for _ in range(2):
            weights = [F(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in members]
            bids = sample_pareto_equilibrium(polytope, weights)
            if not is_equilibrium(polytope, bids).ok:
                failures.append((instance, weights, "not an equilibrium"))
            if any(bids[i] < payments[i] for i in members):
                failures.append((instance, weights, "below VCG"))
    ok = not failures
    report(
        8,
        ok,
        "100 weighted samples on 50 instances: all equilibria, all dominate "
        "VCG payments componentwise",
    )
    assert ok, failures[:3]


def _two_sellers(entrant: bool):
    names = {"S": F(3), "M": F(10), "D": F(2)}
    ads = [["S", "M"], ["D", "M"]]
    owners = ["S", "D"]
    if entrant:
        names["A"] = F(11)
        ads.append(["A"])
        owners.append("A")
    instance = AuctionInstance.build(names, ads)
    from coopetition import OwnedAuction

    return OwnedAuction(
        instance=instance,
        owners=tuple(instance.index(name) for name in owners),
        slots=(F(1),),
    )


def test_criterion_09_external_contracts():
    grid_levels = [F(k, 4) for k in range(45)]  # step 1/4 over [0, 11]

    settled = _two_sellers(entrant=False)
    m = settled.instance.index("M")
    baseline = evaluate_contracts(settled, ()).utilities[m]
    dominated = True
    for s0, s1 in product(grid_levels, repeat=2):
        terms = tuple(
            ContractTerm.committed(m, ad, level)
            for ad, level in ((0, s0), (1, s1))
            if level > 0
        )
        if evaluate_contracts(settled, terms).utilities[m] > baseline:
            dominated = False
            break
    best_settled = best_response_contract(
        settled, m, (), GridSpec(epsilon=F(1, 4)), max_subsidy=F(11)
    )

    contested = _two_sellers(entrant=True)
    locked_out = evaluate_contracts(contested, ()).utilities[m]
    best_contested = best_response_contract(
        contested, m, (), GridSpec(epsilon=F(1, 4)), max_subsidy=F(11)
    )
    improved = evaluate_contracts(contested, best_contested).utilities[m]

    ok = (
        dominated
        and best_settled == ()
        and locked_out == F(0)
        and best_contested != ()
        and improved > locked_out
    )
    report(
        9,
        ok,
        f"zero subsidy dominates the settled market (utility {baseline}); "
        f"against the entrant a pledge of {best_contested[0].subsidy if best_contested else '-'} "
        f"lifts the rider's utility from {locked_out} to {improved}",
    )
    # The companion claim, that widespread contracting can unravel the
    # cooperative equilibrium itself, is observational: the rider's best
    # response here redirects the slot away from the entrant entirely,
    # which is reported but not asserted beyond the utility improvement.
    assert ok


def test_criterion_10_termination_and_winner_preservation(property_runs):
    runs, _ = property_runs
    failures = []
    for run in runs:
        members = run.instance.members(run.outcome.winner)
        if len(run.trace.rounds) > len(members):
            failures.append((run.instance, "too many rounds"))
            continue
        for profile in round_profiles(run.instance, run.trace):
            winner_total = total_bid(run.instance, profile, run.outcome.winner)
            if any(
                total_bid(run.instance, profile, j) > winner_total
                for j in range(run.instance.m)
            ):
                failures.append((run.instance, "rival overtook"))
                break
    ok = not failures
    report(
        10,
        ok,
        "1000 lowering runs: at most one round per member, winner never "
        "overtaken after any round",
    )
    assert ok, failures[:3]

"""Uniform lowering: golden runs, trace structure, grid verification."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coopetition import (
    GridSpec,
    build_polytope,
    egalitarian_solve,
    is_equilibrium,
    total_bid,
    verify_egalitarian,
)
from helpers import (
    F,
    ab_e,
    bottleneck_failure,
    egalitarian_by_rounds,
    four_ones,
    hundreds,
    make_instance,
    random_instance,
    rival_family,
    single_ad,
    triangle,
)


def criterion_7_instances():
    """The 200 instances of acceptance criterion 7 (same seed and family)."""
    rng = random.Random(702024)
    quarter_values = [F(k, 4) for k in range(9)]
    for _ in range(200):
        yield random_instance(rng, max_n=5, max_m=4, value_pool=quarter_values)


def golden_instances():
    yield from (ab_e(), four_ones(), triangle(), hundreds(), single_ad())
    yield make_instance({"A": 10, "B": 1, "E": 3}, [["A", "B"], ["E"]])
    yield make_instance({"A": 1, "B": 1, "E": 0}, [["A", "B"], ["E"]])


def wide_slice():
    """Winners of 32-48 members, two rival ads per member (the shape of the
    benchmark's wide workload)."""
    rng = random.Random(48)
    for members in range(32, 49, 2):
        yield rival_family(rng, members, rivals_per_member=2)


class TestGoldenRuns:
    def test_symmetric_pair_splits_the_threshold(self):
        bids, outcome, trace = egalitarian_solve(hundreds())
        assert bids[:2] == (F("49.5"), F("49.5"))
        assert outcome.revenue == F(99)
        assert len(trace.rounds) == 1

    def test_triangle_midpoint(self):
        bids, outcome, _ = egalitarian_solve(triangle())
        assert bids[:3] == (F("0.5"), F("0.5"), F("0.5"))
        assert outcome.revenue == F("1.5")

    def test_four_riders_share_evenly(self):
        bids, outcome, _ = egalitarian_solve(four_ones())
        assert bids[:4] == (F("0.725"),) * 4
        assert outcome.revenue == F("2.9")

    def test_pair_against_stronger_single(self):
        bids, outcome, _ = egalitarian_solve(ab_e())
        assert bids[:2] == (F("1.5"), F("1.5"))
        assert outcome.revenue == F(3)

    def test_unopposed_ad_pays_nothing(self):
        bids, outcome, _ = egalitarian_solve(single_ad())
        assert bids == (F(0),)
        assert outcome.revenue == F(0)

    def test_zero_event_then_tight_event(self):
        # B's bid dies first; A keeps lowering alone until the rival ties.
        instance = make_instance({"A": 10, "B": 1, "E": 3}, [["A", "B"], ["E"]])
        bids, outcome, trace = egalitarian_solve(instance)
        assert bids[:2] == (F(3), F(0))
        assert [r.decrement for r in trace.rounds] == [F(1), F(6)]
        assert trace.rounds[0].events[0].kind == "zero"
        assert trace.rounds[1].events[0].kind == "tight"

    def test_simultaneous_events_share_a_round(self):
        instance = make_instance({"A": 1, "B": 1, "E": 0}, [["A", "B"], ["E"]])
        bids, _, trace = egalitarian_solve(instance)
        assert bids[:2] == (F(0), F(0))
        assert len(trace.rounds) == 1
        kinds = sorted(e.kind for e in trace.rounds[0].events)
        assert kinds == ["tight", "zero", "zero"]


class TestTrace:
    def test_describe_is_readable(self):
        _, _, trace = egalitarian_solve(ab_e())
        lines = trace.describe(ab_e())
        assert lines[0] == "winner: ad 0 {A, B}"
        assert "lowered by 0.5" in lines[1]
        assert "went tight" in lines[1]
        assert "bids A=1.5, B=1.5" in lines[1]

    def test_rounds_record_full_profiles(self):
        instance = hundreds()
        _, _, trace = egalitarian_solve(instance)
        final = trace.rounds[-1].bids
        assert final == (F("49.5"), F("49.5"), F(99))


class TestAgainstTheGrid:
    def test_egalitarian_is_the_grid_lexmax(self):
        grid = GridSpec(epsilon=F(1, 2))
        bids, _, _ = egalitarian_solve(hundreds())
        assert verify_egalitarian(hundreds(), bids, grid)

    def test_lopsided_equilibrium_is_rejected(self):
        grid = GridSpec(epsilon=F(1, 2))
        lopsided = (F(0), F(99), F(99))
        assert is_equilibrium(build_polytope(hundreds()), lopsided).ok
        assert not verify_egalitarian(hundreds(), lopsided, grid)

    def test_non_equilibrium_is_rejected_outright(self):
        grid = GridSpec(epsilon=F(1, 2))
        assert not verify_egalitarian(hundreds(), (F(100), F(100), F(99)), grid)


class TestInvariants:
    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_output_is_an_equilibrium_reached_quickly(self, seed):
        instance = random_instance(random.Random(seed), max_n=6, max_m=5)
        bids, outcome, trace = egalitarian_solve(instance)
        polytope = build_polytope(instance)
        assert outcome.winner == polytope.winner
        assert is_equilibrium(polytope, bids).ok
        members = instance.members(polytope.winner)
        assert len(trace.rounds) <= len(members)
        for r in trace.rounds:
            winner_total = total_bid(instance, r.bids, polytope.winner)
            for j in range(instance.m):
                assert total_bid(instance, r.bids, j) <= winner_total


class TestAgainstTheRoundLoop:
    """Progressive filling returns exactly what the round loop returns."""

    def test_golden_and_criterion_7_instances(self):
        for instance in (*golden_instances(), *criterion_7_instances()):
            assert egalitarian_solve(instance) == egalitarian_by_rounds(instance)

    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(300):
            instance = random_instance(rng, max_n=10, max_m=8)
            assert egalitarian_solve(instance) == egalitarian_by_rounds(instance)

    def test_wide_slice(self):
        for instance in wide_slice():
            assert egalitarian_solve(instance) == egalitarian_by_rounds(instance)


class TestLexmaxCertificate:
    def test_bottleneck_holds_at_wide_size(self):
        for instance in wide_slice():
            bids, _, trace = egalitarian_solve(instance)
            assert any(e.kind == "tight" for r in trace.rounds for e in r.events)
            assert bottleneck_failure(instance, bids) is None

    def test_lopsided_equilibrium_has_no_bottleneck(self):
        # An equilibrium, but the only tight row (rival C, bidders A and B)
        # gives A the larger surplus, so B's positive bid has no bottleneck.
        assert bottleneck_failure(hundreds(), (F(0), F(99), F(99))) == "B has no bottleneck row"

"""Uniform lowering: golden runs, trace structure, grid verification."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coopetition import egalitarian as egalitarian_module
from coopetition import (
    GridSpec,
    build_polytope,
    display_scalar,
    egalitarian_solve,
    is_equilibrium,
    total_bid,
)
from coopetition.oracle import lexmax_surplus_grid, verify_egalitarian
from helpers import (
    F,
    ab_e,
    bottleneck_failure,
    criterion_7_instances,
    egalitarian_by_rounds,
    four_ones,
    hundreds,
    make_instance,
    prime_family,
    random_instance,
    rival_family,
    round_profiles,
    single_ad,
    triangle,
)


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
        assert (trace.rounds[0].zeros, trace.rounds[0].tight) == ((1,), ())
        assert (trace.rounds[1].zeros, trace.rounds[1].tight) == ((), (1,))

    def test_simultaneous_events_share_a_round(self):
        instance = make_instance({"A": 1, "B": 1, "E": 0}, [["A", "B"], ["E"]])
        bids, _, trace = egalitarian_solve(instance)
        assert bids[:2] == (F(0), F(0))
        assert len(trace.rounds) == 1
        assert (trace.rounds[0].zeros, trace.rounds[0].tight) == ((0, 1), (1,))


class TestTrace:
    def test_describe_is_readable(self):
        _, _, trace = egalitarian_solve(ab_e())
        lines = trace.describe(ab_e())
        assert lines[0] == "winner: ad 0 {A, B}"
        assert "lowered by 0.5" in lines[1]
        assert "went tight" in lines[1]
        assert "bids A=1.5, B=1.5" in lines[1]

    def test_rounds_record_full_profiles(self):
        # A round holds its decrement and the members it froze; replaying
        # them gives the full profile, non-members at their values.
        instance = make_instance({"A": 10, "B": 1, "E": 3}, [["A", "B"], ["E"]])
        _, _, trace = egalitarian_solve(instance)
        assert round_profiles(instance, trace) == [(F(9), F(0), F(3)), (F(3), F(0), F(3))]
        _, _, trace = egalitarian_solve(hundreds())
        assert round_profiles(hundreds(), trace)[-1] == (F("49.5"), F("49.5"), F(99))


class TestAgainstTheGrid:
    def test_egalitarian_is_the_grid_lexmax(self):
        bids, _, _ = egalitarian_solve(hundreds())
        assert verify_egalitarian(hundreds(), bids)
        assert lexmax_surplus_grid(hundreds(), GridSpec(epsilon=F(1, 2))) == bids

    def test_lopsided_equilibrium_is_rejected(self):
        lopsided = (F(0), F(99), F(99))
        assert is_equilibrium(build_polytope(hundreds()), lopsided).ok
        assert not verify_egalitarian(hundreds(), lopsided)

    def test_non_equilibrium_is_rejected_outright(self):
        assert not verify_egalitarian(hundreds(), (F(100), F(100), F(99)))


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
        for profile in round_profiles(instance, trace):
            winner_total = total_bid(instance, profile, polytope.winner)
            for j in range(instance.m):
                assert total_bid(instance, profile, j) <= winner_total


def assert_matches_the_round_loop(instance):
    """The solve's bids, outcome and trace are the round loop's, and its
    trace replays to the round loop's profile after every round."""
    result = egalitarian_solve(instance)
    *reference, profiles = egalitarian_by_rounds(instance)
    assert result == tuple(reference)
    assert round_profiles(instance, result[2]) == profiles
    return result


class TestAgainstTheRoundLoop:
    """Progressive filling returns exactly what the round loop returns."""

    def test_golden_and_criterion_7_instances(self):
        for instance in (*golden_instances(), *criterion_7_instances()):
            assert_matches_the_round_loop(instance)

    def test_random_instances(self):
        rng = random.Random(31)
        for _ in range(300):
            assert_matches_the_round_loop(random_instance(rng, max_n=10, max_m=8))

    def test_wide_slice(self):
        for instance in wide_slice():
            assert_matches_the_round_loop(instance)


def prime_families(base: int):
    """80 prime-denominator families of 3-12 members, half of them with
    exact ties to the winner."""
    for ties in (False, True):
        rng = random.Random(70 + ties)
        for case in range(40):
            members = 3 + case % 10
            yield prime_family(rng, members, 2 * members, base=base, ties=ties)


class TestIntegerLowering:
    """The lowering over one running integer denominator against the
    Fraction round loop, where that denominator has to grow."""

    def check(self, base: int) -> None:
        grown = 0
        for instance in prime_families(base):
            result = assert_matches_the_round_loop(instance)
            # A decrement whose denominator does not divide the instance's
            # scale was taken after the running denominator grew.
            grown += any(instance._scale % r.decrement.denominator for r in result[2].rounds)
        assert grown >= 20

    def test_prime_denominators(self):
        self.check(0)

    def test_values_near_2_to_the_70(self):
        self.check(2**70)

    def test_one_bid_fraction_per_member(self, monkeypatch):
        # The lowering builds a Fraction per round, its decrement, and one
        # per winning member, its bid as it freezes.
        built = []

        def counted(*args):
            built.append(args)
            return F(*args)

        monkeypatch.setattr(egalitarian_module, "Fraction", counted)
        for instance in wide_slice():
            built.clear()
            _, _, trace = egalitarian_solve(instance)
            assert len(built) == len(trace.rounds) + len(instance.members(trace.winner))


def assert_trace_shows_the_replayed_profiles(instance):
    """Each round's `bids ...` text is the replayed profile after it, shown
    as `display_scalar` shows it, and the last one is the solve's bids."""
    bids, _, trace = egalitarian_solve(instance)
    profiles = round_profiles(instance, trace)
    lines = trace.describe(instance)
    assert len(lines) == len(profiles) + 1
    members = sorted(instance.members(trace.winner))
    for line, profile in zip(lines[1:], profiles):
        shown = ", ".join(f"{instance.names[k]}={display_scalar(profile[k])}" for k in members)
        assert line.endswith(f"; bids {shown}")
    assert profiles[-1] == bids


class TestTraceText:
    """The trace formats each round's bids from ints; they read as the
    Fraction profiles its rounds replay to."""

    def test_random_instances(self):
        rng = random.Random(32)
        for _ in range(300):
            assert_trace_shows_the_replayed_profiles(random_instance(rng, max_n=10, max_m=8))

    def test_prime_denominators(self):
        for instance in prime_families(0):
            assert_trace_shows_the_replayed_profiles(instance)

    def test_wide_slice(self):
        for instance in wide_slice():
            assert_trace_shows_the_replayed_profiles(instance)

    def test_values_near_2_to_the_70(self):
        for instance in prime_families(2**70):
            assert_trace_shows_the_replayed_profiles(instance)


class TestLexmaxCertificate:
    def test_bottleneck_holds_at_wide_size(self):
        for instance in wide_slice():
            bids, _, trace = egalitarian_solve(instance)
            assert any(r.tight for r in trace.rounds)
            assert bottleneck_failure(instance, bids) is None

    def test_lopsided_equilibrium_has_no_bottleneck(self):
        # An equilibrium, but the only tight row (rival C, bidders A and B)
        # gives A the larger surplus, so B's positive bid has no bottleneck.
        assert bottleneck_failure(hundreds(), (F(0), F(99), F(99))) == "B has no bottleneck row"

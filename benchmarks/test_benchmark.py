"""Tests for the benchmark's own code: generator, checkers, tracer, scaling.

Run from the repository root: python -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import generate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from coopetition import (  # noqa: E402
    build_polytope,
    cli,
    efficient_winner,
    is_equilibrium,
    parse_instance,
    parse_owned_auction,
    vcg_bruteforce,
)


def families(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return (
        [generate.bounds_instance(rng) for _ in range(20)]
        + [generate.rival_instance(rng, k) for k in (10, 14, 32, 48)]
        + [generate.owned_instance(rng, entrant) for entrant in (False, True)]
    )


def report(argv: list[str], fmt: str = "json") -> dict[str, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", fmt]) == 0
    return checks.parse_report(out.getvalue(), fmt)


@pytest.fixture
def rival(tmp_path) -> tuple[dict, str]:
    doc = generate.rival_instance(random.Random(7), 10)
    path = tmp_path / "rival.json"
    path.write_text(json.dumps(doc))
    return doc, str(path)


def test_generator_is_deterministic_per_seed():
    assert families(3) == families(3)
    assert families(3) != families(4)


def test_generated_documents_are_valid_instances():
    for doc in families(5):
        instance = parse_instance(json.dumps(doc))
        assert [instance.names[i] for i in sorted(instance.members(efficient_winner(instance)))] == (
            generate.winner_members(doc)
        )
    for doc in families(5)[:20]:
        assert len(doc["advertisers"]) <= 8 and len(doc["ads"]) <= 6


@pytest.mark.parametrize("members", [10, 14, 32, 48])
def test_rival_family_has_the_stated_winner(members):
    doc = generate.rival_instance(random.Random(members), members)
    instance = parse_instance(json.dumps(doc))
    assert efficient_winner(instance) == 0
    assert len(instance.members(0)) == members
    assert instance.m == 1 + generate.RIVALS_PER_MEMBER * members
    assert instance.n == (1 + generate.RIVALS_PER_MEMBER) * members
    assert len(set(instance.names)) == instance.n  # names run past Z


def test_owned_family_parses():
    for entrant in (False, True):
        doc = generate.owned_instance(random.Random(1), entrant)
        assert parse_owned_auction(json.dumps(doc)).instance.m == 2 + entrant


def test_equilibrium_bids_are_equilibria():
    rng = random.Random(11)
    for doc in families(11):
        instance = parse_instance(json.dumps(doc))
        bids = generate.equilibrium_bids(doc, rng)
        profile = tuple(bids.get(name, value) for name, value in zip(instance.names, instance.values))
        assert is_equilibrium(build_polytope(instance), profile).ok
        assert checks.equilibrium_failure(doc, bids) is None


def test_clarke_payments_match_the_breakpoint_oracle():
    for doc in families(17)[:24]:
        instance = parse_instance(json.dumps(doc))
        expected = dict(zip(instance.names, vcg_bruteforce(instance).payments))
        assert checks.clarke_payments(doc) == expected


def test_formats_flatten_to_the_same_values(rival):
    _, path = rival
    for argv in (["solve", path, "egalitarian", "--trace"], ["polytope", path]):
        flat = {fmt: report(argv, fmt) for fmt in ("json", "csv", "table")}
        for fmt in ("csv", "table"):
            assert flat[fmt].keys() == flat["json"].keys()
            for key, value in flat["json"].items():
                if key.startswith(("bids.", "payments.", "revenue", "weights.")):
                    assert checks.number(flat[fmt][key]) == checks.number(value)


def nudged(flat: dict[str, str], key: str, delta: Fraction = Fraction(1, 1000)) -> dict[str, str]:
    return {**flat, key: str(checks.number(flat[key]) + delta)}


def test_polytope_check_rejects_a_nudged_bid(rival):
    doc, path = rival
    members = generate.winner_members(doc)
    unit = [Fraction(1)] * len(members)
    flat = report(["polytope", path])
    assert checks.check_polytope(doc, unit, flat) is None
    for name in members:
        assert checks.check_polytope(doc, unit, nudged(flat, f"bids.{name}")) is not None


def test_polytope_check_rejects_a_feasible_but_costlier_point(rival):
    doc, path = rival
    members = generate.winner_members(doc)
    weights = [Fraction(k + 1) for k in range(len(members))]
    flat = report(["polytope", path, "--weights", ",".join(map(str, weights))])
    assert checks.check_polytope(doc, weights, flat) is None
    # Another equilibrium passes every exact condition; only the LP value
    # comparison with the reference tells it from the optimum.
    other = report(["solve", path, "egalitarian"])
    swapped = {**flat, **{k: v for k, v in other.items() if k.startswith("bids.")},
               "revenue": other["revenue"]}
    assert checks.check_polytope(doc, weights, swapped) == "LP value differs from the reference"


def test_bounds_check_rejects_an_lp_value_off_by_a_thousandth(tmp_path):
    doc = {
        "advertisers": [{"name": n, "value": "1"} for n in "ABCDE"],
        "ads": [["A", "B", "C"], ["A", "D"], ["B", "E"]],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc))
    for command, compare in ((["solve", str(path), "bounds"], False), (["compare", str(path)], True)):
        flat = report(command)
        assert checks.check_bounds(doc, flat, compare) is None
        assert checks.check_bounds(doc, nudged(flat, "revenue_min"), compare) is not None


def test_vcg_check_rejects_swapped_payments(tmp_path):
    doc = {
        "advertisers": [{"name": "A", "value": "2"}, {"name": "B", "value": "3"},
                        {"name": "E", "value": "4"}],
        "ads": [["A", "B"], ["E"]],
    }
    path = tmp_path / "abe.json"
    path.write_text(json.dumps(doc))
    flat = report(["solve", str(path), "vcg"])
    assert checks.check_vcg(doc, flat) is None
    swapped = {**flat, "payments.A": flat["payments.B"], "payments.B": flat["payments.A"]}
    assert swapped != flat
    assert checks.check_vcg(doc, swapped) is not None


def test_egalitarian_check_rejects_a_nudged_bid(rival):
    doc, path = rival
    flat = report(["solve", path, "egalitarian", "--trace"])
    assert checks.check_egalitarian(doc, flat, traced=True) is None
    for name in generate.winner_members(doc):
        assert checks.check_egalitarian(doc, nudged(flat, f"bids.{name}"), traced=True) is not None


def test_bottleneck_check_rejects_other_equilibria(rival):
    doc, _ = rival
    flat = report(["solve", _, "egalitarian"])
    egalitarian = {name: checks.number(flat[f"bids.{name}"]) for name in generate.winner_members(doc)}
    rng = random.Random(2)
    for _ in range(5):
        bids = generate.equilibrium_bids(doc, rng)
        if bids != egalitarian:
            assert checks.equilibrium_failure(doc, bids) is None
            assert checks.bottleneck_failure(doc, bids) is not None


def test_verify_check_rejects_a_flipped_flag(rival, tmp_path):
    doc, path = rival
    bids = {"bids": {k: str(v) for k, v in generate.equilibrium_bids(doc, random.Random(3)).items()}}
    bids_path = tmp_path / "bids.json"
    bids_path.write_text(json.dumps(bids))
    flat = report(["verify", path, str(bids_path)])
    assert flat["is_equilibrium"] == "true"
    assert checks.check_verify(doc, bids, flat) is None
    assert checks.check_verify(doc, bids, {**flat, "is_equilibrium": "false"}) is not None


def test_contracts_check_rejects_a_wrong_utility(tmp_path):
    doc = generate.owned_instance(random.Random(5), entrant=True)
    path = tmp_path / "owned.json"
    path.write_text(json.dumps(doc))
    step, ceiling = Fraction(1, 2), Fraction(8)
    for fmt in ("json", "csv", "table"):
        flat = report(["contracts", str(path), "--responder", "M", "--subsidy-grid", "1/2:8"], fmt)
        assert checks.check_contracts(doc, "M", step, ceiling, flat) is None
        wrong = nudged(flat, "outcome.utilities.M")
        assert checks.check_contracts(doc, "M", step, ceiling, wrong) is not None


def test_tracer_nests_spans_and_derives_self_time():
    class Module:
        @staticmethod
        def outer():
            return Module.inner() + 1

        @staticmethod
        def inner():
            return 1

    tracer = spans.Tracer()
    tracer.wrap(Module, "outer", "polytope.lp")
    tracer.wrap(Module, "inner", "simplex.solve_min")
    assert tracer.run_op(0, Module.outer) == 2
    recorded = tracer.finish()
    assert [s[spans.NAME] for s in recorded] == ["cli.main", "polytope.lp", "simplex.solve_min"]
    assert [s[spans.PARENT] for s in recorded] == [None, 0, 1]
    start = {name: 0.0 for name in spans.START_METRICS}
    metrics = spans.layer_metrics(recorded, tracer.counts, start)
    lp = recorded[1][spans.END] - recorded[1][spans.START]
    inner = recorded[2][spans.END] - recorded[2][spans.START]
    assert metrics["polytope.lp_ms"][0] == pytest.approx(1000 * (lp - inner))
    assert metrics["simplex.solve_min_calls"] == (1, "count")


def test_closed_loop_runs_on_until_min_ops(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def execute(index):  # every op takes one second
        clock[0] += 1.0
        return 0, "", ""

    ops = [run.Op(["solve", "x", "vcg", "--format", "json"], lambda flat: None)]
    for min_ops, expected in ((0, 3), (4, 4), (9, 5)):  # at most 2 x 2.5 s
        clock[0] = 0.0
        samples, wall = run.closed_loop(ops, 2.5, execute, min_ops, lambda: 0.0)
        assert (len(samples), wall) == (expected, expected)


def test_scaling_cancels_a_host_slowdown():
    ops = [0.1, 0.3, 0.2] * 6
    steady = reference.scale_ms(ops, [0.002] * len(ops), 2.2)
    assert steady == pytest.approx([1100 * t for t in ops])
    # The host runs at half speed from op 9 on: ops and kernel both take twice as long.
    slow = [t * (2 if k >= 9 else 1) for k, t in enumerate(ops)]
    kernel = [0.002 * (2 if k >= 9 else 1) for k in range(len(ops))]
    scaled = reference.scale_ms(slow, kernel, 2.2)
    far = [k for k in range(len(ops)) if abs(k - 8.5) > reference.WINDOW]
    assert [scaled[k] for k in far] == pytest.approx([steady[k] for k in far])


def test_scaling_ignores_one_noisy_kernel_run():
    ops = [0.1] * 9
    kernel = [0.002] * 9
    kernel[4] = 0.02
    assert reference.scale_ms(ops, kernel, 2.2) == pytest.approx([110.0] * 9)

"""Command-line front end: formats, exit codes, exact round-trips."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coopetition
from coopetition import parse_scalar
from coopetition.cli import build_parser, main, render_json
from coopetition.polytope import EquilibriumResult
from helpers import F

AB_E = """
{
  "advertisers": [
    {"name": "A", "value": "2"},
    {"name": "B", "value": "2"},
    {"name": "E", "value": "3"}
  ],
  "ads": [["A", "B"], ["E"]]
}
"""

TRIANGLE = """
{
  "advertisers": [
    {"name": "A", "value": "1"},
    {"name": "B", "value": "1"},
    {"name": "C", "value": "1"},
    {"name": "D", "value": "1"},
    {"name": "E", "value": "1"}
  ],
  "ads": [["A", "B", "C"], ["A", "D"], ["B", "E"]]
}
"""

THIRDS = """
{
  "advertisers": [
    {"name": "A", "value": "1"},
    {"name": "B", "value": "1"},
    {"name": "C", "value": "1"},
    {"name": "E", "value": "0.5"}
  ],
  "ads": [["A", "B", "C"], ["E"]]
}
"""

OWNED = """
{
  "advertisers": [
    {"name": "S", "value": "3"},
    {"name": "M", "value": "10"},
    {"name": "D", "value": "2"},
    {"name": "A", "value": "11"}
  ],
  "ads": [["S", "M"], ["D", "M"], ["A"]],
  "owners": ["S", "D", "A"],
  "slots": ["1"]
}
"""


@pytest.fixture
def ab_e_path(tmp_path):
    path = tmp_path / "ab_e.json"
    path.write_text(AB_E)
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_vcg_table(self, capsys, ab_e_path):
        code, out, err = run(capsys, ["solve", ab_e_path, "vcg"])
        assert code == 0 and err == ""
        assert "winner: ad 0 {A, B}" in out
        assert "payments: A=1, B=1, E=0" in out
        assert "revenue: 2" in out

    def test_egalitarian_revenue(self, capsys, ab_e_path):
        code, out, _ = run(capsys, ["solve", ab_e_path, "egalitarian"])
        assert code == 0
        assert "revenue: 3" in out
        assert "trace" not in out

    def test_trace_flag_adds_rounds(self, capsys, ab_e_path):
        code, out, _ = run(capsys, ["solve", ab_e_path, "egalitarian", "--trace"])
        assert code == 0
        assert "round 1: lowered by 0.5" in out

    def test_bounds(self, capsys, ab_e_path):
        code, out, _ = run(capsys, ["solve", ab_e_path, "bounds"])
        assert code == 0
        assert "revenue_lower_bound: 3" in out
        assert "revenue_min: 3" in out
        assert "revenue_max: 3" in out

    def test_cover_budget_is_an_error_report(self, capsys, triangle_path, monkeypatch):
        monkeypatch.setattr(coopetition.polytope, "_COVER_BUDGET", 2)
        code, out, err = run(capsys, ["solve", triangle_path, "bounds", "--format", "json"])
        assert code == 1 and out == ""
        assert "2 solved of 2" in json.loads(err)["error"]

    def test_welfare_tie_is_noted(self, capsys, tmp_path):
        path = tmp_path / "tie.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "2"}, {"name": "B", "value": "2"}],'
            ' "ads": [["A"], ["B"]]}'
        )
        code, out, _ = run(capsys, ["solve", str(path), "vcg"])
        assert code == 0
        assert "welfare tie" in out

    def test_missing_file_is_an_error_report(self, capsys):
        code, out, err = run(capsys, ["solve", "no-such.json", "vcg"])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read")

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(AB_E))
        code, out, _ = run(capsys, ["solve", "-", "vcg"])
        assert code == 0
        assert "revenue: 2" in out

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_unprintable_scalar_is_an_error_report(self, capsys, tmp_path, fmt):
        # 10^5000 would have 5001 digits, beyond the interpreter's int-to-str
        # limit, so parsing rejects its exponent with a located error.
        path = tmp_path / "huge.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "1e5000"}, {"name": "B", "value": "1"}],'
            ' "ads": [["A"], ["B"]]}'
        )
        code, out, err = run(capsys, ["solve", str(path), "vcg", "--format", fmt])
        assert code == 1 and out == ""
        assert "Traceback" not in err
        if fmt == "json":
            message = json.loads(err)["error"]
        elif fmt == "csv":
            (header, (key, message)) = list(csv.reader(io.StringIO(err)))
            assert header == ["key", "value"] and key == "error"
        else:
            assert err.startswith("error: ")
            message = err
        assert "digits" in message

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_huge_exponent_is_rejected_quickly(self, capsys, tmp_path, fmt):
        # Building 10^20000000 exactly would take seconds; the literal is
        # rejected by its exponent first.
        path = tmp_path / "huge.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "1e20000000"}, {"name": "B", "value": "1"}],'
            ' "ads": [["A"], ["B"]]}'
        )
        start = time.perf_counter()
        code, out, err = run(capsys, ["solve", str(path), "vcg", "--format", fmt])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        message = json.loads(err)["error"] if fmt == "json" else err
        assert "advertisers[0].value" in message and "digits" in message

    def test_huge_weight_is_rejected(self, capsys, triangle_path):
        code, out, err = run(capsys, ["polytope", triangle_path, "--weights", "1,1,1e9999"])
        assert code == 1 and out == ""
        assert "weights[2]" in err and "digits" in err

    def test_table_omits_approximation_beyond_float_range(self, capsys, tmp_path):
        price = F(10**400 + 1, 3)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "advertisers": [
                {"name": "A", "value": "1e401"},
                {"name": "B", "value": f"{price.numerator}/{price.denominator}"},
            ],
            "ads": [["A"], ["B"]],
        }))
        code, out, err = run(capsys, ["solve", str(path), "vcg"])
        assert code == 0 and err == ""
        assert f"revenue: {price.numerator}/{price.denominator}\n" in out


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is only needed by the oracle grid sweep, which imports it itself.
    # The parser is built by the first `main` call, not by the import.
    probe = (
        "import sys, coopetition.cli as cli; "
        "print('numpy' in sys.modules, cli.build_parser.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(coopetition.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False 0"


def _cold_stdout(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(coopetition.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "coopetition", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestCachedParser:
    """One parser serves every `main` call in a process; no call leaks into the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_weights_do_not_carry_over(self, capsys, triangle_path):
        assert run(capsys, ["polytope", triangle_path, "--weights", "1,1,3"])[0] == 0
        code, out, _ = run(capsys, ["polytope", triangle_path])
        assert code == 0
        assert out == _cold_stdout(["polytope", triangle_path])

    def test_trace_does_not_carry_over(self, capsys, ab_e_path):
        argv = ["solve", ab_e_path, "egalitarian", "--format", "json"]
        code, out, _ = run(capsys, argv + ["--trace"])
        assert code == 0 and "trace" in json.loads(out)
        code, out, _ = run(capsys, argv)
        assert code == 0 and "trace" not in json.loads(out)

    def test_usage_error_leaves_the_next_call_unchanged(self, capsys, triangle_path):
        argv = ["polytope", triangle_path, "--format", "json"]
        before = run(capsys, argv)
        with pytest.raises(SystemExit) as exit_info:
            main(["polytope", triangle_path, "--weights", "1,1,3", "--format", "csv", "--bogus"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert run(capsys, argv) == before


def _parse_error(err, fmt):
    if fmt == "json":
        return json.loads(err)["error"]
    if fmt == "csv":
        (header, (key, message)) = list(csv.reader(io.StringIO(err)))
        assert header == ["key", "value"] and key == "error"
        return message
    assert err.startswith("error: ")
    return err[len("error: "):].rstrip("\n")


class TestExitStatus:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_internal_error_exits_3(self, capsys, triangle_path, monkeypatch, fmt):
        # The triangle's revenue maximum (2) is re-verified; rejecting it
        # breaks an invariant of the cover search, which is not the user's fault.
        check = coopetition.polytope.is_equilibrium

        def reject_the_maximum(polytope, bids):
            if sum(bids[k] for k in polytope.members) == 2:
                return EquilibriumResult(ok=False, certificate=None, failure="rejected")
            return check(polytope, bids)

        monkeypatch.setattr(coopetition.polytope, "is_equilibrium", reject_the_maximum)
        code, out, err = run(capsys, ["compare", triangle_path, "--format", fmt])
        assert code == 3 and out == ""
        assert "Traceback" not in err
        message = _parse_error(err, fmt)
        assert message.startswith("internal error: the cover search and is_equilibrium")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_budget_error_exits_1(self, capsys, triangle_path, monkeypatch, fmt):
        monkeypatch.setattr(coopetition.polytope, "_COVER_BUDGET", 2)
        code, out, err = run(capsys, ["compare", triangle_path, "--format", fmt])
        assert code == 1 and out == ""
        assert _parse_error(err, fmt).startswith("the revenue maximum needs more cover LPs")


class TestVerify:
    def test_equilibrium_certificate(self, capsys, triangle_path, tmp_path):
        bids = tmp_path / "bids.json"
        bids.write_text('{"bids": {"A": "1", "B": "1", "C": "0"}}')
        code, out, _ = run(capsys, ["verify", triangle_path, str(bids)])
        assert code == 0
        assert "is_ir: true" in out
        assert "is_cef: true" in out
        assert "is_equilibrium: true" in out
        assert "certificate: A=ad 2 {B, E}, B=ad 1 {A, D}, C=zero bid" in out

    def test_overbid_names_the_violator(self, capsys, triangle_path, tmp_path):
        bids = tmp_path / "bids.json"
        bids.write_text('{"bids": {"A": "2"}}')
        code, out, _ = run(capsys, ["verify", triangle_path, str(bids)])
        assert code == 0
        assert "is_ir: false" in out
        assert "failure: not IR: 'A'" in out

    def test_slack_profile_is_cef_but_not_equilibrium(self, capsys, triangle_path, tmp_path):
        bids = tmp_path / "bids.json"
        bids.write_text('{"bids": {"A": "0.6", "B": "0.6", "C": "0.6"}}')
        code, out, _ = run(capsys, ["verify", triangle_path, str(bids)])
        assert code == 0
        assert "is_cef: true" in out
        assert "is_equilibrium: false" in out

    def test_bad_bid_file_is_an_error(self, capsys, triangle_path, tmp_path):
        bids = tmp_path / "bids.json"
        bids.write_text('{"bids": {"Z": "1"}}')
        code, _, err = run(capsys, ["verify", triangle_path, str(bids)])
        assert code == 1
        assert "unknown advertiser 'Z'" in err


class TestCompare:
    def test_json_report_round_trips_exactly(self, capsys, tmp_path):
        path = tmp_path / "four.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "1"}, {"name": "B", "value": "1"},'
            ' {"name": "C", "value": "1"}, {"name": "D", "value": "1"},'
            ' {"name": "E", "value": "2.9"}], "ads": [["A", "B", "C", "D"], ["E"]]}'
        )
        code, out, _ = run(capsys, ["compare", str(path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert parse_scalar(report["vcg_revenue"]) == F(0)
        assert parse_scalar(report["egalitarian_revenue"]) == F("2.9")
        assert parse_scalar(report["revenue_min"]) == F("2.9")
        assert "egalitarian revenue >= vcg revenue" in report["notes"]

    def test_triangle_range(self, capsys, triangle_path):
        code, out, _ = run(capsys, ["compare", triangle_path])
        assert code == 0
        assert "vcg_revenue: 0" in out
        assert "revenue_min: 1" in out
        assert "revenue_max: 2" in out

    def test_non_terminating_scalars_round_trip_as_fractions(self, capsys, tmp_path):
        path = tmp_path / "thirds.json"
        path.write_text(THIRDS)
        code, out, _ = run(capsys, ["compare", str(path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["egalitarian_revenue"] == "0.5"
        code, out, _ = run(capsys, ["solve", str(path), "egalitarian", "--format", "json"])
        report = json.loads(out)
        assert report["bids"]["A"] == "1/6"
        assert parse_scalar(report["bids"]["A"]) == F(1, 6)

    def test_table_shows_fraction_with_approximation(self, capsys, tmp_path):
        path = tmp_path / "thirds.json"
        path.write_text(THIRDS)
        code, out, _ = run(capsys, ["solve", str(path), "egalitarian"])
        assert code == 0
        assert "A=1/6 (~0.166667)" in out


class TestJson:
    def test_unrenderable_node_raises_type_error(self):
        with pytest.raises(TypeError, match=r"unrenderable report node: \{1\}"):
            render_json({"members": {1}})


class TestCsv:
    def test_csv_rows_round_trip(self, capsys, ab_e_path):
        code, out, _ = run(capsys, ["solve", ab_e_path, "vcg", "--format", "csv"])
        assert code == 0
        rows = dict(csv.reader(io.StringIO(out)))
        assert rows["key"] == "value"
        assert parse_scalar(rows["payments.A"]) == F(1)
        assert parse_scalar(rows["revenue"]) == F(2)
        assert rows["winner"] == "ad 0 {A, B}"


class TestPolytope:
    def test_weighted_sample(self, capsys, triangle_path):
        code, out, _ = run(
            capsys, ["polytope", triangle_path, "--weights", "1,1,3", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["bids"] == {"A": "1", "B": "1", "C": "0", "D": "1", "E": "1"}
        assert report["revenue"] == "2"
        assert any("B + C >= 1" in row for row in report["constraints"])

    def test_weight_count_mismatch_is_an_error(self, capsys, triangle_path):
        code, _, err = run(capsys, ["polytope", triangle_path, "--weights", "1,2"])
        assert code == 1
        assert "expects 3" in err


class TestOracle:
    def test_cross_check_report(self, capsys, triangle_path):
        code, out, _ = run(capsys, ["oracle", triangle_path, "--epsilon", "1"])
        assert code == 0
        assert "equilibrium_count: 2" in out
        assert "vcg_agrees: true" in out
        assert "egalitarian_matches_grid: true" in out

    def test_budget_error_is_surfaced_verbatim(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "100"}, {"name": "B", "value": "100"},'
            ' {"name": "C", "value": "99"}], "ads": [["A", "B"], ["C"]]}'
        )
        code, _, err = run(capsys, ["oracle", str(path), "--epsilon", "0.01"])
        assert code == 1
        assert "grid needs" in err and "budget" in err

    def test_json_error_shape(self, capsys):
        code, out, err = run(
            capsys, ["oracle", "missing.json", "--epsilon", "1", "--format", "json"]
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"].startswith("cannot read")


class TestContracts:
    def test_plain_evaluation(self, capsys, tmp_path):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        code, out, _ = run(capsys, ["contracts", str(path)])
        assert code == 0
        assert "assignment: ad 2 {A}=0" in out
        assert "prices: ad 2 {A}=3" in out
        assert "utilities: S=0, M=0, D=0, A=8" in out

    def test_best_response_search(self, capsys, tmp_path):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        code, out, _ = run(
            capsys,
            [
                "contracts",
                str(path),
                "--responder",
                "M",
                "--subsidy-grid",
                "0.25:11",
                "--format",
                "json",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["best_response"] == [
            {
                "supporter": "M",
                "ad": "ad 0 {S, M}",
                "fraction": "1",
                "cap": "8",
                "subsidy": "8",
            }
        ]
        assert report["outcome"]["utilities"]["M"] == "2"

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_negative_subsidy_maximum_is_an_error_report(self, capsys, tmp_path, fmt):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        code, out, err = run(
            capsys,
            ["contracts", str(path), "--responder", "M", "--subsidy-grid", "1:-5", "--format", fmt],
        )
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert "max_subsidy must be non-negative" in err
        if fmt == "json":
            assert json.loads(err)["error"].startswith("max_subsidy")

    def test_fixed_terms_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text('{"contracts": [{"supporter": "M", "ad": 0, "amount": "8"}]}')
        code, out, _ = run(capsys, ["contracts", str(path), "--contracts", str(terms)])
        assert code == 0
        assert "assignment: ad 0 {S, M}=0" in out
        assert "M=2" in out

    def test_malformed_terms_are_an_error(self, capsys, tmp_path):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text('{"contracts": [{"supporter": "Q", "ad": 0, "amount": "1"}]}')
        code, _, err = run(capsys, ["contracts", str(path), "--contracts", str(terms)])
        assert code == 1
        assert "unknown supporter 'Q'" in err

"""Command-line front end: formats, exit codes, exact round-trips."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coopetition
from coopetition import parse_scalar
from coopetition.cli import main
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
        # 10^5000 parses and solves exactly, but printing its 5001 digits
        # exceeds the interpreter's int-to-str limit while rendering.
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
    probe = "import sys, coopetition.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(coopetition.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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

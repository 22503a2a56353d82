"""Command-line front end: formats, exit codes, exact round-trips."""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopetition
from coopetition import InternalError, cli, parse_scalar, serialize_instance
from coopetition.cli import build_parser, main, render_json
from coopetition.polytope import EquilibriumResult
from helpers import F, random_instance, render_json_by_dumps, rival_family

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


def assert_error_report(err: str, fmt: str, expected: str) -> None:
    if fmt == "json":
        assert json.loads(err) == {"error": expected}
    elif fmt == "csv":
        assert list(csv.reader(io.StringIO(err))) == [["key", "value"], ["error", expected]]
    else:
        assert err == f"error: {expected}\n"


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

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("name", ['""', "1", "null"])
    def test_a_name_that_is_no_string_is_an_error_report(self, capsys, tmp_path, name, fmt):
        path = tmp_path / "named.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "1"}, {"name": ' + name + ', "value": "1"}],'
            ' "ads": [["A"]]}'
        )
        code, out, err = run(capsys, ["solve", str(path), "vcg", "--format", fmt])
        assert code == 1 and out == ""
        assert_error_report(err, fmt, "advertisers[1].name: expected a non-empty string")

    def test_missing_file_is_an_error_report(self, capsys):
        code, out, err = run(capsys, ["solve", "no-such.json", "vcg"])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_non_utf8_file_is_named_in_the_error_report(self, capsys, tmp_path, fmt):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, ["solve", str(path), "vcg", "--format", fmt])
        assert code == 1 and out == ""
        expected = f"cannot read {path}: not UTF-8 text (invalid start byte at byte 0)"
        assert_error_report(err, fmt, expected)

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(AB_E))
        code, out, _ = run(capsys, ["solve", "-", "vcg"])
        assert code == 0
        assert "revenue: 2" in out

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_non_utf8_stdin_is_named_in_the_error_report(self, capsys, monkeypatch, fmt):
        # Under the C locale stdin's text layer lets bad bytes through as
        # surrogates; the bytes beneath it are what must be decoded.
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, ["solve", "-", "vcg", "--format", fmt])
        assert code == 1 and out == ""
        expected = "cannot read -: not UTF-8 text (invalid start byte at byte 0)"
        assert_error_report(err, fmt, expected)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_closed_stdin_is_an_error_report(self, capsys, monkeypatch, triangle_path, fmt):
        # With fd 0 closed at start-up the interpreter sets sys.stdin to None.
        monkeypatch.setattr("sys.stdin", None)
        for argv in (["solve", "-", "vcg"], ["verify", triangle_path, "-"]):
            code, out, err = run(capsys, [*argv, "--format", fmt])
            assert code == 1 and out == ""
            assert_error_report(err, fmt, "cannot read -: stdin is closed")

    def test_stdin_reads_like_a_file(self, capsys, monkeypatch, tmp_path):
        # Carriage returns are translated as for a file, so a JSON error
        # points at the same place either way.
        data = b'{"advertisers": [{"name": "A", "value": "2"}],\r\n "ads": [["A"]] x}'
        path = tmp_path / "crlf.json"
        path.write_bytes(data)
        from_file = run(capsys, ["solve", str(path), "vcg"])
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        from_stdin = run(capsys, ["solve", "-", "vcg"])
        assert from_stdin == from_file
        assert from_file[2] == (
            "error: not valid JSON: Expecting ',' delimiter: line 2 column 17 (char 63)\n"
        )

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

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_scale_past_its_limit_is_rejected_quickly(self, capsys, tmp_path, fmt):
        # Each value's 4001-digit denominator is a valid literal, but the
        # instance's scale, their lcm, crosses 43000 digits at the eleventh
        # value; the full lcm of all 120 and a division by each took seconds.
        path = tmp_path / "coprime.json"
        path.write_text(json.dumps({
            "advertisers": [
                {"name": f"A{i}", "value": f"{i + 1}/{10**4000 + 2 * i + 1}"} for i in range(120)
            ],
            "ads": [[f"A{i}"] for i in range(120)],
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, ["solve", str(path), "vcg", "--format", fmt])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert_error_report(
            err, fmt, "advertisers[10].value: the values' common denominator has more than "
            "43000 digits"
        )

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("rivals", ["one rival", "one rival per member"])
    def test_bid_scale_past_its_limit_is_rejected_quickly(self, capsys, tmp_path, rivals, fmt):
        # 120 bids over distinct 4001-digit denominators against a
        # 120-member winner: the bids' lcm crosses 43000 digits at the
        # eleventh bid. Unchecked, one row slack over the bids took 14 s,
        # and one rival per member ran past a minute.
        names = [f"A{i}" for i in range(120)]
        rival_names = ["R"] if rivals == "one rival" else [f"R{i}" for i in range(120)]
        instance, bids = tmp_path / "winner.json", tmp_path / "bids.json"
        instance.write_text(json.dumps({
            "advertisers": [{"name": name, "value": "1"} for name in names + rival_names],
            "ads": [names] + [[name] for name in rival_names],
        }))
        bids.write_text(json.dumps(
            {"bids": {name: f"1/{10**4000 + 2 * i + 1}" for i, name in enumerate(names)}}
        ))
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", str(instance), str(bids), "--format", fmt])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert_error_report(
            err, fmt, "bids['A10']: the bids' common denominator has more than 43000 digits"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("command", [["solve", "vcg"], ["solve", "egalitarian"], ["compare"]])
    def test_result_too_long_to_print_is_an_error_report(self, capsys, tmp_path, command, fmt):
        # 14 values over distinct 401-digit denominators give a 5600-digit
        # scale, within its limit, and results over it that the interpreter
        # will not print: an error report that says so, without its hint.
        names = [f"A{i}" for i in range(14)]
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "advertisers": [
                {"name": name, "value": f"{i + 2}/{10**400 + 2 * i + 1}"}
                for i, name in enumerate(names)
            ] + [{"name": "R", "value": "1/1000000"}],
            "ads": [names, ["R"]],
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, [command[0], str(path), *command[1:], "--format", fmt])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert_error_report(err, fmt, "a number to print has more than 4300 digits")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_weight_scale_past_its_limit_is_rejected_quickly(self, capsys, tmp_path, fmt):
        # 12 weights over distinct 4001-digit denominators against a
        # 12-member winner: their lcm crosses 43000 digits at the eleventh
        # weight, the values' and the bids' limit. Unchecked, the sample
        # wrote a 44 KB report.
        names = [f"A{i}" for i in range(12)]
        path = tmp_path / "winner.json"
        path.write_text(json.dumps({
            "advertisers": [{"name": name, "value": "1"} for name in names + ["R"]],
            "ads": [names, ["R"]],
        }))
        weights = ",".join([f"1/{10**4000 + 2 * i + 1}" for i in range(12)])
        start = time.perf_counter()
        code, out, err = run(capsys, ["polytope", str(path), "--weights", weights, "--format", fmt])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert_error_report(
            err, fmt, "weights[10]: the weights' common denominator has more than 43000 digits"
        )

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


def _package_env():
    return {**os.environ, "PYTHONPATH": str(Path(coopetition.__file__).parents[1])}


# What `python -m coopetition` itself loads: the package, which imports no
# submodule, then `__main__` (run as the main module, so not listed here) and
# `cli`, which imports only `model` and `mechanisms`.
COLD_BASE = {"coopetition", "coopetition.cli", "coopetition.model", "coopetition.mechanisms"}
LP = {"coopetition.polytope", "coopetition.simplex"}
LOWERING = LP | {"coopetition.egalitarian"}

# `python -m coopetition ARGV` through runpy, as `-m` runs it, then the exit
# status and the package modules left in sys.modules, on stderr, with numpy,
# dataclasses and inspect when loaded.
COLD_PROBE = """
import runpy, sys
try:
    runpy.run_module("coopetition", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
print(code, *sorted(m for m in sys.modules
                    if m in ("numpy", "dataclasses", "inspect") or m.startswith("coopetition")),
      file=sys.stderr)
"""


def test_importing_the_cli_leaves_numpy_unloaded():
    # The package has no third-party dependency; the tests load numpy for
    # their reference grid sweep only. The records are plain slotted
    # classes, so `dataclasses` (and the `inspect` it imports) stays out of
    # a cold start. The parser is built by the first `main` call, not by the
    # import.
    probe = (
        "import sys, coopetition.cli as cli; "
        "print('numpy' in sys.modules, 'dataclasses' in sys.modules, 'inspect' in sys.modules, "
        "cli.build_parser.cache_info().currsize, "
        "*sorted(m for m in sys.modules if m.startswith('coopetition')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    numpy_loaded, dataclasses_loaded, inspect_loaded, parsers, *modules = result.stdout.split()
    assert (numpy_loaded, dataclasses_loaded, inspect_loaded, parsers) == (
        "False", "False", "False", "0"
    )
    assert set(modules) == COLD_BASE


@pytest.mark.parametrize(
    "command, loads",
    [
        ("solve vcg", set()),
        ("solve egalitarian", LOWERING),
        ("solve bounds", LP),
        ("verify", LP),
        ("compare", LOWERING),
        ("polytope", LP),
        ("oracle", LOWERING | {"coopetition.oracle"}),
        ("contracts", {"coopetition.contracts"}),
    ],
)
def test_each_command_loads_only_what_it_runs(tmp_path, command, loads):
    instance, bids, owned = (tmp_path / name for name in ("t.json", "b.json", "o.json"))
    instance.write_text(TRIANGLE)
    bids.write_text('{"bids": {}}')
    owned.write_text(OWNED)
    argv = {
        "solve vcg": ["solve", instance, "vcg"],
        "solve egalitarian": ["solve", instance, "egalitarian"],
        "solve bounds": ["solve", instance, "bounds"],
        "verify": ["verify", instance, bids],
        "compare": ["compare", instance],
        "polytope": ["polytope", instance],
        "oracle": ["oracle", instance, "--epsilon", "1"],
        "contracts": ["contracts", owned, "--responder", "M"],
    }[command]
    result = subprocess.run(
        [sys.executable, "-c", COLD_PROBE, *map(str, argv)],
        env=_package_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    code, *modules = result.stderr.split()
    assert code == "0" and result.stdout.startswith(f"command: {argv[0]}")
    assert "numpy" not in modules
    assert "dataclasses" not in modules and "inspect" not in modules
    assert set(modules) == COLD_BASE | loads


WRAP_PROBE = """
import json, sys
from collections import Counter
from coopetition import cli, oracle

calls = Counter()


def counted(name, original):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return wrapper


# Set without reading it first, so before its module is bound on `cli`.
cli.verify_egalitarian = counted("verify_egalitarian", oracle.verify_egalitarian)
for name in ("revenue_range", "egalitarian_solve", "enumerate_equilibria_grid",
             "evaluate_contracts"):
    setattr(cli, name, counted(name, getattr(cli, name)))
instance, owned = sys.argv[1:]
codes = [
    cli.main(["compare", instance]),
    cli.main(["oracle", instance, "--epsilon", "1"]),
    cli.main(["contracts", owned]),
]
print(json.dumps({"codes": codes, "calls": calls}))
"""


def test_wraps_set_before_the_first_command_are_called(tmp_path):
    # A caller that replaces a lazily bound name on `cli` before any command
    # has run (a tracer wrapping by name) must see every command call its
    # replacement, not the original the command binds on first use.
    instance, owned = tmp_path / "t.json", tmp_path / "o.json"
    instance.write_text(TRIANGLE)
    owned.write_text(OWNED)
    result = subprocess.run(
        [sys.executable, "-c", WRAP_PROBE, str(instance), str(owned)],
        env=_package_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["codes"] == [0, 0, 0]
    # compare and oracle each run one lowering.
    assert record["calls"] == {
        "revenue_range": 1,
        "egalitarian_solve": 2,
        "enumerate_equilibria_grid": 1,
        "evaluate_contracts": 1,
        "verify_egalitarian": 1,
    }


READ_PROBE = """
import json, sys
import coopetition
from coopetition import cli

# contracts imports no other package module, and egalitarian and oracle
# import polytope, which is read before them, so each module is first loaded
# by its own read here.
record = {}
for name in ("position_vcg", "revenue_range", "vcg_bruteforce", "LoweringTrace"):
    home = "coopetition." + coopetition._HOME[name]
    loaded_before = home in sys.modules
    record[name] = [
        loaded_before,
        getattr(cli, name) is getattr(sys.modules[home], name),
        all(n in vars(cli) for n in coopetition._EXPORTS[coopetition._HOME[name]]),
    ]
for name in ("serialize_instance", "first_price_clear"):
    record[name] = not hasattr(cli, name)
print(json.dumps(record))
"""


def test_reading_any_exported_name_binds_its_module():
    # Any public name of a lazily bound module binds that module, with all
    # its exported names, on `cli`, not only the names its commands call; a
    # `model` or `mechanisms` name that `cli` does not import stays no
    # attribute of it.
    result = subprocess.run(
        [sys.executable, "-c", READ_PROBE], env=_package_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "position_vcg": [False, True, True],
        "vcg_bruteforce": [False, True, True],
        "revenue_range": [False, True, True],
        "LoweringTrace": [False, True, True],
        "serialize_instance": True,
        "first_price_clear": True,
    }


def _cold_stdout(argv):
    result = subprocess.run(
        [sys.executable, "-m", "coopetition", *argv],
        env=_package_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_non_utf8_bytes_on_a_real_stdin_under_the_c_locale():
    result = subprocess.run(
        [sys.executable, "-m", "coopetition", "solve", "-", "vcg", "--format", "json"],
        input=b"\xff\xfe", env={**_package_env(), "LC_ALL": "C"}, capture_output=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (1, b"")
    assert json.loads(result.stderr) == {
        "error": "cannot read -: not UTF-8 text (invalid start byte at byte 0)"
    }


def test_a_closed_stdin_under_a_real_interpreter():
    # The shell closes fd 0 before it starts the interpreter.
    script = 'exec "$0" -m coopetition solve - vcg --format json 0<&-'
    result = subprocess.run(
        ["sh", "-c", script, sys.executable], env=_package_env(), capture_output=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (1, b"")
    assert json.loads(result.stderr) == {"error": "cannot read -: stdin is closed"}


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


class TestSubparserDispatch:
    """`main` hands argv[1:] straight to the named command's subparser, and
    runs the full two-level parse only when argv names no command or the
    subparser leaves words over. On every argv, the exit status, stdout and
    stderr are those of the full parse alone."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_same_as_the_full_parse(self, capsys, monkeypatch, triangle_path):
        path = triangle_path
        corpus = [
            [],
            ["-h"],
            ["--help"],
            ["solve", "-h"],
            ["solve", path, "vcg", "-h"],
            ["bogus", path],
            ["sol", path, "vcg"],
            ["solve", path, "fast"],
            ["solve"],
            ["verify", path],
            ["oracle", path],
            ["oracle", path, "--epsilon", "1/2", "--budget", "many"],
            ["contracts", path, "--subsidy-grid"],
            ["polytope", path, "--form", "json"],
            ["polytope", path, "--format=json"],
            ["polytope", path, "--weights", "1,1,3", "--trace", "--format", "csv"],
            ["polytope", path, "--format", "xml"],
            ["solve", "--", path, "vcg"],
            ["solve", path, "vcg", "--"],
            ["solve", path, "--", "vcg", "--format", "json"],
            ["--format", "json", "solve", path, "vcg"],
            ["solve", path, "vcg", "--bogus"],
            ["solve", path, "vcg", "-x"],
            ["compare", path, "extra"],
            ["compare", "--trace", path, "--format", "json"],
            ["verify", path, "missing.json", "--format", "json"],
            ["solve", path, "vcg", "solve"],
        ]
        dispatched = [self.outcome(capsys, argv) for argv in corpus]
        # With no command known to `main`, every argv takes the full parse.
        monkeypatch.setattr(build_parser(), "commands", {})
        assert [self.outcome(capsys, argv) for argv in corpus] == dispatched
        codes = {code for code, _, _ in dispatched}
        assert codes == {0, 1, 2}

    def test_a_command_skips_the_full_parse(self, capsys, monkeypatch, triangle_path):
        def full_parse(argv):
            raise AssertionError(f"full parse of {argv}")

        monkeypatch.setattr(build_parser(), "parse_args", full_parse)
        code, out, _ = self.outcome(capsys, ["polytope", triangle_path, "--format", "json"])
        assert code == 0 and json.loads(out)["command"] == "polytope"


def _parse_error(err, fmt):
    if fmt == "json":
        return json.loads(err)["error"]
    if fmt == "csv":
        (header, (key, message)) = list(csv.reader(io.StringIO(err)))
        assert header == ["key", "value"] and key == "error"
        return message
    assert err.startswith("error: ")
    return err[len("error: "):].rstrip("\n")


# One JSON document of each kind that the decoder refuses before any field is
# read: an integer literal past the interpreter's int-to-str digit limit, and
# arrays nested past the recursion limit.
JSON_LEVEL = {
    "integer": ('{"value": ' + "1" * 5000 + "}", "value has 5000 digits"),
    "nesting": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
}


class TestJsonLevelErrors:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("kind", ["instance", "bids", "owned", "contracts"])
    @pytest.mark.parametrize("case", sorted(JSON_LEVEL))
    def test_reported_as_not_valid_json(self, capsys, tmp_path, case, kind, fmt):
        if case == "integer" and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("no int-to-str digit limit")
        text, detail = JSON_LEVEL[case]
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        (tmp_path / "t.json").write_text(TRIANGLE)
        (tmp_path / "o.json").write_text(OWNED)
        argv = {
            "instance": ["solve", bad, "vcg"],
            "bids": ["verify", tmp_path / "t.json", bad],
            "owned": ["contracts", bad],
            "contracts": ["contracts", tmp_path / "o.json", "--contracts", bad],
        }[kind]
        code, out, err = run(capsys, [*map(str, argv), "--format", fmt])
        assert code == 1 and out == ""
        message = _parse_error(err, fmt)
        prefix = "contract file is not valid JSON: " if kind == "contracts" else "not valid JSON: "
        assert message.startswith(prefix) and detail in message
        assert "set_int_max_str_digits" not in message


class TestStdinNamedTwice:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "argv, document, names",
        [
            (["verify", "-", "-"], TRIANGLE, "PATH and BIDS"),
            (["contracts", "-", "--contracts", "-"], OWNED, "PATH and --contracts"),
        ],
    )
    def test_refused_before_reading(self, capsys, monkeypatch, argv, document, names, fmt):
        # The second read of stdin would find it empty and report a JSON
        # error that names neither argument.
        stdin = io.StringIO(document)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, [*argv, "--format", fmt])
        assert code == 1 and out == ""
        expected = f"{names} both name stdin (-), which can be read only once"
        assert_error_report(err, fmt, expected)
        assert stdin.tell() == 0


class TestExitStatus:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_internal_error_exits_3(self, capsys, triangle_path, monkeypatch, fmt):
        # The triangle's revenue maximum (2) is re-verified; rejecting it
        # breaks an invariant of the cover search, which is not the user's fault.
        # Reading the name through `cli` binds polytope's names there before
        # the patch, so the patch is not left bound on `cli` for later tests.
        check = coopetition.cli.is_equilibrium

        def reject_the_maximum(polytope, bids):
            if sum(bids[k] for k in polytope.members) == 2:
                return EquilibriumResult(failure="rejected")
            return check(polytope, bids)

        monkeypatch.setattr(coopetition.polytope, "is_equilibrium", reject_the_maximum)
        code, out, err = run(capsys, ["compare", triangle_path, "--format", fmt])
        assert code == 3 and out == ""
        assert "Traceback" not in err
        message = _parse_error(err, fmt)
        assert message.startswith("internal error: the cover search and is_equilibrium")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("layer, mechanism", [("vcg", "vcg"), ("revenue_range", "bounds")])
    @pytest.mark.parametrize(
        "error, detail",
        [
            pytest.param(ValueError("max() arg"), "ValueError: max() arg", id="value"),
            pytest.param(RuntimeError("lost"), "RuntimeError: lost", id="runtime"),
            pytest.param(RecursionError("too deep"), "RecursionError: too deep", id="recursion"),
            pytest.param(KeyError("x"), "KeyError: 'x'", id="key"),
            pytest.param(ZeroDivisionError("by zero"), "ZeroDivisionError: by zero", id="zero"),
            pytest.param(AssertionError(), "AssertionError", id="assertion"),
            pytest.param(InternalError("a broken invariant"), "a broken invariant", id="internal"),
        ],
    )
    def test_any_other_exception_exits_3(
        self, capsys, triangle_path, monkeypatch, layer, mechanism, error, detail, fmt
    ):
        # Only an InstanceError is the input's fault. A builtin raised inside
        # a layer is a bug, whatever its type, and is reported as one: by its
        # type and message, except InternalError, whose message says it all.
        # `vcg` is bound when `cli` is imported and `revenue_range` on first
        # use; both are patched where the commands read them.
        def broken(*args):
            raise error.with_traceback(None)

        monkeypatch.setattr(cli, layer, broken)
        code, out, err = run(capsys, ["solve", triangle_path, mechanism, "--format", fmt])
        assert code == 3 and out == ""
        assert "Traceback" not in err
        assert_error_report(err, fmt, f"internal error: {detail}")

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

    def test_an_equilibrium_is_not_checked_again_for_ir_and_cef(
        self, capsys, triangle_path, tmp_path, monkeypatch
    ):
        # `is_equilibrium` has already checked IR and every envy-free row.
        def asked_again(*args):
            raise AssertionError("verify asked again")

        monkeypatch.setattr(coopetition.cli, "is_ir", asked_again)
        monkeypatch.setattr(coopetition.cli, "is_cef", asked_again)
        bids = tmp_path / "bids.json"
        bids.write_text('{"bids": {"A": "1", "B": "1", "C": "0"}}')
        code, out, _ = run(capsys, ["verify", triangle_path, str(bids), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert (report["is_ir"], report["is_cef"], report["is_equilibrium"]) == (True,) * 3

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


# Report strings that json must escape: quotes, backslashes, control
# characters, non-ASCII letters and characters outside the BMP.
AWKWARD = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600')),
    max_size=6,
)
REPORT_TREES = st.recursive(
    st.one_of(
        AWKWARD, st.booleans(), st.none(), st.integers(), st.integers(-(2**80), 2**80),
        st.builds(F, st.integers(), st.integers(1, 10**30)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(AWKWARD, inner, max_size=4)
    ),
    max_leaves=20,
)


# Scalars with terminating decimals (denominators of 2s and 5s), without,
# and with numerators past float range.
SCALARS = st.builds(
    F,
    st.one_of(st.integers(-(10**20), 10**20), st.integers(10**308, 10**310)),
    st.one_of(
        st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 40), st.integers(0, 40)),
        st.integers(1, 10**6),
    ),
)


@pytest.fixture
def dumps_checked(monkeypatch):
    """Every report `main` renders as JSON is written by both `render_json`
    and the `json.dumps` reference, which must agree byte for byte. Returns
    the list of reports seen."""
    reports = []

    def both(report):
        text = render_json(report)
        assert text == render_json_by_dumps(report)
        reports.append(report)
        return text

    monkeypatch.setattr(cli, "render_json", both)
    return reports


def _document(instance) -> dict:
    return json.loads(serialize_instance(instance))


class TestJson:
    def test_unrenderable_node_raises_type_error(self):
        with pytest.raises(TypeError, match=r"unrenderable report node: \{1\}"):
            render_json({"members": {1}})

    @pytest.mark.parametrize("node", [{1}, object(), b"bytes", 0.5j])
    def test_an_unknown_leaf_raises_type_error(self, node):
        with pytest.raises(TypeError, match="unrenderable report node"):
            render_json({"a": [{"b": node}]})
        with pytest.raises(TypeError):
            render_json_by_dumps({"a": [{"b": node}]})

    @pytest.mark.parametrize("key", [(1, 2), F(1, 2), 1, None])
    def test_a_non_str_key_raises_type_error(self, key):
        # json.dumps would write an int or None key as a string; report keys
        # are names and labels, so any other key is a bug.
        with pytest.raises(TypeError, match="unrenderable report key"):
            render_json({"a": {key: 1}})

    @given(st.dictionaries(AWKWARD, REPORT_TREES, max_size=5))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_json_dumps_on_report_trees(self, report):
        assert render_json(report) == render_json_by_dumps(report)

    @given(
        st.dictionaries(
            AWKWARD,
            st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.dictionaries(AWKWARD, SCALARS)),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_scalars_of_every_form_match_json_dumps(self, report):
        # Leaves written in place (a dict's scalars and strings) and those
        # written by the recursion (a list's) take the same formatter.
        assert render_json(report) == render_json_by_dumps(report)

    def test_empty_containers_and_nesting(self):
        report = {"a": {}, "b": [], "c": [{}, [], [{"d": [F(1, 3), True, None, 0]}]]}
        assert render_json(report) == render_json_by_dumps(report)

    def test_every_report_on_the_acceptance_family(self, capsys, tmp_path, dumps_checked):
        rng = random.Random(1818)
        bids = tmp_path / "bids.json"
        contracts = tmp_path / "contracts.json"
        path = tmp_path / "instance.json"
        for case in range(30):
            instance = random_instance(rng)
            names = instance.names
            owners = [names[min(instance.members(j))] for j in range(instance.m)]
            path.write_text(json.dumps({**_document(instance), "owners": owners, "slots": ["1", "1/2"]}))
            bids.write_text(json.dumps({"bids": {name: "1/3" for name in names[::2]}}))
            contracts.write_text(json.dumps({"contracts": [
                {"supporter": names[-1], "ad": 0, "amount": "1/4"},
            ]}))
            forms = [
                ["solve", str(path), "vcg"],
                ["solve", str(path), "egalitarian", "--trace"],
                ["solve", str(path), "bounds"],
                ["verify", str(path), str(bids)],
                ["compare", str(path), "--trace"],
                ["polytope", str(path)],
                ["oracle", str(path), "--epsilon", "1/2", "--budget", "3000"],
                ["contracts", str(path), "--contracts", str(contracts)],
                ["contracts", str(path), "--responder", names[0], "--subsidy-grid", "1:2"],
                ["verify", str(path), str(tmp_path / "missing.json")],
                ["polytope", str(path), "--weights", "1,x"],
            ]
            for argv in forms:
                code, _, _ = run(capsys, argv + ["--format", "json"])
                assert code in (0, 1)
        assert len(dumps_checked) == 30 * 11
        assert sum("error" in report for report in dumps_checked) > 60

    def test_every_report_on_wide_winners(self, capsys, tmp_path, dumps_checked):
        rng = random.Random(3248)
        path = tmp_path / "instance.json"
        bids = tmp_path / "bids.json"
        # A non-ASCII name with a quote reaches keys, labels and error texts.
        for members in (32, 40, 48):
            instance = rival_family(rng, members, rivals_per_member=2)
            doc = _document(instance)
            odd = 'W\u00e9"0'
            doc["advertisers"][0]["name"] = odd
            doc["ads"] = [[odd if name == "W0" else name for name in ad] for ad in doc["ads"]]
            path.write_text(json.dumps(doc))
            _, out, _ = run(capsys, ["solve", str(path), "egalitarian", "--format", "json"])
            # An equilibrium, and zero bids, which fail a row.
            for named in (json.loads(out)["bids"], dict.fromkeys(doc["ads"][0], "0")):
                bids.write_text(json.dumps({"bids": named}))
                code, _, _ = run(capsys, ["verify", str(path), str(bids), "--format", "json"])
                assert code == 0
            for argv in (
                ["solve", str(path), "vcg"],
                ["solve", str(path), "egalitarian", "--trace"],
                ["polytope", str(path)],
                ["oracle", str(path), "--epsilon", "1/2"],
                ["contracts", str(path)],
            ):
                code, _, _ = run(capsys, argv + ["--format", "json"])
                assert code in (0, 1)
        assert sum("error" in report for report in dumps_checked) == 6
        verdicts = [r["is_equilibrium"] for r in dumps_checked if r.get("command") == "verify"]
        assert verdicts == [True, False] * 3


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

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "weights, expected",
        [
            ("0,1,1", "weights[0]: must be strictly positive"),
            ("1,-1/2,0", "weights[1]: must be strictly positive"),
        ],
    )
    def test_non_positive_weight_is_named(self, capsys, triangle_path, weights, expected, fmt):
        argv = ["polytope", triangle_path, "--weights", weights, "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_error_report(err, fmt, expected)

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

    @pytest.mark.parametrize(
        "fmt, line",
        [
            ("json", '  "egalitarian_matches_grid": true'),
            ("csv", "egalitarian_matches_grid,true"),
            ("table", "egalitarian_matches_grid: true"),
        ],
    )
    def test_egalitarian_verdict_has_no_tolerance_false_alarm(self, capsys, tmp_path, fmt, line):
        # The egalitarian sorted surplus is (0, 0, 7/12, 7/12, 7/12) and the
        # grid's own lexmax at 1/8 is (0, 0, 1/2, 5/8, 5/8): within epsilon in
        # each entry, and exactly lower.
        path = tmp_path / "cold-5.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "3/2"}, {"name": "B", "value": "3/4"},'
            ' {"name": "C", "value": "1/4"}, {"name": "D", "value": "3/2"},'
            ' {"name": "E", "value": "5/4"}], "ads": [["C"], ["A", "C"], ["B", "D", "E"]]}'
        )
        code, out, _ = run(capsys, ["oracle", str(path), "--epsilon", "1/8", "--format", fmt])
        assert code == 0
        assert line in out.splitlines()
        assert "11/12" in out and "1/6" in out and "2/3" in out

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

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "options, expected",
        [
            (["--epsilon", "0"], "--epsilon: must be positive"),
            (["--epsilon=-1"], "--epsilon: must be positive"),
            (["--epsilon", "1/2", "--budget", "0"], "--budget: must be at least 1"),
        ],
    )
    def test_option_errors_name_the_option(self, capsys, triangle_path, options, expected, fmt):
        code, out, err = run(capsys, ["oracle", triangle_path, *options, "--format", fmt])
        assert code == 1 and out == ""
        assert_error_report(err, fmt, expected)

    def test_one_op_sweeps_the_grid_once(self, capsys, triangle_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        original = coopetition.oracle.enumerate_equilibria_grid
        for module in (cli, coopetition.oracle):
            monkeypatch.setattr(module, "enumerate_equilibria_grid", counted)
        code, out, _ = run(capsys, ["oracle", triangle_path, "--epsilon", "1/4"])
        assert code == 0 and "equilibrium_count: 5" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_empty_grid_asks_for_refinement(self, capsys, tmp_path, fmt):
        path = tmp_path / "empty.json"
        path.write_text(
            '{"advertisers": [{"name": "A", "value": "2.5"}, {"name": "E", "value": "2.3"}],'
            ' "ads": [["A"], ["E"]]}'
        )
        code, out, err = run(capsys, ["oracle", str(path), "--epsilon", "1", "--format", fmt])
        assert code == 1 and out == ""
        assert_error_report(err, fmt, "no equilibrium on the grid at resolution 1; refine epsilon")


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
        assert_error_report(err, fmt, "--subsidy-grid max: must be non-negative, got -5")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "options, expected",
        [
            (["--subsidy-grid", "0"], "--subsidy-grid step: must be positive"),
            (["--subsidy-grid=-1/2:3"], "--subsidy-grid step: must be positive"),
            (
                ["--contracts", "TERMS"],
                "--responder: must not be the supporter of a --contracts term",
            ),
        ],
    )
    def test_option_errors_name_the_option(self, capsys, tmp_path, options, expected, fmt):
        # The library's checks name its parameters (epsilon, others); the
        # report names the option the user typed.
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text('{"contracts": [{"supporter": "M", "ad": 0, "amount": "8"}]}')
        options = [str(terms) if option == "TERMS" else option for option in options]
        argv = ["contracts", str(path), "--responder", "M", *options, "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_error_report(err, fmt, expected)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_empty_subsidy_maximum_is_an_error_report(self, capsys, tmp_path, fmt):
        # A colon promises a maximum; an empty one is no "no maximum".
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        argv = ["contracts", str(path), "--responder", "M", "--subsidy-grid", "1/4:"]
        code, out, err = run(capsys, [*argv, "--format", fmt])
        assert code == 1 and out == ""
        assert_error_report(err, fmt, "--subsidy-grid max: not an exact number: ''")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_subsidy_grid_needs_a_responder(self, capsys, tmp_path, fmt):
        # Without --responder there is no search for the grid to shape.
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        code, out, err = run(capsys, ["contracts", str(path), "--subsidy-grid=-1", "--format", fmt])
        assert code == 1 and out == ""
        assert_error_report(err, fmt, "--subsidy-grid: needs --responder")

    def test_fixed_terms_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text('{"contracts": [{"supporter": "M", "ad": 0, "amount": "8"}]}')
        code, out, _ = run(capsys, ["contracts", str(path), "--contracts", str(terms)])
        assert code == 0
        assert "assignment: ad 0 {S, M}=0" in out
        assert "M=2" in out

    @pytest.mark.parametrize(
        "term, message",
        [
            (
                '{"supporter": "M", "ad": 0, "amount": "-1"}',
                "contracts[0].amount: must be non-negative",
            ),
            (
                '{"supporter": "M", "ad": 0, "fraction": "3/2", "cap": "1", "subsidy": "0"}',
                "contracts[0].fraction: must be in [0, 1]",
            ),
        ],
        ids=["amount", "fraction"],
    )
    def test_out_of_range_term_names_its_field(self, capsys, tmp_path, term, message):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text(f'{{"contracts": [{term}]}}')
        code, out, err = run(
            capsys, ["contracts", str(path), "--contracts", str(terms), "--format", "json"]
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("extra", ['"fraction": "1/2", "cap": "9"', '"subsidy": "0"'])
    def test_term_mixing_both_forms_is_an_error_report(self, capsys, tmp_path, extra, fmt):
        # A committed amount next to a share, cap or subsidy is not read as
        # either form: the user's numbers would be silently dropped.
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text(
            '{"contracts": [{"supporter": "M", "ad": 0, "amount": "8"},'
            f' {{"supporter": "M", "ad": 1, "amount": "1", {extra}}}]}}'
        )
        argv = ["contracts", str(path), "--contracts", str(terms), "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        expected = 'give either "amount" or "fraction", "cap" and "subsidy", not both'
        assert_error_report(err, fmt, f"contracts[1]: {expected}")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "document, expected",
        [
            ("[]", 'contract file must hold {"contracts": [...]}'),
            ('{"contracts": {}}', 'contract file must hold {"contracts": [...]}'),
            ('{"contracts": [3]}', "contracts[0]: expected an object"),
            ('{"contracts": [{"supporter": "M", "ad": 0, "amount": "1"}, "M"]}',
             "contracts[1]: expected an object"),
            ('{"contracts": [{"supporter": "M", "ad": 5, "amount": "1"}]}',
             "contracts[0].ad: unknown ad index 5"),
            ('{"contracts": [{"supporter": "M", "ad": true, "amount": "1"}]}',
             "contracts[0].ad: unknown ad index True"),
            ('{"contracts": [{"supporter": "S", "ad": 1, "amount": "1"}]}',
             "contracts[0]: 'S' is not a member of ad 1 {M, D}"),
            ('{"contracts": [{"supporter": "S", "ad": 0, "amount": "1"}]}',
             "contracts[0]: 'S' owns ad 0 {S, M} and cannot support it"),
            ('{"contracts": [{"supporter": "M", "ad": 0, "amount": "1"},'
             ' {"supporter": "M", "ad": 0, "amount": "2"}]}',
             "contracts[1]: duplicate term from 'M' on ad 0 {S, M}"),
            # Terms are checked in document order: the first bad term is named.
            ('{"contracts": [{"supporter": "S", "ad": 1, "amount": "1"},'
             ' {"supporter": "M", "ad": 0, "amount": "x"}]}',
             "contracts[0]: 'S' is not a member of ad 1 {M, D}"),
            ('{"contracts": [{"supporter": "M", "ad": 0, "amount": "x"},'
             ' {"supporter": "S", "ad": 1, "amount": "1"}]}',
             "contracts[0].amount: not an exact number: 'x'"),
        ],
        ids=["list", "object", "entry", "second-entry", "ad-range", "ad-bool", "member", "owner",
             "duplicate", "order", "order-reversed"],
    )
    def test_contract_file_errors_name_their_term(self, capsys, tmp_path, document, expected, fmt):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text(document)
        argv = ["contracts", str(path), "--contracts", str(terms), "--format", fmt]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert_error_report(err, fmt, expected)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_unknown_responder_is_an_error_report(self, capsys, tmp_path, fmt):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        code, out, err = run(capsys, ["contracts", str(path), "--responder", "Z", "--format", fmt])
        assert code == 1 and out == ""
        assert_error_report(err, fmt, "--responder: unknown advertiser 'Z'")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_empty_slot_list_is_an_error_report(self, capsys, tmp_path, fmt):
        path = tmp_path / "owned.json"
        path.write_text(OWNED.replace('"slots": ["1"]', '"slots": []'))
        code, out, err = run(capsys, ["contracts", str(path), "--format", fmt])
        assert code == 1 and out == ""
        assert_error_report(err, fmt, "slots: expected a non-empty list of click rates")

    def test_malformed_terms_are_an_error(self, capsys, tmp_path):
        path = tmp_path / "owned.json"
        path.write_text(OWNED)
        terms = tmp_path / "terms.json"
        terms.write_text('{"contracts": [{"supporter": "Q", "ad": 0, "amount": "1"}]}')
        code, _, err = run(capsys, ["contracts", str(path), "--contracts", str(terms)])
        assert code == 1
        assert "unknown supporter 'Q'" in err

"""Golden reports: the exact bytes of `solve egalitarian --trace`, of
`verify` on a passing and a failing bid file, of `polytope` with unit
weights and with one fixed `--weights` vector, and of `oracle --epsilon 1/4`,
in all three formats, for the triangle and a seeded rival-family winner
(`rival_family(Random(200), 4, 2)`, whose first lowering round has a bid
reaching zero and a rival going tight together, and whose certificate has a
zero bid). Also the exact bytes of `contracts`, in all three formats, on two
owned auctions: the triangle owned by A, D and E with two slots and a
`--contracts` file whose first term's cap binds and whose second term's share
binds, and the entrant market, where M's `--responder` search on the grid
`1/4:11` pledges 8 on the ad S owns. The inputs and the expected reports live
in `tests/golden/`.

A deliberate change to a report is written back with

    PYTHONPATH=src python tests/test_golden.py

and the diff of `tests/golden/` is then the change to review.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from coopetition.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")
# One weight per winning member, in member order, none of them equal.
WEIGHTS = {"triangle": "1,2,3", "rival": "1/2,3,1,5/4"}
COMMANDS = {
    "solve-egalitarian": lambda name: ["solve", f"{name}.json", "egalitarian", "--trace"],
    "verify-pass": lambda name: ["verify", f"{name}.json", f"{name}-pass.json"],
    "verify-fail": lambda name: ["verify", f"{name}.json", f"{name}-fail.json"],
    "polytope": lambda name: ["polytope", f"{name}.json"],
    "polytope-weighted": lambda name: ["polytope", f"{name}.json", "--weights", WEIGHTS[name]],
    "oracle": lambda name: ["oracle", f"{name}.json", "--epsilon", "1/4"],
    "contracts": lambda name: ["contracts", f"{name}.json", *CONTRACT_OPTIONS[name]],
}
# The owned auctions and their `contracts` options.
CONTRACT_OPTIONS = {
    "owned": ["--contracts", "owned-terms.json"],
    "entrant": ["--responder", "M", "--subsidy-grid", "1/4:11"],
}
CASES = [
    (name, command, fmt)
    for name in ("triangle", "rival")
    for command in COMMANDS
    if command != "contracts"
    for fmt in FORMATS
] + [(name, "contracts", fmt) for name in CONTRACT_OPTIONS for fmt in FORMATS]


def report(name: str, command: str, fmt: str) -> str:
    """The command's standard output; it must exit 0 and write no error."""
    argv = [str(GOLDEN / arg) if arg.endswith(".json") else arg for arg in COMMANDS[command](name)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def expected_path(name: str, command: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{command}.{fmt}"


@pytest.mark.parametrize("name, command, fmt", CASES)
def test_report_bytes(name, command, fmt):
    expected = expected_path(name, command, fmt).read_bytes().decode("utf-8")
    assert report(name, command, fmt) == expected


if __name__ == "__main__":
    for case in CASES:
        expected_path(*case).write_bytes(report(*case).encode("utf-8"))

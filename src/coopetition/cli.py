"""Command-line front end.

Commands:
  solve PATH {vcg,egalitarian,bounds}   run one mechanism on an instance
  verify PATH BIDS                      check a bid profile (IR / CEF / equilibrium)
  compare PATH                          revenue comparison across mechanisms
  polytope PATH [--weights W1,W2,...]   sample a Pareto-minimal equilibrium
  oracle PATH --epsilon EPS [--budget N]  grid cross-check of the exact solvers
  contracts PATH [--contracts FILE] [--responder NAME] [--subsidy-grid STEP[:MAX]]

PATH is an instance file or "-" for stdin. Global flags: --format
{table,csv,json} and --trace (round-by-round log of the lowering algorithm).

Reports keep scalars exact: JSON and CSV emit terminating decimals or "p/q"
strings that re-parse to the same rational; the table format additionally
shows a float approximation when the decimal does not terminate. The exit
status is 0 for a report and 1 for an error report; a broken invariant of
the package is reported as an "internal error: ..." error report with exit
status 3, and argparse exits 2 on a usage error.

Contract files hold {"contracts": [...]} where each term is either
{"supporter": name, "ad": index, "amount": x} (a committed pledge) or the
explicit {"supporter", "ad", "fraction", "cap", "subsidy"} form.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Sequence

from . import _EXPORTS, _HOME
from .mechanisms import revenue_lower_bound, vcg, welfare_ties
from .model import (
    AuctionInstance,
    GridSpec,
    InstanceError,
    InternalError,
    display_scalar,
    format_scalar,
    load_document,
    parse_bids,
    parse_instance,
    parse_scalar,
    ratio_text,
    settle,
)

# Modules a command binds into this module on first use (`_bind`), with the
# names the package exports from each, so a cold start imports only the
# modules its command runs. Reading one of those names before any command
# has run binds its module too (`__getattr__`), which is how a caller can
# wrap `cli.revenue_range` and have every command call the wrap.
_LAZY = ("contracts", "egalitarian", "oracle", "polytope")
_bound: set[str] = set()


def _bind(*modules: str) -> None:
    """Import `modules` and bind their exported names here; a name already
    set on this module (a caller's wrap, a test's patch) is kept."""
    for module in modules:
        if module not in _bound:
            source = importlib.import_module(f".{module}", __package__)
            for name in _EXPORTS[module]:
                globals().setdefault(name, getattr(source, name))
            _bound.add(module)


def __getattr__(name: str):
    if _HOME.get(name) in _LAZY:
        _bind(_HOME[name])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


Node = Any  # Fraction | bool | int | str | list[Node] | dict[str, Node]


class CliError(Exception):
    pass


def _read_text(path: str) -> str:
    """A file's text, or stdin's for "-". Stdin's bytes are decoded as a file
    is, strict UTF-8 with universal newlines, whatever the locale; a stdin
    replaced by a stream without `buffer` (a StringIO) is read as text."""
    try:
        if path == "-":
            stdin = getattr(sys.stdin, "buffer", None)
            if stdin is None:
                return sys.stdin.read()
            return io.TextIOWrapper(io.BytesIO(stdin.read()), encoding="utf-8").read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def _load_instance(path: str) -> AuctionInstance:
    return parse_instance(_read_text(path))


def _named(instance: AuctionInstance, profile: Sequence[Fraction]) -> dict[str, Node]:
    return dict(zip(instance.names, profile))


# Rendering ------------------------------------------------------------------


def render_json(report: dict[str, Node]) -> str:
    """The report as JSON indented by two spaces, byte for byte as
    `json.dumps` writes it with that indent and Fractions as exact strings.
    Written by hand: with `indent` set, json encodes in pure Python."""
    chunks: list[str] = []
    _write_json(report, "\n", chunks)
    return "".join(chunks)


def _write_json(node: Node, newline: str, chunks: list[str]) -> None:
    if isinstance(node, Fraction):
        chunks.append(f'"{ratio_text(*node.as_integer_ratio())}"')
    elif isinstance(node, str):
        chunks.append(_quote(node))
    elif node is None:
        chunks.append("null")
    elif node is True:
        chunks.append("true")
    elif node is False:
        chunks.append("false")
    elif isinstance(node, int):
        chunks.append(int.__repr__(node))
    elif isinstance(node, dict):
        if not node:
            chunks.append("{}")
            return
        inner = newline + "  "
        opening, separator = "{" + inner, "," + inner
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(f"unrenderable report key: {key!r}")
            if isinstance(value, Fraction):  # the common leaf, written in place
                chunks.append(f'{opening}{_quote(key)}: "{ratio_text(*value.as_integer_ratio())}"')
            else:
                chunks.append(f"{opening}{_quote(key)}: ")
                _write_json(value, inner, chunks)
            opening = separator
        chunks.append(newline + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            chunks.append("[]")
            return
        inner = newline + "  "
        opening, separator = "[" + inner, "," + inner
        for value in node:
            chunks.append(opening)
            _write_json(value, inner, chunks)
            opening = separator
        chunks.append(newline + "]")
    else:
        raise TypeError(f"unrenderable report node: {node!r}")


def _cell(node: Node, scalar: Callable[[Fraction], str]) -> str:
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, Fraction):
        return scalar(node)
    return str(node)


def _flatten(node: Node, prefix: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{prefix}.{key}" if prefix else key, rows)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _flatten(value, f"{prefix}[{index}]", rows)
    else:
        rows.append((prefix, _cell(node, format_scalar)))


def render_csv(report: dict[str, Node]) -> str:
    import csv

    rows: list[tuple[str, str]] = []
    _flatten(report, "", rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buffer.getvalue()


def _table_lines(node: Node, prefix: str, lines: list[str], indent: str) -> None:
    if isinstance(node, dict):
        if all(not isinstance(v, (dict, list)) for v in node.values()):
            joined = ", ".join(f"{k}={_cell(v, display_scalar)}" for k, v in node.items())
            lines.append(f"{indent}{prefix}: {joined}")
        else:
            lines.append(f"{indent}{prefix}:")
            for key, value in node.items():
                _table_lines(value, key, lines, indent + "  ")
    elif isinstance(node, list):
        if all(not isinstance(v, (dict, list)) for v in node):
            lines.append(f"{indent}{prefix}:")
            for value in node:
                lines.append(f"{indent}  {_cell(value, display_scalar)}")
        else:
            lines.append(f"{indent}{prefix}:")
            for index, value in enumerate(node):
                _table_lines(value, f"[{index}]", lines, indent + "  ")
    else:
        lines.append(f"{indent}{prefix}: {_cell(node, display_scalar)}")


def render_table(report: dict[str, Node]) -> str:
    lines: list[str] = []
    for key, value in report.items():
        _table_lines(value, key, lines, "")
    return "\n".join(lines) + "\n"


def render(report: dict[str, Node], fmt: str) -> str:
    if fmt == "json":
        return render_json(report) + "\n"
    if fmt == "csv":
        return render_csv(report)
    return render_table(report)


# Commands -------------------------------------------------------------------


def _tie_notes(instance: AuctionInstance) -> list[str]:
    ties = welfare_ties(instance)
    if len(ties) > 1:
        labels = ", ".join(instance.label(j) for j in ties)
        return [f"welfare tie among {labels}; lowest ad id wins"]
    return []


def cmd_solve(args: argparse.Namespace) -> dict[str, Node]:
    instance = _load_instance(args.path)
    report: dict[str, Node] = {"command": f"solve {args.mechanism}"}
    if args.mechanism == "vcg":
        outcome = vcg(instance)
        report["winner"] = instance.label(outcome.winner)
        report["payments"] = _named(instance, outcome.payments)
        report["revenue"] = outcome.revenue
        report["surplus"] = _named(instance, outcome.surpluses)
    elif args.mechanism == "egalitarian":
        _bind("egalitarian")
        bids, outcome, trace = egalitarian_solve(instance)
        report["winner"] = instance.label(outcome.winner)
        report["bids"] = _named(instance, bids)
        report["payments"] = _named(instance, outcome.payments)
        report["revenue"] = outcome.revenue
        report["surplus"] = _named(instance, outcome.surpluses)
        if args.trace:
            report["trace"] = trace.describe(instance)
    else:
        _bind("polytope")
        polytope = build_polytope(instance)
        low, high = revenue_range(polytope)
        report["winner"] = instance.label(polytope.winner)
        report["revenue_lower_bound"] = revenue_lower_bound(instance)
        report["revenue_min"] = low
        report["revenue_max"] = high
    notes = _tie_notes(instance)
    if notes:
        report["notes"] = notes
    return report


def cmd_verify(args: argparse.Namespace) -> dict[str, Node]:
    _bind("polytope")
    instance = _load_instance(args.path)
    bids = parse_bids(_read_text(args.bids), instance)
    polytope = build_polytope(instance)
    canon = canonical_bids(polytope, bids)
    result = is_equilibrium(polytope, canon)
    # An equilibrium is IR and CEF; only a failure asks again which held.
    report: dict[str, Node] = {
        "command": "verify",
        "winner": instance.label(polytope.winner),
        "bids": _named(instance, canon),
        "is_ir": bool(result) or is_ir(instance, canon),
        "is_cef": bool(result) or is_cef(polytope, canon),
        "is_equilibrium": bool(result),
    }
    if result:
        witnesses = result.witnesses
        labels = {ad: instance.label(ad) for ad in set(witnesses.values()) - {None}}
        labels[None] = "zero bid"
        report["certificate"] = {instance.names[k]: labels[witnesses[k]] for k in polytope.members}
    else:
        report["failure"] = result.failure
    return report


def cmd_compare(args: argparse.Namespace) -> dict[str, Node]:
    _bind("egalitarian", "polytope")
    instance = _load_instance(args.path)
    vcg_result = vcg(instance)
    bids, outcome, trace = egalitarian_solve(instance)
    low, high = revenue_range(build_polytope(instance))
    lower = revenue_lower_bound(instance)
    report: dict[str, Node] = {
        "command": "compare",
        "winner": instance.label(vcg_result.winner),
        "vcg_revenue": vcg_result.revenue,
        "egalitarian_revenue": outcome.revenue,
        "revenue_lower_bound": lower,
        "revenue_min": low,
        "revenue_max": high,
    }
    notes = [
        "egalitarian revenue >= vcg revenue"
        if outcome.revenue >= vcg_result.revenue
        else "egalitarian revenue < vcg revenue",
        "equilibrium revenue floor >= vcg revenue"
        if low >= vcg_result.revenue
        else "equilibrium revenue floor < vcg revenue",
    ]
    report["notes"] = notes + _tie_notes(instance)
    if args.trace:
        report["trace"] = trace.describe(instance)
    return report


def _parse_weights(text: str, count: int) -> list[Fraction]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != count:
        raise CliError(f"--weights expects {count} comma-separated values")
    weights = [parse_scalar(part, where=f"weights[{k}]") for k, part in enumerate(parts)]
    return weights


def cmd_polytope(args: argparse.Namespace) -> dict[str, Node]:
    _bind("polytope")
    instance = _load_instance(args.path)
    polytope = build_polytope(instance)
    members = polytope.members
    if args.weights is None:
        weights = [Fraction(1)] * len(members)
    else:
        weights = _parse_weights(args.weights, len(members))
    bids = sample_pareto_equilibrium(polytope, weights)
    outcome = settle(instance, polytope.winner, bids)
    names, units, scale = instance.names, instance._units, instance._scale
    constraints = []
    for row in polytope.constraints:
        # The bid-form rhs of `CefPolytope.rhs`, reduced once.
        rhs = sum([units[i] for i in row.bidders]) - row.room
        common = math.gcd(rhs, scale)
        constraints.append(
            f"{' + '.join([names[i] for i in sorted(row.bidders)])} >= "
            f"{ratio_text(rhs // common, scale // common)}  (vs {instance.label(row.ad)})"
        )
    return {
        "command": "polytope",
        "winner": instance.label(polytope.winner),
        "members": [instance.names[i] for i in members],
        "weights": {instance.names[i]: w for i, w in zip(members, weights)},
        "constraints": constraints,
        "bids": _named(instance, bids),
        "revenue": outcome.revenue,
    }


def cmd_oracle(args: argparse.Namespace) -> dict[str, Node]:
    _bind("oracle", "egalitarian")
    instance = _load_instance(args.path)
    epsilon = parse_scalar(args.epsilon, where="--epsilon")
    grid = (
        GridSpec(epsilon=epsilon, budget=args.budget)
        if args.budget is not None
        else GridSpec(epsilon=epsilon)
    )
    equilibria = enumerate_equilibria_grid(instance, grid)
    lexmax = lexmax_surplus_grid(instance, grid)
    exact = vcg(instance)
    brute = vcg_bruteforce(instance)
    egal_bids, egal_outcome, _ = egalitarian_solve(instance)
    return {
        "command": "oracle",
        "epsilon": grid.epsilon,
        "equilibrium_count": len(equilibria),
        "lexmax_bids": _named(instance, lexmax),
        "vcg_payments": _named(instance, exact.payments),
        "vcg_bruteforce_payments": _named(instance, brute.payments),
        "vcg_agrees": exact == brute,
        "egalitarian_bids": _named(instance, egal_bids),
        "egalitarian_matches_grid": verify_egalitarian(instance, egal_bids, grid),
    }


def _parse_contract_terms(text: str, owned: OwnedAuction) -> list[ContractTerm]:
    instance = owned.instance
    try:
        doc = load_document(text)
    except InstanceError as exc:
        raise CliError(f"contract file is {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("contracts"), list):
        raise CliError('contract file must hold {"contracts": [...]}')
    terms = []
    for k, entry in enumerate(doc["contracts"]):
        where = f"contracts[{k}]"
        if not isinstance(entry, dict):
            raise CliError(f"{where}: expected an object")
        name = entry.get("supporter")
        if not isinstance(name, str) or name not in instance.names:
            raise CliError(f"{where}: unknown supporter {name!r}")
        supporter = instance.index(name)
        ad = entry.get("ad")
        if not isinstance(ad, int) or isinstance(ad, bool) or not 0 <= ad < instance.m:
            raise CliError(f"{where}: ad must be an index in [0, {instance.m})")
        committed = "amount" in entry
        fields = ("amount",) if committed else ("fraction", "cap", "subsidy")
        scalars = {name: parse_scalar(entry.get(name), where=f"{where}.{name}") for name in fields}
        try:
            if committed:
                term = ContractTerm.committed(supporter, ad, scalars["amount"])
            else:
                term = ContractTerm(supporter=supporter, ad=ad, **scalars)
        except ValueError as exc:
            # A term's checks open with the field they reject ("cap must be
            # non-negative"); a committed amount is both the cap and the subsidy.
            field, _, problem = str(exc).partition(" ")
            raise CliError(f"{where}.{'amount' if committed else field}: {problem}") from None
        terms.append(term)
    return terms


def _term_node(owned: OwnedAuction, term: ContractTerm) -> dict[str, Node]:
    return {
        "supporter": owned.instance.names[term.supporter],
        "ad": owned.instance.label(term.ad),
        "fraction": term.fraction,
        "cap": term.cap,
        "subsidy": term.subsidy,
    }


def _outcome_node(owned: OwnedAuction, outcome) -> dict[str, Node]:
    instance = owned.instance
    return {
        "assignment": {
            instance.label(ad): slot for ad, slot in sorted(outcome.assignment.items())
        },
        "prices": {
            instance.label(ad): outcome.prices[ad] for ad in sorted(outcome.prices)
        },
        "utilities": _named(instance, outcome.utilities),
    }


def cmd_contracts(args: argparse.Namespace) -> dict[str, Node]:
    _bind("contracts")
    owned = parse_owned_auction(_read_text(args.path))
    instance = owned.instance
    terms = (
        _parse_contract_terms(_read_text(args.contracts), owned)
        if args.contracts
        else []
    )
    report: dict[str, Node] = {
        "command": "contracts",
        "owners": {
            instance.label(j): instance.names[owned.owners[j]]
            for j in range(instance.m)
        },
        "slots": list(owned.slots),
        "contracts": [_term_node(owned, term) for term in terms],
    }
    if args.responder is not None:
        if args.responder not in instance.names:
            raise CliError(f"--responder: unknown advertiser {args.responder!r}")
        responder = instance.index(args.responder)
        step_text, _, max_text = args.subsidy_grid.partition(":")
        step = parse_scalar(step_text, where="--subsidy-grid step")
        ceiling = (
            parse_scalar(max_text, where="--subsidy-grid max") if max_text else None
        )
        grid = GridSpec(epsilon=step)
        best = best_response_contract(owned, responder, terms, grid, max_subsidy=ceiling)
        report["responder"] = args.responder
        report["best_response"] = [_term_node(owned, term) for term in best]
        outcome = evaluate_contracts(owned, tuple(terms) + best)
    else:
        outcome = evaluate_contracts(owned, terms)
    report["outcome"] = _outcome_node(owned, outcome)
    return report


# Entry point ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the life of the
    process; `parse_args` keeps no state between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table)",
    )
    common.add_argument(
        "--trace",
        action="store_true",
        help="include the round-by-round lowering log where applicable",
    )
    parser = argparse.ArgumentParser(
        prog="coopetition",
        description="Laboratory for coopetitive single-slot ad auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="run one mechanism")
    p_solve.add_argument("path", help="instance file, or - for stdin")
    p_solve.add_argument("mechanism", choices=("vcg", "egalitarian", "bounds"))
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", parents=[common], help="check a bid profile")
    p_verify.add_argument("path", help="instance file, or - for stdin")
    p_verify.add_argument("bids", help="bid file, or - for stdin")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare", parents=[common], help="compare mechanisms")
    p_compare.add_argument("path", help="instance file, or - for stdin")
    p_compare.set_defaults(func=cmd_compare)

    p_poly = sub.add_parser(
        "polytope", parents=[common], help="sample a Pareto-minimal equilibrium"
    )
    p_poly.add_argument("path", help="instance file, or - for stdin")
    p_poly.add_argument(
        "--weights",
        help="comma-separated positive weights, one per winning-ad member "
        "in instance order (default: all ones)",
    )
    p_poly.set_defaults(func=cmd_polytope)

    p_oracle = sub.add_parser(
        "oracle", parents=[common], help="grid cross-check of the exact solvers"
    )
    p_oracle.add_argument("path", help="instance file, or - for stdin")
    p_oracle.add_argument("--epsilon", required=True, help="grid resolution")
    p_oracle.add_argument(
        "--budget", type=int, default=None, help="grid point budget (default 10^7)"
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_contracts = sub.add_parser(
        "contracts", parents=[common], help="evaluate cost-sharing contracts"
    )
    p_contracts.add_argument("path", help="owned-auction file, or - for stdin")
    p_contracts.add_argument(
        "--contracts", default=None, help="JSON file with fixed contract terms"
    )
    p_contracts.add_argument(
        "--responder", default=None, help="advertiser to best-respond for"
    )
    p_contracts.add_argument(
        "--subsidy-grid",
        default="1",
        help="STEP or STEP:MAX grid for the responder's subsidy search (default: 1)",
    )
    p_contracts.set_defaults(func=cmd_contracts)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = render(args.func(args), args.format)
    except InternalError as exc:
        sys.stderr.write(render({"error": f"internal error: {exc}"}, args.format))
        return 3
    except (CliError, InstanceError, RuntimeError, ValueError) as exc:
        sys.stderr.write(render({"error": str(exc)}, args.format))
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

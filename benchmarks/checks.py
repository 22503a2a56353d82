"""Output checks for benchmark operations, run outside the timed region.

Reports in any of the three formats are flattened to one mapping from key
path (``payments.A``, ``trace[0]``, ``outcome.utilities.M``) to the rendered
string, the same keys the CSV format prints. Every checker returns ``None``
when the report is right and a one-line reason when it is not.

The equilibrium, bottleneck, VCG, revenue-bound and contract checks are
written here from the definitions, independently of the package; the LP
value is compared with ``scipy.optimize.linprog``. VCG uses the Clarke pivot
rule rather than ``coopetition.oracle.vcg_bruteforce``, which takes 0.4-1.2 s
per instance at the sizes of the ``wide`` workload; the tests check that the
two agree.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from itertools import product

from generate import cef_rows, doc_values, winner_members

LP_RELATIVE_TOLERANCE = 1e-9

# Keys the table renderer prints as "key: name=value, ..." or as a list of
# plain cells; every other "key: text" line is a scalar.
_TABLE_MAPPINGS = {
    "assignment", "bids", "certificate", "egalitarian_bids", "lexmax_bids",
    "owners", "payments", "prices", "surplus", "utilities", "vcg_bruteforce_payments",
    "vcg_payments", "weights",
}
_TABLE_LISTS = {"constraints", "members", "notes", "slots", "trace"}
_LABEL = r"ad \d+ \{[^}]*\}"
_PAIR = re.compile(rf"({_LABEL}|[^=,][^=]*?)=({_LABEL}|[^,]*)(?:, |$)")
_ITEM = re.compile(r"^\[(\d+)\]$")


def _flatten(node, prefix: str, flat: dict[str, str]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{prefix}.{key}" if prefix else key, flat)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _flatten(value, f"{prefix}[{index}]", flat)
    elif isinstance(node, bool):
        flat[prefix] = "true" if node else "false"
    else:
        flat[prefix] = str(node)


def _join(parent: str, key: str) -> str:
    if _ITEM.match(key):
        return parent + key
    return f"{parent}.{key}" if parent else key


def _parse_table(text: str) -> dict[str, str]:
    flat: dict[str, str] = {}
    stack: list[tuple[int, str]] = []  # (indent of children, path)
    list_items: dict[str, int] = {}
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        body = line.strip()
        while stack and indent < stack[-1][0]:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if parent in list_items:
            flat[f"{parent}[{list_items[parent]}]"] = body
            list_items[parent] += 1
            continue
        key, sep, rest = body.partition(": ")
        if not sep:
            key = body.rstrip(":")
            path = _join(parent, key)
            stack.append((indent + 2, path))
            if key in _TABLE_LISTS:
                list_items[path] = 0
            continue
        path = _join(parent, key)
        if key in _TABLE_MAPPINGS or _ITEM.match(key):
            for match in _PAIR.finditer(rest):
                flat[f"{path}.{match.group(1)}"] = match.group(2)
        else:
            flat[path] = rest
    return flat


def parse_report(text: str, fmt: str) -> dict[str, str]:
    """Flatten a rendered report to {key path: rendered scalar}."""
    if fmt == "json":
        flat: dict[str, str] = {}
        _flatten(json.loads(text), "", flat)
        return flat
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["key", "value"]:
            raise ValueError("csv report lacks its key,value header")
        return {key: value for key, value in rows[1:]}
    return _parse_table(text)


def number(text: str) -> Fraction:
    """Exact scalar from any format; drops the table's "(~float)" hint."""
    return Fraction(text.split(" (~")[0])


def named(flat: dict[str, str], key: str) -> dict[str, Fraction]:
    prefix = key + "."
    return {k[len(prefix):]: number(v) for k, v in flat.items() if k.startswith(prefix)}


def _truth(flat: dict[str, str], key: str) -> bool:
    value = flat.get(key)
    if value not in ("true", "false"):
        raise ValueError(f"{key}: expected true/false, got {value!r}")
    return value == "true"


# Exact conditions on bid profiles ------------------------------------------


def equilibrium_failure(doc: dict, bids: dict[str, Fraction]) -> str | None:
    """IR, CEF, and every positive member pinned by a tight row excluding it."""
    values = doc_values(doc)
    members, rows = cef_rows(doc)
    for name in members:
        if not 0 <= bids[name] <= values[name]:
            return f"not IR at {name}"
    slacks = [sum((bids[b] for b in bidders), Fraction(0)) - rhs for bidders, rhs in rows]
    if any(slack < 0 for slack in slacks):
        return "not CEF"
    pinned = set()
    for (bidders, _), slack in zip(rows, slacks):
        if slack == 0:
            pinned.update(bidders)
    for name in members:
        if bids[name] > 0 and name not in pinned:
            return f"{name} is positive and unpinned"
    return None


def bottleneck_failure(doc: dict, bids: dict[str, Fraction]) -> str | None:
    """Exact lexmax-surplus certificate (max-min fairness bottleneck).

    Every member bids zero or lies on a tight row on which no member has a
    larger surplus value - bid.
    """
    failure = equilibrium_failure(doc, bids)
    if failure is not None:
        return failure
    values = doc_values(doc)
    members, rows = cef_rows(doc)
    surplus = {name: values[name] - bids[name] for name in members}
    tight = [
        bidders
        for bidders, rhs in rows
        if sum((bids[b] for b in bidders), Fraction(0)) == rhs
    ]
    bottlenecked = set()
    for bidders in tight:
        top = max(surplus[b] for b in bidders)
        bottlenecked.update(b for b in bidders if surplus[b] == top)
    for name in members:
        if bids[name] != 0 and name not in bottlenecked:
            return f"{name} has no bottleneck row"
    return None


def lp_minimum(doc: dict, weights: list[Fraction]) -> float:
    """min weights . bids over the CEF polytope, by floating-point HiGHS."""
    from scipy.optimize import linprog

    values = doc_values(doc)
    members, rows = cef_rows(doc)
    position = {name: p for p, name in enumerate(members)}
    a_ub = []
    b_ub = []
    for bidders, rhs in rows:
        row = [0.0] * len(members)
        for b in bidders:
            row[position[b]] = -1.0
        a_ub.append(row)
        b_ub.append(-float(rhs))
    result = linprog(
        [float(w) for w in weights],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        bounds=[(0.0, float(values[name])) for name in members],
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return float(result.fun)


def _lp_mismatch(exact: Fraction, reference: float) -> bool:
    return abs(float(exact) - reference) > LP_RELATIVE_TOLERANCE * max(1.0, abs(reference))


def outside_pressure(doc: dict) -> Fraction:
    """Best rival total over advertisers outside the winning ad."""
    values = doc_values(doc)
    winner = set(winner_members(doc))
    totals = [
        sum((values[name] for name in ad if name not in winner), Fraction(0))
        for ad in doc["ads"]
        if set(ad) != winner
    ]
    return max(totals, default=Fraction(0))


def _member_bids(doc: dict, flat: dict[str, str], key: str) -> dict[str, Fraction]:
    bids = named(flat, key)
    values = doc_values(doc)
    members = set(winner_members(doc))
    for name, value in values.items():
        if name not in members and bids.get(name) != value:
            return {}
    return {name: bids[name] for name in members if name in bids}


# Per-command checkers --------------------------------------------------------


def check_polytope(doc: dict, weights: list[Fraction], flat: dict[str, str]) -> str | None:
    members = winner_members(doc)
    bids = _member_bids(doc, flat, "bids")
    if sorted(bids) != sorted(members):
        return "bids do not cover the winner, or non-members moved"
    failure = equilibrium_failure(doc, bids)
    if failure is not None:
        return failure
    if number(flat["revenue"]) != sum(bids.values(), Fraction(0)):
        return "revenue is not the sum of member bids"
    reported = named(flat, "weights")
    if [reported.get(name) for name in members] != weights:
        return "weights echoed wrongly"
    value = sum((w * bids[name] for w, name in zip(weights, members)), Fraction(0))
    if _lp_mismatch(value, lp_minimum(doc, weights)):
        return "LP value differs from the reference"
    return None


def clarke_payments(doc: dict) -> dict[str, Fraction]:
    """VCG from the definition: each winning member pays the welfare the
    others lose by its presence, the best total they could reach without it
    minus what they get."""
    values = doc_values(doc)
    members = winner_members(doc)
    welfare = sum((values[name] for name in members), Fraction(0))
    ads = [(set(ad), sum((values[name] for name in ad), Fraction(0))) for ad in doc["ads"]]
    payments = {name: Fraction(0) for name in values}
    for name in members:
        without = max(total - values[name] if name in ad else total for ad, total in ads)
        payments[name] = max(Fraction(0), without - (welfare - values[name]))
    return payments


def _vcg_failure(doc: dict, payments: dict[str, Fraction], revenue: Fraction) -> str | None:
    expected = clarke_payments(doc)
    if payments != expected:
        return "VCG payments differ from the Clarke pivot rule"
    if revenue != sum(expected.values(), Fraction(0)):
        return "VCG revenue is not the sum of the payments"
    return None


def check_vcg(doc: dict, flat: dict[str, str]) -> str | None:
    return _vcg_failure(doc, named(flat, "payments"), number(flat["revenue"]))


def check_egalitarian(doc: dict, flat: dict[str, str], traced: bool) -> str | None:
    bids = _member_bids(doc, flat, "bids")
    if sorted(bids) != sorted(winner_members(doc)):
        return "bids do not cover the winner, or non-members moved"
    failure = bottleneck_failure(doc, bids)
    if failure is not None:
        return failure
    payments = named(flat, "payments")
    if any(payments[name] != bid for name, bid in bids.items()):
        return "members do not pay their bids"
    if number(flat["revenue"]) != sum(bids.values(), Fraction(0)):
        return "revenue is not the sum of member bids"
    if traced and "trace[1]" not in flat:
        return "trace requested but missing"
    return None


def check_verify(doc: dict, bids_doc: dict, flat: dict[str, str]) -> str | None:
    values = doc_values(doc)
    members, rows = cef_rows(doc)
    bids = {name: Fraction(bids_doc["bids"].get(name, values[name])) for name in members}
    ir = all(0 <= bids[name] <= values[name] for name in members)
    cef = all(sum((bids[b] for b in bidders), Fraction(0)) >= rhs for bidders, rhs in rows)
    equilibrium = equilibrium_failure(doc, bids) is None
    if (_truth(flat, "is_ir"), _truth(flat, "is_cef"), _truth(flat, "is_equilibrium")) != (
        ir,
        cef,
        equilibrium,
    ):
        return "IR / CEF / equilibrium flags differ from the exact check"
    if _member_bids(doc, flat, "bids") != bids:
        return "echoed bids differ from the bid file"
    return None


def check_bounds(doc: dict, flat: dict[str, str], compare: bool) -> str | None:
    lower = number(flat["revenue_lower_bound"])
    low = number(flat["revenue_min"])
    high = number(flat["revenue_max"])
    if lower != outside_pressure(doc):
        return "revenue_lower_bound is not the best outside rival total"
    if not lower <= low <= high:
        return "bounds out of order"
    members = winner_members(doc)
    if _lp_mismatch(low, lp_minimum(doc, [Fraction(1)] * len(members))):
        return "revenue_min differs from the reference LP"
    if compare:
        vcg_revenue = sum(clarke_payments(doc).values(), Fraction(0))
        if number(flat["vcg_revenue"]) != vcg_revenue:
            return "vcg_revenue differs from the Clarke pivot rule"
        if not vcg_revenue <= low <= number(flat["egalitarian_revenue"]) <= high:
            return "egalitarian or VCG revenue outside the equilibrium range"
    return None


def check_oracle(doc: dict, flat: dict[str, str], epsilon: Fraction) -> str | None:
    """Exact parts exactly; the grid lexmax by acceptance criterion 7's rule,
    within epsilon of the egalitarian bids in every coordinate.

    `egalitarian_matches_grid` is not required to be true: it compares
    sorted surplus vectors entry by entry with tolerance epsilon, and a tie
    within epsilon followed by a later larger entry can make a grid point
    look lexicographically happier than the exact optimum.
    """
    if not _truth(flat, "vcg_agrees"):
        return "oracle reports a VCG disagreement"
    if int(flat["equilibrium_count"]) < 1:
        return "no grid equilibrium"
    if named(flat, "vcg_bruteforce_payments") != named(flat, "vcg_payments"):
        return "breakpoint and closed-form VCG payments differ"
    payments = named(flat, "vcg_payments")
    failure = _vcg_failure(doc, payments, sum(payments.values(), Fraction(0)))
    if failure is not None:
        return failure
    bids = _member_bids(doc, flat, "egalitarian_bids")
    if sorted(bids) != sorted(winner_members(doc)):
        return "egalitarian bids do not cover the winner"
    failure = bottleneck_failure(doc, bids)
    if failure is not None:
        return failure
    lexmax = _member_bids(doc, flat, "lexmax_bids")
    if any(abs(lexmax[name] - bid) > epsilon for name, bid in bids.items()):
        return "grid lexmax further than epsilon from the egalitarian bids"
    return None


# Position auction with contracts, from the definition ----------------------


def _utilities(doc: dict, subsidies: dict[int, Fraction], responder: str):
    values = doc_values(doc)
    owners = doc["owners"]
    rates = [Fraction(r) for r in doc["slots"]]
    ads = doc["ads"]
    bids = [values[owners[j]] + subsidies.get(j, Fraction(0)) for j in range(len(ads))]
    order = sorted(range(len(ads)), key=lambda j: (-bids[j], j))
    utilities = {name: Fraction(0) for name in values}
    for rank, ad in enumerate(order[: len(rates)]):
        displaced = Fraction(0)
        for lower in range(rank + 1, min(len(order) - 1, len(rates)) + 1):
            below = rates[lower] if lower < len(rates) else Fraction(0)
            displaced += bids[order[lower]] * (rates[lower - 1] - below)
        price = displaced / rates[rank]
        for name in ads[ad]:
            utilities[name] += rates[rank] * values[name]
        utilities[owners[ad]] -= rates[rank] * price
        if ad in subsidies:
            transfer = min(price, subsidies[ad])
            utilities[responder] -= rates[rank] * transfer
            utilities[owners[ad]] += rates[rank] * transfer
    return utilities


def check_contracts(
    doc: dict, responder: str, step: Fraction, ceiling: Fraction, flat: dict[str, str]
) -> str | None:
    supported = [
        j
        for j, ad in enumerate(doc["ads"])
        if responder in ad and doc["owners"][j] != responder
    ]
    levels = [step * k for k in range(int(ceiling / step) + 1)]
    best = max(
        _utilities(doc, dict(zip(supported, combo)), responder)[responder]
        for combo in product(levels, repeat=len(supported))
    )
    labels = {}
    for j, ad in enumerate(doc["ads"]):
        order = [entry["name"] for entry in doc["advertisers"] if entry["name"] in ad]
        labels[f"ad {j} {{{', '.join(order)}}}"] = j
    chosen: dict[int, Fraction] = {}
    k = 0
    while f"best_response[{k}].ad" in flat:
        if flat[f"best_response[{k}].supporter"] != responder:
            return "best response names another supporter"
        chosen[labels[flat[f"best_response[{k}].ad"]]] = number(
            flat[f"best_response[{k}].subsidy"]
        )
        k += 1
    utilities = _utilities(doc, chosen, responder)
    if utilities[responder] != best:
        return f"best response earns {utilities[responder]}, the grid allows {best}"
    if named(flat, "outcome.utilities") != utilities:
        return "reported utilities differ from the exact evaluation"
    return None

"""Spans around the package's public functions, recorded from outside it.

`install` replaces each public function in the namespace of the module that
calls it (``cli.vcg``, ``polytope.solve_min``, ...) with a wrapper that
records a span: name, start, end, parent span and op id. Calls a layer makes
into another layer therefore nest as child spans, and a layer's self time
is its span time minus the time of its children. Spans stay in memory and
are written out once, when the run ends.

A few calls that are too cheap to time (winner determination) are only
counted. Per-layer work counts that need the call's arguments keep a
reference during the run and are computed in `Tracer.finish`, outside the
timed spans. Vertex enumeration solves one square system per constraint
combination, so its combination count is the number of ``simplex.square``
children of its span.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from fractions import Fraction

# Span fields: [name, start_s, end_s, parent index, op id, detail, error type]
NAME, START, END, PARENT, OP, DETAIL, ERROR = range(7)

TIME_METRICS = {
    "model.parse_ms": "model.parse",
    "mechanisms.vcg_ms": "mechanisms.vcg",
    "polytope.build_ms": "polytope.build",
    "polytope.verify_ms": "polytope.verify",
    "polytope.lp_ms": "polytope.lp",
    "polytope.vertices_ms": "polytope.vertices",
    "polytope.revenue_range_ms": "polytope.revenue_range",
    "simplex.solve_min_ms": "simplex.solve_min",
    "simplex.square_ms": "simplex.square",
    "egalitarian.solve_ms": "egalitarian.solve",
    "egalitarian.verify_ms": "egalitarian.verify",
    "oracle.grid_ms": "oracle.grid",
    "oracle.vcg_bruteforce_ms": "oracle.vcg_bruteforce",
    "contracts.best_response_ms": "contracts.best_response",
    "contracts.evaluate_ms": "contracts.evaluate",
    "cli.main_self_ms": "cli.main",
    "cli.render_ms": "cli.render",
}
START_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.numpy_import_ms")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._open: list[int] = []

    def _span(self, name, function, args, kwargs, detail):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op, None, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        except Exception as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self._open.pop()
        if detail is not None:
            span[DETAIL] = detail(args, kwargs, result)
        return result

    def wrap(self, module, attr: str, name: str, detail=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._span(name, original, args, kwargs, detail)

        setattr(module, attr, traced)

    def count(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)

    def run_op(self, op: int, function):
        """Run one CLI op as the root span "cli.main"."""
        self.op = op
        try:
            return self._span("cli.main", function, (), {}, None)
        finally:
            self.op = None

    def finish(self) -> list[list]:
        """Turn deferred details into numbers; spans become plain JSON data."""
        for span in self.spans:
            if span[NAME] == "oracle.grid" and span[DETAIL] is not None:
                span[DETAIL] = grid_points(*span[DETAIL])
        return self.spans


def grid_points(instance, grid) -> int:
    """Lattice points `enumerate_equilibria_grid` sweeps (or refuses)."""
    totals = [sum((instance.values[i] for i in ad.members), Fraction(0)) for ad in instance.ads]
    winner = instance.ads[totals.index(max(totals))]
    return math.prod(int(instance.values[i] / grid.epsilon) + 1 for i in winner.members)


def install(tracer: Tracer) -> None:
    """Wrap every public function where its caller binds it."""
    from coopetition import cli, contracts, egalitarian, oracle, polytope

    for attr in ("parse_instance", "parse_bids", "parse_owned_auction"):
        tracer.wrap(cli, attr, "model.parse")
    tracer.wrap(contracts, "parse_instance", "model.parse")

    tracer.wrap(cli, "vcg", "mechanisms.vcg")
    for module, attrs in (
        (cli, ("welfare_ties", "revenue_lower_bound")),
        (polytope, ("efficient_winner",)),
        (egalitarian, ("efficient_winner",)),
    ):
        for attr in attrs:
            tracer.count(module, attr, "mechanisms.calls")

    for module in (cli, egalitarian):
        tracer.wrap(module, "build_polytope", "polytope.build", lambda a, k, r: len(r.constraints))
    for module in (cli, polytope, egalitarian):
        tracer.wrap(module, "is_equilibrium", "polytope.verify", lambda a, k, r: r.ok)
    for attr in ("is_ir", "is_cef", "canonical_bids"):
        tracer.wrap(cli, attr, "polytope.verify")
    for module in (cli, polytope):
        tracer.wrap(module, "sample_pareto_equilibrium", "polytope.lp")
    tracer.wrap(polytope, "enumerate_vertices", "polytope.vertices", lambda a, k, r: len(r))
    tracer.wrap(cli, "revenue_range", "polytope.revenue_range")

    tracer.wrap(polytope, "solve_min", "simplex.solve_min", _tableau_cells)
    tracer.wrap(polytope, "solve_square_system", "simplex.square", lambda a, k, r: r is None)

    tracer.wrap(cli, "egalitarian_solve", "egalitarian.solve", lambda a, k, r: len(r[2].rounds))
    tracer.wrap(cli, "verify_egalitarian", "egalitarian.verify")

    for module in (cli, egalitarian, oracle):
        tracer.wrap(module, "enumerate_equilibria_grid", "oracle.grid", lambda a, k, r: a[:2])
    tracer.wrap(cli, "lexmax_surplus_grid", "oracle.grid")
    tracer.wrap(cli, "vcg_bruteforce", "oracle.vcg_bruteforce")

    tracer.wrap(cli, "best_response_contract", "contracts.best_response")
    for module in (cli, contracts):
        tracer.wrap(module, "evaluate_contracts", "contracts.evaluate")

    tracer.wrap(cli, "render", "cli.render")


def _tableau_cells(args, kwargs, result) -> int:
    """Rows x columns of the initial tableau, before artificial columns."""
    costs = args[0]
    ge, le, eq = (len(kwargs.get(key, ())) for key in ("ge", "le", "eq"))
    return (ge + le + eq) * (len(costs) + ge + le + 1)


def layer_metrics(spans: list[list], counts: Counter, start_ms: dict[str, float]) -> dict:
    """Self times (ms, summed over the run) and work counts per layer."""
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span in spans:
        self_s[span[NAME]] += span[END] - span[START]
        calls[span[NAME]] += 1
        if span[PARENT] is not None:
            parent = spans[span[PARENT]]
            self_s[parent[NAME]] -= span[END] - span[START]
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def details(name):
        return [s[DETAIL] for s in by_name.get(name, ()) if s[DETAIL] is not None]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    combinations = sum(
        1
        for s in by_name.get("simplex.square", ())
        if s[PARENT] is not None and spans[s[PARENT]][NAME] == "polytope.vertices"
    )
    vertex_checks = [
        s[DETAIL]
        for s in by_name.get("polytope.verify", ())
        if s[PARENT] is not None and spans[s[PARENT]][NAME] == "polytope.revenue_range"
    ]
    squares = details("simplex.square")
    metrics = {name: (1000 * self_s[span], "ms") for name, span in TIME_METRICS.items()}
    metrics.update({name: (start_ms[name], "ms") for name in START_METRICS})
    metrics.update(
        {
            "model.parse_calls": (calls["model.parse"], "count"),
            "mechanisms.calls": (calls["mechanisms.vcg"] + counts["mechanisms.calls"], "count"),
            "polytope.verify_calls": (calls["polytope.verify"], "count"),
            "polytope.rows": (sum(details("polytope.build")), "count"),
            "polytope.vertex_combinations": (combinations, "count"),
            "polytope.vertex_yield": (ratio(sum(details("polytope.vertices")), combinations), "ratio"),
            "polytope.equilibrium_vertex_ratio": (
                ratio(sum(vertex_checks), len(vertex_checks)),
                "ratio",
            ),
            "polytope.budget_errors": (
                sum(1 for s in by_name.get("polytope.vertices", ()) if s[ERROR]),
                "count",
            ),
            "simplex.solve_min_calls": (calls["simplex.solve_min"], "count"),
            "simplex.tableau_cells": (sum(details("simplex.solve_min")), "count"),
            "simplex.square_calls": (calls["simplex.square"], "count"),
            "simplex.square_singular_ratio": (ratio(sum(squares), len(squares)), "ratio"),
            "egalitarian.rounds": (sum(details("egalitarian.solve")), "count"),
            "oracle.grid_points": (sum(details("oracle.grid")), "count"),
            "oracle.budget_errors": (
                sum(1 for s in spans if s[ERROR] == "GridBudgetError"),
                "count",
            ),
            "contracts.evaluations": (calls["contracts.evaluate"], "count"),
        }
    )
    return metrics
